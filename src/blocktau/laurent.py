"""Banded matrix-valued Laurent series and circle sample grids.

Two dual representations of a matrix symbol on a circle:

- LaurentMatrix: a finite band of Fourier coefficients g^(k) (n x n complex
  blocks) for k in [lo, hi], interpreted as g(z) = sum_k g^(k) z^k.
- CircleSamples: values of g on the uniform grid z_j = radius*exp(2*pi*i*j/M).

Conversions use the FFT and read the unit circle only: transform refuses
samples on any other radius, and inverse_transform synthesizes on |z| = 1.
Samples inside the circle (plemelj_quadrature's inner grid) are read as
values, never as modes.  A grid of M points can faithfully carry a band of
width at most M/2 (one-in-two oversampling); both conversion directions
enforce this and raise AliasError otherwise.

Pointwise inverses, solves and determinants of a sample stack go through
one kernel, stacked_solve: partial-pivoting elimination with every matrix
entry held as a length-M array, O(n^3) array operations in place of one
LAPACK call per sample.  Pointwise products go through stacked_mul, k
multiply-adds of length-M arrays per entry, and a banded series is
evaluated on a (shifted) uniform grid by one inverse FFT (grid_values,
which inverse_transform also runs).  numpy.linalg stays the independent
reference in the check registry and the tests.

A Toeplitz or Hankel section of a band (LaurentMatrix.section) holds one
strip of R + C - 1 modes, copied once and read through a strided view; T_N,
the Wiener-Hopf system, lm_mul and the Hankel products are sections.
Irregular index maps (folds, generator modes) go through gather_modes.

A scalar series is the same (coeffs, lo) pair with one coefficient per
power: the columns of a symbol read in zeta, the time series xi(t, zeta)
and the branch of a spectral curve.  power_sum evaluates it, and a matrix
series, at any points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasError,
    BranchError,
    NearSingularSymbol,
    TruncationError,
    WindingUndefined,
)

COND_LIMIT = 1e12        # inversion refuses beyond this condition number (or bound)
COND_SCREEN = 0.5 * COND_LIMIT  # a Frobenius bound (>= cond_2) below this skips the SVD
DET_FLOOR = 1e-13        # |det| below this (relative) makes the winding undefined
UNWRAP_JUMP = np.pi / 2  # largest tolerated argument step between neighbour samples
INVERT_TAIL_TOL = 1e-13  # lm_invert: discarded modes below this of the largest sample


@dataclass
class LaurentMatrix:
    """Matrix Laurent polynomial sum_{k=lo..hi} coeffs[k-lo] * z^k."""

    n: int
    lo: int
    hi: int
    coeffs: np.ndarray  # shape (hi-lo+1, n, n), complex

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = (self.hi - self.lo + 1, self.n, self.n)
        if self.coeffs.shape != expected:
            raise ValueError(
                f"coefficient array has shape {self.coeffs.shape}, expected {expected}"
            )

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def block(self, k: int) -> np.ndarray:
        """Fourier coefficient g^(k); zero outside the stored band."""
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo]
        return np.zeros((self.n, self.n), dtype=complex)

    def section(self, R: int, C: int, first: int, dr: int, dc: int) -> np.ndarray:
        """Dense (R*n, C*n) block matrix whose block (r, c) is g^(first + dr*r + dc*c).

        dr and dc are +1 or -1 (ValueError otherwise): a Hankel section when
        they are equal, a Toeplitz one when they differ.  Modes off the
        stored band give zero blocks.  Such a section holds the R + C - 1
        modes of one strip only: the part of the band they overlap is copied
        once into a zero (n, R + C - 1, n) buffer, whose flat row a holds row
        a of every strip block side by side in the order c runs.  Row (r, a) of the section
        is then C*n entries of flat row a, starting n entries further on
        with each r for a Hankel section and n entries further back for a
        Toeplitz one: one strided view, copied once in C order.
        """
        if dr not in (1, -1) or dc not in (1, -1):
            raise ValueError(f"section steps must be +1 or -1, got dr={dr}, dc={dc}")
        n = self.n
        if R * C == 0:
            return np.zeros((R * n, C * n), dtype=complex)
        L = R + C - 1
        # strip position p holds mode base + dc*p; block (r, c) sits at
        # p = r + c (Hankel) or p = R - 1 - r + c (Toeplitz)
        base = first if dr == dc else first - dc * (R - 1)
        if dc > 0:
            p0, p1 = max(self.lo - base, 0), min(self.hi - base, L - 1)
        else:
            p0, p1 = max(base - self.hi, 0), min(base - self.lo, L - 1)
        strip = np.zeros((n, L, n), dtype=complex)
        if p0 <= p1:
            i0, i1 = base + dc * p0 - self.lo, base + dc * p1 - self.lo
            part = self.coeffs[i0 : i1 + 1] if dc > 0 else self.coeffs[i1 : i0 + 1][::-1]
            strip[:, p0 : p1 + 1] = part.transpose(1, 0, 2)
        flat_row, step, item = strip.strides  # flat row a, one block, one entry
        start, stride = (0, step) if dr == dc else ((R - 1) * step, -step)
        view = np.ndarray((R, n, C * n), complex, strip, start, (stride, flat_row, item))
        return np.ascontiguousarray(view).reshape(R * n, C * n)

    def __call__(self, z) -> np.ndarray:
        """Evaluate at one point or an array of points."""
        return power_sum(self.coeffs, self.lo, z)


def gather_modes(coeffs: np.ndarray, lo: int, modes) -> np.ndarray:
    """coeffs[modes - lo] for an integer array of modes, zero off the stored band.

    coeffs holds the modes lo, lo+1, ... along its first axis and may carry
    any trailing shape; the result has shape modes.shape + coeffs.shape[1:].
    The fold and generator-mode indices of the package are calls of this
    map; a Toeplitz or Hankel section is one strip (LaurentMatrix.section).
    """
    idx = np.asarray(modes, dtype=int) - lo
    off = (idx < 0) | (idx >= len(coeffs))
    out = np.take(coeffs, np.where(off, 0, idx), axis=0)
    out[off] = 0
    return out


def _horner(coeffs: np.ndarray, x: np.ndarray, shape: tuple) -> np.ndarray:
    """sum_m coeffs[m] * x^m by Horner's rule, the last coefficient first;
    shape is that of coeffs[0] and x broadcast together."""
    acc = np.zeros(shape, dtype=complex)
    for c in coeffs[::-1]:
        acc *= x
        acc += c
    return acc


def power_sum(coeffs: np.ndarray, lo: int, z) -> np.ndarray:
    """sum_k coeffs[k - lo] * z^k at every point of z; shape z.shape + coeffs.shape[1:].

    Horner's rule from each far end in to mode 0 (modes >= 0 in z, modes
    < 0 in 1/z), each part times one power of z, so a series that decays
    away from mode 0 adds its largest terms last.  One pass from hi to lo
    would carry the large partial sums of a deep negative band through
    every step: W W^-1 of rational (0.99, 0.2) then misses I by 8e-13, not
    6e-15.  The points run along the last axis of each step.
    """
    z = np.asarray(z, dtype=complex)
    t = coeffs.ndim - 1
    shape = coeffs.shape[1:] + z.shape
    coeffs = coeffs.reshape(coeffs.shape + (1,) * z.ndim)
    neg = min(max(-lo, 0), len(coeffs))  # modes lo .. lo + neg - 1 are negative
    out = _horner(coeffs[neg:], z, shape) * z ** max(lo, 0)
    if neg:
        out = out + _horner(coeffs[neg - 1 :: -1], 1 / z, shape) * z ** (lo + neg - 1)
    return np.moveaxis(out, tuple(range(t)), tuple(range(-t, 0))) if t else out


@dataclass
class CircleSamples:
    """Values of a matrix function on M uniform points of |z| = radius."""

    n: int
    M: int
    values: np.ndarray  # shape (M, n, n), complex
    radius: float = 1.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.M, self.n, self.n):
            raise ValueError(
                f"sample array has shape {self.values.shape}, "
                f"expected {(self.M, self.n, self.n)}"
            )

    def grid(self) -> np.ndarray:
        """The sample points z_j = radius * exp(2*pi*i*j / M)."""
        return self.radius * np.exp(2j * np.pi * np.arange(self.M) / self.M)


def sample_function(fn, n: int, M: int, radius: float = 1.0) -> CircleSamples:
    """Evaluate fn on the uniform grid; fn maps an array of z to (M, n, n)."""
    z = radius * np.exp(2j * np.pi * np.arange(M) / M)
    values = np.asarray(fn(z), dtype=complex)
    if values.shape != (M, n, n):
        raise ValueError(f"sampler returned shape {values.shape}")
    return CircleSamples(n, M, values, radius)


# -- transforms -------------------------------------------------------------


def _fft_modes(x: CircleSamples) -> np.ndarray:
    """Raw DFT modes: modes[k] = (1/M) sum_j values[j] e^{-2 pi i jk/M}."""
    return np.fft.fft(x.values, axis=0) / x.M


def transform(x: CircleSamples, band: tuple[int, int]) -> LaurentMatrix:
    """Fourier coefficients on the band [lo, hi] from unit-circle samples.

    Requires M >= 2 * bandwidth so folded (aliased) modes stay separated;
    AliasError otherwise, and on samples off the unit circle.
    """
    lo, hi = band
    if hi < lo:
        raise ValueError(f"empty band {band}")
    if x.radius != 1.0:
        raise AliasError(f"transform reads the unit circle, not radius {x.radius}")
    width = hi - lo + 1
    if x.M < 2 * width:
        raise AliasError(f"grid M={x.M} too coarse for bandwidth {width}")
    coeffs = _fft_modes(x)[np.arange(lo, hi + 1) % x.M]
    return LaurentMatrix(x.n, lo, hi, coeffs)


def transform_tail(x: CircleSamples, band: tuple[int, int]) -> float:
    """Largest norm of a DFT mode outside the band, relative to the largest sample.

    On this scale the round-off of the modes stays near eps whatever x is.
    """
    lo, hi = band
    top = float(np.max(np.linalg.norm(x.values, axis=(1, 2))))
    if top == 0.0:
        return 0.0
    norms = np.linalg.norm(_fft_modes(x), axis=(1, 2))
    norms[np.arange(lo, hi + 1) % x.M] = 0.0
    return float(np.max(norms)) / top


def inverse_transform(lm: LaurentMatrix, M: int) -> CircleSamples:
    """Synthesize samples on the unit circle from banded coefficients (FFT synthesis)."""
    if M < 2 * lm.width:
        raise AliasError(f"grid M={M} too coarse for bandwidth {lm.width}")
    return CircleSamples(lm.n, M, grid_values(lm.coeffs, lm.lo, M))


def grid_values(coeffs: np.ndarray, lo: int, M: int, shift: float = 0.0) -> np.ndarray:
    """sum_k coeffs[k - lo] z_j^k on z_j = exp(2 pi i (j + shift) / M), j < M, by one FFT.

    Mode k is twisted by exp(2 pi i k shift / M) and folded onto slot k mod
    M, so a band of any width is exact on the grid; coeffs may carry any
    trailing shape, and the points run along the first axis of the result.
    """
    width = len(coeffs)
    ks = np.arange(lo, lo + width)
    twisted = np.asarray(coeffs, dtype=complex)
    if shift:
        phase = np.exp(2j * np.pi * shift * ks / M)
        twisted = twisted * phase.reshape((width,) + (1,) * (twisted.ndim - 1))
    spectrum = np.zeros((M,) + twisted.shape[1:], dtype=complex)
    for start in range(0, width, M):  # M modes in a row take M distinct slots
        spectrum[ks[start : start + M] % M] += twisted[start : start + M]
    return np.fft.ifft(spectrum, axis=0) * M


def next_pow2(m: int) -> int:
    """Smallest power of two that is >= m (1 for m <= 1)."""
    p = 1
    while p < m:
        p *= 2
    return p


# -- arithmetic -------------------------------------------------------------


def lm_add(a: LaurentMatrix, b: LaurentMatrix, scale_b: complex = 1.0) -> LaurentMatrix:
    """a + scale_b * b on the union band."""
    if a.n != b.n:
        raise ValueError("block size mismatch")
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    coeffs = np.zeros((hi - lo + 1, a.n, a.n), dtype=complex)
    coeffs[a.lo - lo : a.hi - lo + 1] += a.coeffs
    coeffs[b.lo - lo : b.hi - lo + 1] += scale_b * b.coeffs
    return LaurentMatrix(a.n, lo, hi, coeffs)


def lm_scale(a: LaurentMatrix, s: complex) -> LaurentMatrix:
    return LaurentMatrix(a.n, a.lo, a.hi, s * a.coeffs)


def lm_mul(a: LaurentMatrix, b: LaurentMatrix, band_out: tuple[int, int]) -> LaurentMatrix:
    """Product of two banded series, restricted to the output band.

    c^(k) = sum_m a^(m) b^(k-m) is one GEMM: the row of the narrower
    operand's blocks times the Toeplitz section of the other along that
    band, so the section holds width_out * min(width_a, width_b) blocks.
    Exact within band_out because each output coefficient is a finite sum
    over the stored bands.
    """
    if a.n != b.n:
        raise ValueError("block size mismatch")
    n = a.n
    lo, hi = band_out
    width = hi - lo + 1
    if a.width <= b.width:  # block (m, k) of the section is b^(k - m)
        row = a.coeffs.transpose(1, 0, 2).reshape(n, a.width * n)
        coeffs = (row @ b.section(a.width, width, lo - a.lo, -1, 1)).reshape(n, width, n)
        coeffs = coeffs.transpose(1, 0, 2)
    else:  # block (k, m) of the section is a^(k - m)
        col = b.coeffs.reshape(b.width * n, n)
        coeffs = (a.section(width, b.width, lo - b.lo, 1, -1) @ col).reshape(width, n, n)
    return LaurentMatrix(n, lo, hi, coeffs)


def lm_project(a: LaurentMatrix, lo: int, hi: int) -> LaurentMatrix:
    """Restriction to the band [lo, hi] (coefficients outside are dropped)."""
    coeffs = np.zeros((hi - lo + 1, a.n, a.n), dtype=complex)
    src_lo, src_hi = max(lo, a.lo), min(hi, a.hi)
    if src_lo <= src_hi:
        coeffs[src_lo - lo : src_hi - lo + 1] = a.coeffs[
            src_lo - a.lo : src_hi - a.lo + 1
        ]
    return LaurentMatrix(a.n, lo, hi, coeffs)


def lm_reflect(a: LaurentMatrix) -> LaurentMatrix:
    """Substitute z -> 1/z: coefficient at k becomes coefficient at -k."""
    return LaurentMatrix(a.n, -a.hi, -a.lo, a.coeffs[::-1].copy())


def lm_trim(a: LaurentMatrix, rel_tol: float = 0.0) -> LaurentMatrix:
    """Shrink the band to the outermost coefficients above rel_tol * max."""
    norms = np.linalg.norm(a.coeffs, axis=(1, 2))
    top = norms.max(initial=0.0)
    keep = np.nonzero(norms > rel_tol * top)[0]
    if len(keep) == 0:
        return LaurentMatrix(a.n, 0, 0, np.zeros((1, a.n, a.n), dtype=complex))
    i0, i1 = keep[0], keep[-1]
    return LaurentMatrix(a.n, a.lo + i0, a.lo + i1, a.coeffs[i0 : i1 + 1].copy())


# -- pointwise sample algebra ----------------------------------------------


def stacked_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_m b_m for every pair of stacks a (..., n, k) and b (..., k, p).

    Entry (i, j) of every product is k multiply-adds of whole strided
    arrays over the stack: on a tall stack of small matrices np.matmul and
    np.einsum pay a dispatch per matrix, and a broadcast product over the
    small axes runs through ufunc buffers of 2 x 128 KiB per call.
    """
    n, k, p = a.shape[-2], a.shape[-1], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (n, p), dtype=complex)
    for i in range(n):
        for j in range(p):
            entry = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=entry)
            for c in range(1, k):
                entry += a[..., i, c] * b[..., c, j]
    return out


def samples_mul(a: CircleSamples, b: CircleSamples) -> CircleSamples:
    if (a.n, a.M, a.radius) != (b.n, b.M, b.radius):
        raise ValueError("incompatible sample grids")
    return CircleSamples(a.n, a.M, stacked_mul(a.values, b.values), a.radius)


def _mag(v: np.ndarray) -> np.ndarray:
    """|Re| + |Im|, the pivot size of LAPACK's izamax."""
    return np.abs(v.real) + np.abs(v.imag)


def stacked_solve(a: np.ndarray, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """x_m = a_m^-1 b_m and det a_m for every matrix of a stack a of shape (M, n, n).

    b has shape (M, n, k); None solves for the inverse, and k = 0 gives the
    determinants alone.  Gaussian elimination with partial pivoting on the
    augmented rows [a_m | b_m], with each entry held as one length-M array:
    O(n^3) array operations in place of one LAPACK call per matrix, and
    backward stable all the same (Higham 2002, ch. 9).  The pivot is the
    first entry of largest |Re| + |Im| in its column, as LAPACK's izamax
    picks it.  A zero pivot gives det 0 and a non-finite x, where np.linalg
    would raise.
    """
    M, n = a.shape[0], a.shape[-1]
    k = n if b is None else b.shape[-1]
    T = np.empty((n, n + k, M), dtype=complex)  # T[i, j]: entry (i, j) of every matrix
    T[:, :n] = a.transpose(1, 2, 0)
    T[:, n:] = np.eye(n)[:, :, None] if b is None else b.transpose(1, 2, 0)
    det = np.ones(M, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for c in range(n):
            best = _mag(T[c, c])
            for r in range(c + 1, n):  # row c takes each larger pivot in turn
                m = _mag(T[r, c])
                swap = m > best
                if swap.any():
                    top, row = T[c, c:], T[r, c:]
                    new_top = np.where(swap, row, top)
                    row[...] = np.where(swap, top, row)
                    top[...] = new_top
                    det = np.where(swap, -det, det)
                    best = np.where(swap, m, best)
            piv = T[c, c]
            det *= piv
            # below a zero pivot the column is zero already: nothing to eliminate
            f = T[c + 1 :, c] / np.where(piv == 0, 1, piv)
            T[c + 1 :, c + 1 :] -= f[:, None] * T[c, c + 1 :]
        X = T[:, n:]
        if k:
            for c in range(n - 1, -1, -1):
                for j in range(c + 1, n):
                    X[c] -= T[c, j] * X[j]
                X[c] /= T[c, c]
    return np.ascontiguousarray(X.transpose(2, 0, 1)), det


def _frobenius_sq(stack: np.ndarray) -> np.ndarray:
    """||A||_F^2 of every matrix of a stack: a row dot of its float view."""
    f = np.ascontiguousarray(stack).reshape(len(stack), -1).view(float)
    return np.einsum("ij,ij->i", f, f)


def invert_symbol(x: CircleSamples) -> CircleSamples:
    """Pointwise matrix inverse; rejects nearly singular sample points.

    ||A||_F ||A^-1||_F, an upper bound of cond_2(A), screens every sample
    from the inverse itself (stacked_solve; an exactly singular sample
    gives a non-finite inverse and misses the screen); both norms are
    taken squared, as row dots (_frobenius_sq).  Only when a sample misses
    COND_SCREEN (half of COND_LIMIT: room for the round-off of an inverse
    at that conditioning) are the SVD condition numbers computed; they
    decide.
    """
    inv = stacked_solve(x.values)[0]
    if not np.all(_frobenius_sq(x.values) * _frobenius_sq(inv) <= COND_SCREEN**2):
        conds = np.linalg.cond(x.values)
        worst = float(np.max(conds))
        if not np.isfinite(worst) or worst > COND_LIMIT:
            j = int(np.argmax(np.where(np.isfinite(conds), conds, np.inf)))
            raise NearSingularSymbol(
                f"condition number {worst:.3g} at sample {j} exceeds {COND_LIMIT:g}"
            )
    return CircleSamples(x.n, x.M, inv, x.radius)


def lm_invert(a: LaurentMatrix) -> LaurentMatrix:
    """Banded coefficients of the pointwise inverse of a banded symbol.

    The band grows (doubling) until every discarded mode of the inverse is
    below INVERT_TAIL_TOL of its largest value on the circle; past
    half-width 4096 TruncationError is raised.  Modes below 1e-16 of that
    largest value are cut from the result.
    """
    half = max(8, a.width)
    while True:
        band_try = (-half, half)
        M = max(512, next_pow2(4 * half + 2))
        x = invert_symbol(inverse_transform(a, M))
        if transform_tail(x, band_try) < INVERT_TAIL_TOL:
            inv = transform(x, band_try)
            # cut round-off on the scale of the tail test, the largest sample
            top = np.max(np.linalg.norm(x.values, axis=(1, 2)))
            peak = np.max(np.linalg.norm(inv.coeffs, axis=(1, 2)))
            return lm_trim(inv, 1e-16 * top / peak)
        if half >= 1 << 12:
            raise TruncationError(
                f"inverse symbol does not fit a band of half-width {half}"
            )
        half *= 2


# -- half-norm, winding and geometric mean ----------------------------------


def continuous_log_det(x: CircleSamples) -> tuple[np.ndarray, int]:
    """Continuous branch of log det along the grid and the winding number.

    Raises WindingUndefined when det nearly vanishes and BranchError when the
    sampled argument jumps too fast to be unwrapped confidently.
    """
    dets = stacked_solve(x.values, x.values[:, :, :0])[1]
    mags = np.abs(dets)
    floor = DET_FLOOR * float(np.max(mags, initial=0.0))
    if np.any(mags <= floor) or np.max(mags, initial=0.0) == 0.0:
        j = int(np.argmin(mags))
        raise WindingUndefined(
            f"det of the symbol is ~0 at sample {j} (|det|={mags[j]:.3g})"
        )
    args = np.angle(dets)
    raw = np.diff(np.concatenate([args, args[:1]]))
    steps = (raw + np.pi) % (2 * np.pi) - np.pi
    if np.max(np.abs(steps)) > UNWRAP_JUMP:
        raise BranchError(
            "argument of det jumps by more than pi/2 between neighbour "
            f"samples (max {np.max(np.abs(steps)):.3f} rad at M={x.M}); "
            "refine the grid"
        )
    # the branch is args plus whole turns, counted exactly: a running sum of
    # the steps would carry the round-off of every step into the mean, and
    # G^N multiplies that by N
    turns = np.rint((steps - raw) / (2 * np.pi))
    unwrapped = args + 2 * np.pi * np.concatenate([[0.0], np.cumsum(turns[:-1])])
    winding = int(np.rint(np.sum(steps) / (2 * np.pi)))
    return np.log(mags) + 1j * unwrapped, winding


def half_norm(lm: LaurentMatrix) -> float:
    """Besov-type half-norm sum_k sqrt(|k|) * ||g^(k)||_HS of a banded symbol.

    Its finiteness, together with winding zero, is what the limit theorems
    assume.
    """
    norms = np.linalg.norm(lm.coeffs, axis=(1, 2))
    ks = np.arange(lm.lo, lm.hi + 1)
    return float(np.sum(np.sqrt(np.abs(ks)) * norms))


def geometric_mean(x: CircleSamples) -> complex:
    """exp of the average of a continuous log det over the circle.

    Requires winding zero; otherwise the average is branch-dependent and a
    BranchError is raised.
    """
    logs, winding = continuous_log_det(x)
    if winding != 0:
        raise BranchError(f"winding {winding} != 0: geometric mean undefined")
    return complex(np.exp(np.mean(logs)))


# -- CSV dump ---------------------------------------------------------------

CSV_HEADER = "k,row,col,re,im"


def write_csv(lm: LaurentMatrix, path) -> None:
    """Dump nonzero coefficients as rows (k, row, col, re, im)."""
    q, r, c = np.nonzero(lm.coeffs)
    v = lm.coeffs[q, r, c]
    rows = zip((q + lm.lo).tolist(), r.tolist(), c.tolist(), v.real.tolist(), v.imag.tolist())
    lines = [CSV_HEADER] + [f"{k},{i},{j},{re:.17g},{im:.17g}" for k, i, j, re, im in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
