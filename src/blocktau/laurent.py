"""Banded matrix-valued Laurent series and circle sample grids.

Two dual representations of a matrix symbol on a circle:

- LaurentMatrix: a finite band of Fourier coefficients g^(k) (n x n complex
  blocks) for k in [lo, hi], interpreted as g(z) = sum_k g^(k) z^k.
- CircleSamples: values of g on the uniform grid z_j = radius*exp(2*pi*i*j/M).

Conversions use the FFT.  A grid of M points can faithfully carry a band of
width at most M/2 (one-in-two oversampling); both conversion directions
enforce this and raise AliasError otherwise.

Pointwise inverses, solves and determinants of a sample stack go through
one kernel, stacked_solve: partial-pivoting elimination with every matrix
entry held as a length-M array, O(n^3) array operations in place of one
LAPACK call per sample.  numpy.linalg stays the independent reference in
the check registry and the tests.

Scalar and vector valued series (single row of coefficients per power)
reuse the same conventions and are used for the column generators of the
symbols and for the flattening map between C^n-valued and scalar series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def block_matrix(self, modes) -> np.ndarray:
        """Dense block matrix whose (r, c) block is g^(modes[r, c]).

        modes is a 2-D integer array; modes outside the stored band give
        zero blocks.  The result has shape (R*n, C*n).
        """
        return block_layout(self.coeffs, self.lo, modes)

    def __call__(self, z) -> np.ndarray:
        """Evaluate at one point or an array of points."""
        return _power_sum(self.coeffs, self.lo, z)


def gather_modes(coeffs: np.ndarray, lo: int, modes) -> np.ndarray:
    """coeffs[modes - lo] for an integer array of modes, zero off the stored band.

    coeffs holds the modes lo, lo+1, ... along its first axis and may carry
    any trailing shape; the result has shape modes.shape + coeffs.shape[1:].
    Every block and fold index of the package is one call of this map.
    """
    idx = np.asarray(modes, dtype=int) - lo
    off = (idx < 0) | (idx >= len(coeffs))
    out = np.take(coeffs, np.where(off, 0, idx), axis=0)
    out[off] = 0
    return out


def block_layout(coeffs: np.ndarray, lo: int, modes) -> np.ndarray:
    """Block matrix (R*n, C*n, ...) whose (r, c) block is mode modes[r, c].

    coeffs has shape (modes, n, n, ...) with the modes lo, lo+1, ... first;
    any trailing shape rides along.  modes is a 2-D integer array; modes
    outside the stored band give zero blocks.
    """
    modes = np.asarray(modes, dtype=int)
    (R, C), n = modes.shape, coeffs.shape[1]
    blocks = gather_modes(coeffs, lo, modes)
    return blocks.swapaxes(1, 2).reshape(R * n, C * n, *coeffs.shape[3:])


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] * x^m by Horner's rule, the last coefficient first."""
    acc = np.zeros(np.broadcast_shapes(coeffs.shape[1:], x.shape), dtype=complex)
    for c in coeffs[::-1]:
        acc *= x
        acc += c
    return acc


def _power_sum(coeffs: np.ndarray, lo: int, z) -> np.ndarray:
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
    coeffs = coeffs.reshape(coeffs.shape + (1,) * z.ndim)
    neg = min(max(-lo, 0), len(coeffs))  # modes lo .. lo + neg - 1 are negative
    out = _horner(coeffs[neg:], z) * z ** max(lo, 0)
    if neg:
        out = out + _horner(coeffs[neg - 1 :: -1], 1 / z) * z ** (lo + neg - 1)
    return np.moveaxis(out, tuple(range(t)), tuple(range(-t, 0)))


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
    """Fourier coefficients on the band [lo, hi] from circle samples.

    Requires M >= 2 * bandwidth so folded (aliased) modes stay separated.
    """
    lo, hi = band
    if hi < lo:
        raise ValueError(f"empty band {band}")
    width = hi - lo + 1
    if x.M < 2 * width:
        raise AliasError(f"grid M={x.M} too coarse for bandwidth {width}")
    modes = _fft_modes(x)
    ks = np.arange(lo, hi + 1)
    coeffs = modes[ks % x.M]
    if x.radius != 1.0:
        coeffs = coeffs * (x.radius ** (-ks))[:, None, None]
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


def inverse_transform(lm: LaurentMatrix, M: int, radius: float = 1.0) -> CircleSamples:
    """Synthesize samples on |z| = radius from banded coefficients (FFT synthesis).

    Mode k is scaled by radius^k first, the inverse of transform's scaling.
    """
    if M < 2 * lm.width:
        raise AliasError(f"grid M={M} too coarse for bandwidth {lm.width}")
    spectrum = np.zeros((M, lm.n, lm.n), dtype=complex)
    ks = np.arange(lm.lo, lm.hi + 1)
    coeffs = lm.coeffs
    if radius != 1.0:
        coeffs = coeffs * (radius**ks)[:, None, None]
    np.add.at(spectrum, ks % M, coeffs)
    values = np.fft.ifft(spectrum, axis=0) * M
    return CircleSamples(lm.n, M, values, radius)


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
    ks = np.arange(lo, hi + 1)
    if a.width <= b.width:
        ms = np.arange(a.lo, a.hi + 1)
        row = a.coeffs.transpose(1, 0, 2).reshape(n, a.width * n)
        coeffs = (row @ b.block_matrix(ks - ms[:, None])).reshape(n, len(ks), n)
        coeffs = coeffs.transpose(1, 0, 2)
    else:
        ms = np.arange(b.lo, b.hi + 1)
        col = b.coeffs.reshape(b.width * n, n)
        coeffs = (a.block_matrix(ks[:, None] - ms) @ col).reshape(len(ks), n, n)
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


def samples_mul(a: CircleSamples, b: CircleSamples) -> CircleSamples:
    if (a.n, a.M, a.radius) != (b.n, b.M, b.radius):
        raise ValueError("incompatible sample grids")
    return CircleSamples(a.n, a.M, a.values @ b.values, a.radius)


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


def invert_symbol(x: CircleSamples) -> CircleSamples:
    """Pointwise matrix inverse; rejects nearly singular sample points.

    ||A||_F ||A^-1||_F, an upper bound of cond_2(A), screens every sample
    from the inverse itself (stacked_solve; an exactly singular sample
    gives a non-finite inverse and misses the screen).  Only when a sample
    misses COND_SCREEN (half of COND_LIMIT: room for the round-off of an
    inverse at that conditioning) are the SVD condition numbers computed;
    they decide.
    """
    inv = stacked_solve(x.values)[0]
    if not np.all(
        np.linalg.norm(x.values, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2)) <= COND_SCREEN
    ):
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


def _continuous_log_det(x: CircleSamples) -> tuple[np.ndarray, int]:
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


def winding_number(x: CircleSamples) -> int:
    """Winding of det(symbol) around 0 along the sample circle."""
    _, w = _continuous_log_det(x)
    return w


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
    logs, winding = _continuous_log_det(x)
    if winding != 0:
        raise BranchError(f"winding {winding} != 0: geometric mean undefined")
    return complex(np.exp(np.mean(logs)))


# -- scalar / vector series -------------------------------------------------


@dataclass
class ScalarSeries:
    """Scalar Laurent polynomial sum_{k=lo..hi} coeffs[k-lo] * z^k."""

    lo: int
    coeffs: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=complex))

    def __post_init__(self) -> None:
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def coeff(self, k: int) -> complex:
        if self.lo <= k <= self.hi:
            return complex(self.coeffs[k - self.lo])
        return 0.0 + 0.0j

    def __call__(self, z):
        return _power_sum(self.coeffs, self.lo, z)


@dataclass
class VectorSeries:
    """C^n-valued Laurent polynomial; row k-lo holds the coefficient vector of z^k."""

    n: int
    lo: int
    coeffs: np.ndarray  # shape (width, n)

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != self.n:
            raise ValueError(f"vector series coeffs shape {self.coeffs.shape}")

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    def coeff(self, k: int) -> np.ndarray:
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo]
        return np.zeros(self.n, dtype=complex)


def lm_column(lm: LaurentMatrix, j: int) -> VectorSeries:
    """Column j of a matrix series as a vector series."""
    return VectorSeries(lm.n, lm.lo, lm.coeffs[:, :, j].copy())


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
