"""Banded matrix-valued Laurent series and circle sample grids.

Two dual representations of a matrix symbol on a circle:

- LaurentMatrix: a finite band of Fourier coefficients g^(k) (n x n complex
  blocks) for k in [lo, hi], interpreted as g(z) = sum_k g^(k) z^k.
- CircleSamples: values of g on the uniform grid z_j = radius*exp(2*pi*i*j/M).

Conversions use the FFT.  A grid of M points can faithfully carry a band of
width at most M/2 (one-in-two oversampling); both conversion directions
enforce this and raise AliasError otherwise.

Scalar and vector valued series (single row of coefficients per power)
reuse the same conventions and are used for the column generators of the
symbols and for the flattening map between C^n-valued and scalar series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AliasError, BranchError, NearSingularSymbol, WindingUndefined

COND_LIMIT = 1e12        # pointwise inversion refuses beyond this condition number
DET_FLOOR = 1e-13        # |det| below this (relative) makes the winding undefined
UNWRAP_JUMP = np.pi / 2  # largest tolerated argument step between neighbour samples


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
        modes = np.asarray(modes, dtype=int)
        R, C = modes.shape
        n = self.n
        padded = np.concatenate([self.coeffs, np.zeros((1, n, n), dtype=complex)])
        idx = modes - self.lo
        idx[(idx < 0) | (idx >= self.width)] = self.width
        return padded[idx].transpose(0, 2, 1, 3).reshape(R * n, C * n)

    def __call__(self, z) -> np.ndarray:
        """Evaluate at one point or an array of points."""
        return _eval_horner(self, np.asarray(z, dtype=complex))


def _eval_horner(lm: LaurentMatrix, z: np.ndarray) -> np.ndarray:
    """Evaluate sum g^(k) z^k by a two-sided Horner scheme."""
    scalar = z.ndim == 0
    zs = np.atleast_1d(z)
    out = np.zeros(zs.shape + (lm.n, lm.n), dtype=complex)
    # non-negative part, highest power first
    top = None
    for k in range(lm.hi, max(lm.lo, 0) - 1, -1):
        blk = lm.block(k)
        top = blk if top is None else top * zs[..., None, None] + blk
    if top is not None:
        if max(lm.lo, 0) > 0:
            top = top * zs[..., None, None] ** max(lm.lo, 0)
        out += top
    # negative part, most negative first
    bottom = None
    if lm.lo < 0:
        w = 1.0 / zs
        for k in range(lm.lo, min(lm.hi, -1) + 1):
            blk = lm.block(k)
            bottom = blk if bottom is None else bottom * w[..., None, None] + blk
        bottom = bottom * w[..., None, None] ** (-min(lm.hi, -1))
        out += bottom
    return out[0] if scalar else out


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
    """Relative energy of the DFT modes that fall outside the band."""
    lo, hi = band
    modes = _fft_modes(x)
    energy = np.sum(np.abs(modes) ** 2, axis=(1, 2))
    total = float(np.sum(energy))
    if total == 0.0:
        return 0.0
    keep = np.zeros(x.M, dtype=bool)
    keep[np.arange(lo, hi + 1) % x.M] = True
    return float(np.sum(energy[~keep])) / total


def inverse_transform(lm: LaurentMatrix, M: int, radius: float = 1.0) -> CircleSamples:
    """Synthesize circle samples from banded coefficients (FFT synthesis)."""
    if M < 2 * lm.width:
        raise AliasError(f"grid M={M} too coarse for bandwidth {lm.width}")
    spectrum = np.zeros((M, lm.n, lm.n), dtype=complex)
    ks = np.arange(lm.lo, lm.hi + 1)
    scaled = lm.coeffs * (radius**ks)[:, None, None] if radius != 1.0 else lm.coeffs
    np.add.at(spectrum, ks % M, scaled)
    values = np.fft.ifft(spectrum, axis=0) * M
    return CircleSamples(lm.n, M, values, radius)


def transform_adaptive(
    fn,
    n: int,
    band: tuple[int, int],
    start_M: int = 512,
    tail_tol: float = 1e-12,
    max_M: int = 1 << 17,
    radius: float = 1.0,
) -> LaurentMatrix:
    """Transform with the grid doubled until the out-of-band tail is tiny."""
    from .errors import TruncationError

    M = max(start_M, next_pow2(2 * (band[1] - band[0] + 1)))
    while True:
        x = sample_function(fn, n, M, radius)
        if transform_tail(x, band) < tail_tol:
            return transform(x, band)
        if M >= max_M:
            raise TruncationError(
                f"band {band} cannot hold the symbol to {tail_tol:g} "
                f"(grid saturated at M={M})"
            )
        M *= 2


def next_pow2(m: int) -> int:
    """Smallest power of two that is >= m (1 for m <= 1)."""
    p = 1
    while p < m:
        p *= 2
    return p


# -- arithmetic -------------------------------------------------------------


def lm_identity(n: int) -> LaurentMatrix:
    return LaurentMatrix(n, 0, 0, np.eye(n, dtype=complex)[None])


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

    c^(k) = sum_m a^(m) b^(k-m); exact within band_out because each output
    coefficient is a finite sum over the stored bands.
    """
    if a.n != b.n:
        raise ValueError("block size mismatch")
    lo, hi = band_out
    coeffs = np.zeros((hi - lo + 1, a.n, a.n), dtype=complex)
    for m in range(a.lo, a.hi + 1):
        am = a.coeffs[m - a.lo]
        # k - m must lie within b's band
        k0 = max(lo, m + b.lo)
        k1 = min(hi, m + b.hi)
        if k0 > k1:
            continue
        coeffs[k0 - lo : k1 - lo + 1] += am @ b.coeffs[k0 - m - b.lo : k1 - m - b.lo + 1]
    return LaurentMatrix(a.n, lo, hi, coeffs)


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


def lm_norm(a: LaurentMatrix) -> float:
    """Frobenius norm over the whole band."""
    return float(np.linalg.norm(a.coeffs))


def band_energy(a: LaurentMatrix, lo: int, hi: int) -> float:
    """Sum of squared Frobenius norms of the coefficients with lo <= k <= hi."""
    total = 0.0
    for k in range(max(lo, a.lo), min(hi, a.hi) + 1):
        total += float(np.linalg.norm(a.coeffs[k - a.lo]) ** 2)
    return total


# -- pointwise sample algebra ----------------------------------------------


def samples_mul(a: CircleSamples, b: CircleSamples) -> CircleSamples:
    if (a.n, a.M, a.radius) != (b.n, b.M, b.radius):
        raise ValueError("incompatible sample grids")
    return CircleSamples(a.n, a.M, a.values @ b.values, a.radius)


def invert_symbol(x: CircleSamples) -> CircleSamples:
    """Pointwise matrix inverse; rejects nearly singular sample points."""
    conds = np.linalg.cond(x.values)
    worst = float(np.max(conds))
    if not np.isfinite(worst) or worst > COND_LIMIT:
        j = int(np.argmax(np.where(np.isfinite(conds), conds, np.inf)))
        raise NearSingularSymbol(
            f"condition number {worst:.3g} at sample {j} exceeds {COND_LIMIT:g}"
        )
    return CircleSamples(x.n, x.M, np.linalg.inv(x.values), x.radius)


def lm_invert(
    a: LaurentMatrix,
    band: tuple[int, int] | None = None,
    tail_tol: float = 1e-13,
    max_half_width: int = 1 << 12,
) -> LaurentMatrix:
    """Banded coefficients of the pointwise inverse of a banded symbol.

    The band grows (doubling) until the discarded tail of the inverse is
    below tail_tol of its total energy; a fixed band can be forced instead.
    """
    from .errors import TruncationError

    def fn(z):
        vals = _eval_horner(a, z)
        conds = np.linalg.cond(vals)
        worst = float(np.max(conds))
        if not np.isfinite(worst) or worst > COND_LIMIT:
            raise NearSingularSymbol(
                f"condition number {worst:.3g} on the circle exceeds {COND_LIMIT:g}"
            )
        return np.linalg.inv(vals)

    if band is not None:
        return transform_adaptive(fn, a.n, band, tail_tol=tail_tol)
    half = max(8, a.width)
    while True:
        band_try = (-half, half)
        M = max(512, next_pow2(4 * half))
        x = sample_function(fn, a.n, M)
        if transform_tail(x, band_try) < tail_tol:
            return lm_trim(transform(x, band_try), 1e-16)
        if half >= max_half_width:
            raise TruncationError(
                f"inverse symbol does not fit a band of half-width {half}"
            )
        half *= 2


# -- admissibility and geometric mean ---------------------------------------


@dataclass
class AdmissibilityReport:
    norm_inf: float
    norm_2half: float
    winding: int


def _continuous_log_det(x: CircleSamples) -> tuple[np.ndarray, int]:
    """Continuous branch of log det along the grid and the winding number.

    Raises WindingUndefined when det nearly vanishes and BranchError when the
    sampled argument jumps too fast to be unwrapped confidently.
    """
    dets = np.linalg.det(x.values)
    mags = np.abs(dets)
    floor = DET_FLOOR * float(np.max(mags, initial=0.0))
    if np.any(mags <= floor) or np.max(mags, initial=0.0) == 0.0:
        j = int(np.argmin(mags))
        raise WindingUndefined(
            f"det of the symbol is ~0 at sample {j} (|det|={mags[j]:.3g})"
        )
    args = np.angle(dets)
    steps = np.diff(np.concatenate([args, args[:1]]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    if np.max(np.abs(steps)) > UNWRAP_JUMP:
        raise BranchError(
            "argument of det jumps by more than pi/2 between neighbour "
            f"samples (max {np.max(np.abs(steps)):.3f} rad at M={x.M}); "
            "refine the grid"
        )
    unwrapped = args[0] + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    winding = int(np.rint(np.sum(steps) / (2 * np.pi)))
    return np.log(mags) + 1j * unwrapped, winding


def winding_number(x: CircleSamples) -> int:
    """Winding of det(symbol) around 0 along the sample circle."""
    _, w = _continuous_log_det(x)
    return w


def admissibility(
    lm: LaurentMatrix, M: int | None = None, max_M: int = 1 << 16
) -> AdmissibilityReport:
    """Sup-norm, Besov-type half-norm and winding number of a banded symbol.

    norm_2half = sum_k sqrt(|k|) * ||g^(k)||_HS, the quantity whose
    finiteness (together with winding zero) the limit theorems assume.
    """
    if M is None:
        M = max(512, next_pow2(2 * lm.width))
    norms = np.linalg.norm(lm.coeffs, axis=(1, 2))
    ks = np.arange(lm.lo, lm.hi + 1)
    norm_2half = float(np.sum(np.sqrt(np.abs(ks)) * norms))
    while True:
        x = inverse_transform(lm, M)
        norm_inf = float(np.max(np.linalg.svd(x.values, compute_uv=False)[:, 0]))
        try:
            winding = winding_number(x)
            break
        except BranchError:
            if M >= max_M:
                raise
            M *= 2
    return AdmissibilityReport(norm_inf=norm_inf, norm_2half=norm_2half, winding=winding)


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
        z = np.asarray(z, dtype=complex)
        ks = np.arange(self.lo, self.hi + 1)
        return np.tensordot(self.coeffs, z[None, ...] ** ks.reshape((-1,) + (1,) * z.ndim), axes=(0, 0))


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


# -- CSV round trip ---------------------------------------------------------

CSV_HEADER = "k,row,col,re,im"


def write_csv(lm: LaurentMatrix, path) -> None:
    """Dump nonzero coefficients as rows (k, row, col, re, im)."""
    lines = [CSV_HEADER]
    for k in range(lm.lo, lm.hi + 1):
        blk = lm.coeffs[k - lm.lo]
        for r in range(lm.n):
            for c in range(lm.n):
                v = blk[r, c]
                if v == 0.0:
                    continue
                lines.append(f"{k},{r},{c},{v.real:.17g},{v.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path, n: int | None = None) -> LaurentMatrix:
    """Rebuild a LaurentMatrix from a CSV produced by write_csv."""
    entries = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, r, c, re, im = line.split(",")
            entries.append((int(k), int(r), int(c), float(re), float(im)))
    if not entries:
        raise ValueError("empty coefficient file")
    if n is None:
        n = max(max(r, c) for _, r, c, _, _ in entries) + 1
    lo = min(e[0] for e in entries)
    hi = max(e[0] for e in entries)
    coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for k, r, c, re, im in entries:
        coeffs[k - lo, r, c] = re + 1j * im
    return LaurentMatrix(n, lo, hi, coeffs)
