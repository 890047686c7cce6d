"""Matrix symbols of the hierarchies and their time deformations.

A symbol family is described by a SymbolSpec:

- 'rational': n x n diagonal base symbol diag(1 - c_i^2/z) built from n
  distinct parameters c_i inside the unit disk;
- 'covering': n x n diagonal base symbol built from the n-sheeted plane
  curve (spectral parameter)^n = prod_j (z - a_j) with n*k+1 distinct roots
  a_j inside the unit disk, via w_i(z) = (P(z)/z)^((i-1)/n) / prod_{j<=(i-1)k}(z-a_j).

The deformation multiplies the base symbol on the left by exp(xi(t, L))
where L is the n x n companion-type shift matrix with L^n = z*I and
xi(t, L) = sum_m t_m L^m.  Deformed symbols exist in three versions:
pointwise values, banded Fourier coefficients, and banded coefficients
over the truncated graded ring (entries polynomial in the times).

The flattening map identifies C^n-valued series in z with scalar series in
a root zeta of z (zeta^n = z) by interleaving components; together with its
inverse it converts symbol columns into the scalar generators used by the
Wronskian and character routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, SpecError, TruncationError
from .gradedpoly import (
    GradedPoly,
    gp_zero,
    schur_sequence,
    schur_sequence_reduced,
)
from .laurent import (
    LaurentMatrix,
    ScalarSeries,
    VectorSeries,
    lm_mul,
    lm_trim,
    sample_function,
    transform,
    transform_tail,
)

EXP_TAIL_TOL = 1e-14     # exp(xi) series must have decayed to this at the band edge
BASE_DECAY_TOL = 1e-17   # base-symbol coefficients kept down to this level


@dataclass
class TimeVector:
    """Deformation times t_1..t_K; gd_reduced freezes t_i = 0 for n | i."""

    values: tuple
    gd_reduced: bool = True

    def __post_init__(self) -> None:
        self.values = tuple(complex(v) for v in self.values)

    @property
    def K(self) -> int:
        return len(self.values)

    def effective(self, n: int) -> np.ndarray:
        """Times actually applied to a block size n symbol."""
        t = np.array(self.values, dtype=complex)
        if self.gd_reduced:
            idx = np.arange(1, len(t) + 1)
            t[idx % n == 0] = 0.0
        return t

    def negated(self) -> TimeVector:
        """The reversed flow: every time with its sign flipped."""
        return TimeVector(tuple(-v for v in self.values), self.gd_reduced)


def time_vector(values, gd_reduced: bool = True) -> TimeVector:
    return TimeVector(tuple(values), gd_reduced)


def random_times(spec: SymbolSpec, rng: np.random.Generator, scale: float) -> TimeVector:
    """Reduced times t_1..t_(2n+1) drawn uniformly from [-scale, scale], t_i = 0 for n | i."""
    vals = scale * (2.0 * rng.random(2 * spec.n + 1) - 1.0)
    vals[np.arange(1, len(vals) + 1) % spec.n == 0] = 0.0
    return time_vector(vals, True)


@dataclass
class SymbolSpec:
    """Description of a symbol family member."""

    family: str               # 'rational' | 'covering'
    n: int
    params: tuple = ()
    k: int = 0                # covering replication count, len(params) = n*k+1
    rho: float = 0.0          # modulus of the outermost singularity inside S^1

    def default_times(self, gd_reduced: bool = True) -> int:
        """Default number of deformation times."""
        return 2 * self.n + 1


def rational_spec(c) -> SymbolSpec:
    """Diagonal rational base symbol diag(1 - c_i^2 / z)."""
    cs = tuple(complex(v) for v in c)
    if not cs:
        raise DegenerateInput("need at least one parameter")
    for i, v in enumerate(cs):
        if abs(v) == 0.0 or abs(v) >= 1.0:
            raise DegenerateInput(f"parameter {i} has modulus {abs(v):.3g}, need (0,1)")
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if abs(cs[i] - cs[j]) < 1e-12:
                raise DegenerateInput(f"parameters {i} and {j} coincide")
    rho = max(abs(v) ** 2 for v in cs)
    return SymbolSpec(family="rational", n=len(cs), params=cs, rho=rho)


def covering_spec(a, n: int) -> SymbolSpec:
    """Diagonal base symbol of the n-sheeted covering with branch roots a."""
    roots = tuple(complex(v) for v in a)
    if n < 2:
        raise SpecError("covering needs block size n >= 2")
    if len(roots) % n != 1 or len(roots) < n + 1:
        raise SpecError(
            f"need n*k+1 roots for some k >= 1, got {len(roots)} with n={n}"
        )
    k = (len(roots) - 1) // n
    for i, v in enumerate(roots):
        if abs(v) == 0.0 or abs(v) >= 1.0:
            raise DegenerateInput(f"root {i} has modulus {abs(v):.3g}, need (0,1)")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < 1e-12:
                raise DegenerateInput(f"roots {i} and {j} coincide")
    rho = max(abs(v) for v in roots)
    return SymbolSpec(family="covering", n=n, params=roots, k=k, rho=rho)


# -- base symbol -------------------------------------------------------------


def base_symbol_values(spec: SymbolSpec, z) -> np.ndarray:
    """Pointwise values of the undeformed symbol on an array of z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    n = spec.n
    out = np.zeros(z.shape + (n, n), dtype=complex)
    if spec.family == "rational":
        for i, c in enumerate(spec.params):
            out[..., i, i] = 1.0 - c**2 / z
        return out
    if spec.family == "covering":
        roots = np.array(spec.params)
        # w_i = prod_j (1 - a_j/z)^((i-1)/n) / prod_{j <= (i-1)k} (1 - a_j/z),
        # all branches principal: each factor stays in Re > 0 for |z| > |a_j|.
        logs = np.log1p(-roots / z[..., None])  # shape z-shape + (nk+1,)
        total = np.sum(logs, axis=-1)
        for i in range(n):
            head = np.sum(logs[..., : i * spec.k], axis=-1)
            out[..., i, i] = np.exp((i / n) * total - head)
        return out
    raise SpecError(f"unknown family {spec.family!r}")


def base_band(spec: SymbolSpec) -> tuple[int, int]:
    """Band that holds the base symbol's coefficients to BASE_DECAY_TOL."""
    if spec.family == "rational":
        return (-1, 0)
    # covering: coefficients decay like rho^{|k|}
    depth = int(np.ceil(np.log(BASE_DECAY_TOL) / np.log(spec.rho))) + 8
    return (-depth, 0)


def base_symbol(spec: SymbolSpec, band: tuple[int, int] | None = None) -> LaurentMatrix:
    """Banded Fourier coefficients of the undeformed symbol."""
    if band is None:
        band = base_band(spec)
    if spec.family == "rational":
        n = spec.n
        lo, hi = band
        coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
        if lo <= 0 <= hi:
            coeffs[0 - lo] = np.eye(n)
        if lo <= -1 <= hi:
            for i, c in enumerate(spec.params):
                coeffs[-1 - lo, i, i] = -(c**2)
        return LaurentMatrix(n, lo, hi, coeffs)
    M = 1 << 10
    while True:
        x = sample_function(lambda zz: base_symbol_values(spec, zz), spec.n, M)
        if transform_tail(x, band) < 1e-13 or M >= (1 << 16):
            return transform(x, band)
        M *= 2


# -- shift matrix and its exponential ----------------------------------------


def lambda_matrix(n: int) -> LaurentMatrix:
    """The n x n shift symbol L: subdiagonal ones, top-right corner z."""
    return lambda_power(n, 1)


def lambda_power(n: int, k: int) -> LaurentMatrix:
    """L^k as a banded symbol; L^n = z * I extends to negative k as well.

    Entry (i, j) equals z^q when q = (k + j - i)/n is an integer, else 0.
    """
    qs = [
        (k + j - i) // n
        for i in range(n)
        for j in range(n)
        if (k + j - i) % n == 0
    ]
    lo, hi = min(qs), max(qs)
    coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if (k + j - i) % n == 0:
                coeffs[(k + j - i) // n - lo, i, j] = 1.0
    return LaurentMatrix(n, lo, hi, coeffs)


def schur_numeric(tvals, kmax: int) -> np.ndarray:
    """Numeric values p_0..p_kmax of the Schur sequence at given times."""
    t = np.asarray(tvals, dtype=complex)
    p = np.zeros(kmax + 1, dtype=complex)
    p[0] = 1.0
    for k in range(1, kmax + 1):
        acc = 0.0 + 0.0j
        for i in range(1, min(k, len(t)) + 1):
            acc += i * t[i - 1] * p[k - i]
        p[k] = acc / k
    return p


def exp_xi_lambda(
    t: TimeVector, n: int, band: tuple[int, int], exact_only: bool = False
) -> LaurentMatrix:
    """exp(xi(t, L)) = sum_k p_k(t) L^k as a banded symbol.

    Every in-band Fourier mode is exact: entry (i,j) of mode q receives the
    single Schur value p_{nq+i-j}.  By default the band must also hold the
    whole function, i.e. the Schur values at the band edge must have decayed
    below EXP_TAIL_TOL, so that the banded object can stand in for the
    symbol globally (sampling, factorization, limit theorems).  Pass
    exact_only=True to skip that guard when only the in-band projection is
    needed (finite Toeplitz truncations read a fixed window of modes).
    """
    lo, hi = band
    if hi < 0:
        raise ValueError("exp(xi) has no negative modes; need hi >= 0")
    kmax = n * hi + n - 1
    p = schur_numeric(t.effective(n), kmax)
    if not exact_only:
        scale = max(1.0, float(np.max(np.abs(p))))
        edge = float(np.max(np.abs(p[n * hi : kmax + 1])))
        if edge >= EXP_TAIL_TOL * scale:
            raise TruncationError(
                f"Schur values at the band edge are {edge:.3g} (band hi={hi} too small)"
            )
    # entry (i, j) of mode q is p_{nq+i-j}: a 1x1-block matrix over rows (q, i)
    qs = np.arange(lo, hi + 1)
    ij = np.arange(n)
    modes = (n * qs[:, None] + ij).reshape(-1, 1) - ij[None, :]
    schur = LaurentMatrix(1, 0, kmax, p[:, None, None])
    coeffs = schur.block_matrix(modes).reshape(hi - lo + 1, n, n)
    return LaurentMatrix(n, lo, hi, coeffs)


def root_grid(z: np.ndarray, n: int) -> np.ndarray:
    """The n-th roots of each z: shape z.shape + (n,), principal root first."""
    z = np.asarray(z, dtype=complex)
    zeta1 = z ** (1.0 / n)
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    return zeta1[..., None] * omega


def exp_xi_values(t: TimeVector, n: int, z) -> np.ndarray:
    """Pointwise exp(xi(t, L(z))) by diagonalizing L over the roots of z.

    The rows of the Vandermonde V(zeta_i) = zeta_i^a are left eigenvectors
    of L(z) with eigenvalues zeta_i, so exp(xi(t,L)) = V^-1 diag(e^xi) V.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zeta = root_grid(z, n)                      # ( ..., n)
    V = zeta[..., :, None] ** np.arange(n)      # ( ..., n, n): V[i,a] = zeta_i^a
    teff = t.effective(n)
    ks = np.arange(1, len(teff) + 1)
    xi = np.tensordot(zeta[..., None] ** ks, teff, axes=(-1, 0))  # ( ..., n)
    return np.linalg.solve(V, np.exp(xi)[..., None] * V)


# -- deformed symbol ---------------------------------------------------------


def gd_symbol(
    spec: SymbolSpec, t: TimeVector, band: tuple[int, int], exact_only: bool = False
) -> LaurentMatrix:
    """Fourier coefficients of exp(xi(t,L)) * base symbol on the band.

    In-band coefficients are exact (the exponential factor is carried on
    the wider band it needs); with exact_only=False the band must also hold
    the deformed symbol globally, else TruncationError.
    """
    w = base_symbol(spec)
    exp_band = (0, band[1] - w.lo)
    e = exp_xi_lambda(t, spec.n, exp_band, exact_only=exact_only)
    return lm_mul(e, w, band)


def gd_symbol_values(spec: SymbolSpec, t: TimeVector, z) -> np.ndarray:
    """Pointwise values of the deformed symbol."""
    return exp_xi_values(t, spec.n, z) @ base_symbol_values(spec, z)


@dataclass
class GradedLaurentMatrix:
    """Banded series whose matrix entries are graded polynomials in the times."""

    n: int
    lo: int
    hi: int
    K: int
    Q: int
    entries: list  # entries[k-lo][i][j] is a GradedPoly

    def block(self, k: int) -> list:
        if self.lo <= k <= self.hi:
            return self.entries[k - self.lo]
        zero = gp_zero(self.K, self.Q)
        return [[zero for _ in range(self.n)] for _ in range(self.n)]


def gd_symbol_graded(
    spec: SymbolSpec,
    band: tuple[int, int],
    K: int | None = None,
    Q: int = 6,
    gd_reduced: bool = True,
) -> GradedLaurentMatrix:
    """Deformed symbol with entries kept as polynomials in the times.

    Exact within the grading: Schur polynomials p_k with k > Q vanish in the
    truncated ring, so the layer sum is finite and no band-edge tail exists.
    """
    n = spec.n
    if K is None:
        K = spec.default_times()
    ps = schur_sequence_reduced(K, Q, n) if gd_reduced else schur_sequence(K, Q)
    w = base_symbol(spec)
    lo, hi = band
    zero = gp_zero(K, Q)
    entries = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(hi - lo + 1)]
    for k in range(0, Q + 1):
        if not ps[k].coeffs:
            continue
        contrib = lm_mul(lambda_power(n, k), w, band)
        for m in range(lo, hi + 1):
            blk = contrib.block(m)
            for i in range(n):
                for j in range(n):
                    c = blk[i, j]
                    if abs(c) > 1e-300:
                        entries[m - lo][i][j] = entries[m - lo][i][j] + ps[k] * c
    return GradedLaurentMatrix(n=n, lo=lo, hi=hi, K=K, Q=Q, entries=entries)


# -- flattening between C^n-valued and scalar series -------------------------


def xi_map(v: VectorSeries) -> ScalarSeries:
    """Interleave a C^n-valued series in z into a scalar series in zeta.

    Component a of the z^k coefficient becomes the zeta^(n*k+a) coefficient.
    """
    n = v.n
    lo = n * v.lo
    hi = n * v.hi + n - 1
    out = np.zeros(hi - lo + 1, dtype=complex)
    for k in range(v.lo, v.hi + 1):
        row = v.coeffs[k - v.lo]
        out[n * k - lo : n * k - lo + n] = row
    return ScalarSeries(lo, out)


def xi_inverse(s: ScalarSeries, n: int) -> VectorSeries:
    """Undo xi_map: scalar zeta-series back to a C^n-valued z-series."""
    klo = s.lo // n   # floor division handles negative lows correctly
    khi = s.hi // n
    out = np.zeros((khi - klo + 1, n), dtype=complex)
    for m in range(s.lo, s.hi + 1):
        k, a = divmod(m, n)
        out[k - klo, a] = s.coeff(m)
    return VectorSeries(n, klo, out)


def column_series(spec: SymbolSpec, j: int, band: tuple[int, int] | None = None) -> ScalarSeries:
    """Scalar generator: flattened column j (0-based) of the base symbol."""
    from .laurent import lm_column

    w = base_symbol(spec, band)
    return xi_map(lm_column(lm_trim(w, 0.0), j))


# -- structural check of the undeformed symbol --------------------------------


@dataclass
class BigCellViolation:
    kind: str
    where: tuple
    magnitude: float


@dataclass
class BigCellReport:
    ok: bool
    violations: list = field(default_factory=list)


def big_cell_check(w: LaurentMatrix, tol: float = 1e-12) -> BigCellReport:
    """Check the normalization that places the symbol in the big cell.

    Requires: no modes with k > 0 anywhere; the z^0 block unit lower
    triangular (ones on the diagonal, zeros strictly above).
    """
    violations: list[BigCellViolation] = []
    scale = max(1.0, float(np.max(np.abs(w.coeffs))))
    for k in range(max(w.lo, 1), w.hi + 1):
        mag = float(np.max(np.abs(w.block(k))))
        if mag > tol * scale:
            violations.append(BigCellViolation("positive_mode", (k,), mag))
    z0 = w.block(0)
    for i in range(w.n):
        d = abs(z0[i, i] - 1.0)
        if d > tol * scale:
            violations.append(BigCellViolation("diagonal_not_one", (i, i), float(d)))
        for j in range(i + 1, w.n):
            m = abs(z0[i, j])
            if m > tol * scale:
                violations.append(BigCellViolation("upper_entry", (i, j), float(m)))
    return BigCellReport(ok=not violations, violations=violations)
