"""Matrix symbols of the hierarchies and their time deformations.

A symbol family is described by a SymbolSpec:

- 'rational': n x n diagonal base symbol diag(1 - c_i^2/z) built from n
  distinct parameters c_i inside the unit disk;
- 'covering': n x n diagonal base symbol built from the n-sheeted plane
  curve (spectral parameter)^n = prod_j (z - a_j) with n*k+1 distinct roots
  a_j inside the unit disk, via w_i(z) = (P(z)/z)^((i-1)/n) / prod_{j<=(i-1)k}(z-a_j).

Both are W = diag(w_i), w_i(z) = prod_j (1 - b_j/z)^E_ij: rational b = c^2,
E = I; covering b = a, E_ij = i/n - [j < ik] (i, j from 0).  The modes of W
and W^-1 (exponents -E) are products of binomial series in 1/z, built with
no circle samples by one builder under one rule: each is cut past its last
mode above INVERSE_CUT times its Wiener norm.  A rational W is a polynomial
in 1/z and is exact; base_symbol_values is the separate pointwise route.

The deformation multiplies the base symbol on the left by exp(xi(t, L))
where L is the n x n companion-type shift matrix with L^n = z*I and
xi(t, L) = sum_m t_m L^m.  Deformed symbols exist in three versions:
pointwise values, banded Fourier coefficients, and banded coefficients
over the truncated graded ring (entries polynomial in the times).  W and
W^-1 are built once per spec.  Pointwise, exp(xi(t, L(z))) is a closed
form over the n roots of z (one inverse DFT, no solve), and the diagonal
W(z) scales its columns.

Interleaving components identifies C^n-valued series in z with scalar
series in a root zeta of z (zeta^n = z): component a of the z^k coefficient
is the zeta^(nk+a) coefficient.  fold writes the block action of a
zeta-series (fold_scalar trims it to a banded symbol: L^k is the fold of
zeta^k); the reverse reading, a column of W as one zeta-series, is W's
coefficient array reshaped in place (tau.generator_modes), which gives the
scalar generators of the Wronskian and character routes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateInput, SpecError, TruncationError
from .gradedpoly import schur_sequence
from .laurent import LaurentMatrix, gather_modes, lm_mul, lm_trim, power_sum

EXP_TAIL_TOL = 1e-14     # exp(xi) series must have decayed to this at the band edge
INVERSE_CUT = 1e-16      # modes of W^+-1 at most this times its Wiener norm are cut
_TINY = float(np.finfo(float).tiny)  # the least normal double


@dataclass
class TimeVector:
    """Deformation times t_1..t_K; gd_reduced freezes t_i = 0 for n | i."""

    values: tuple
    gd_reduced: bool = True

    def __post_init__(self) -> None:
        self.values = tuple(complex(v) for v in self.values)

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


@dataclass(frozen=True)
class SymbolSpec:
    """Description of a symbol family member; frozen, so it keys the base caches."""

    family: str               # 'rational' | 'covering'
    n: int
    params: tuple = ()
    k: int = 0                # covering replication count, len(params) = n*k+1
    rho: float = 0.0          # modulus of the outermost singularity inside S^1


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


def base_diagonal(spec: SymbolSpec, z) -> np.ndarray:
    """Diagonal of the undeformed symbol W(z) on an array of z; shape z.shape + (n,)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if spec.family == "rational":
        return 1.0 - np.array(spec.params) ** 2 / z[..., None]
    if spec.family == "covering":
        # w_i = prod_j (1 - a_j/z)^((i-1)/n) / prod_{j <= (i-1)k} (1 - a_j/z),
        # all branches principal: each factor stays in Re > 0 for |z| > |a_j|.
        logs = np.log1p(-np.array(spec.params) / z[..., None])  # shape z-shape + (nk+1,)
        total = np.sum(logs, axis=-1)
        out = np.empty(z.shape + (spec.n,), dtype=complex)
        for i in range(spec.n):
            head = np.sum(logs[..., : i * spec.k], axis=-1)
            out[..., i] = np.exp((i / spec.n) * total - head)
        return out
    raise SpecError(f"unknown family {spec.family!r}")


def base_symbol_values(spec: SymbolSpec, z) -> np.ndarray:
    """Pointwise values of the undeformed symbol on an array of z."""
    d = base_diagonal(spec, z)
    out = np.zeros(d.shape + (spec.n,), dtype=complex)
    out[..., np.arange(spec.n), np.arange(spec.n)] = d
    return out


@lru_cache
def _base_exponents(family: str, n: int, k: int, sign: int) -> tuple:
    """Factors (1 - b_j/z)^e of row i, e = sign E_ij != 0: the polynomials
    (integer e >= 0) as (i, j, e) triples, the series as the arrays (i, j,
    e[:, None]), and s = max_i sum_j |E_ij|."""
    if family == "rational":
        E = np.eye(n)
    elif family == "covering":
        i, j = np.arange(n)[:, None], np.arange(n * k + 1)
        E = i / n - (j < i * k)
    else:
        raise SpecError(f"unknown family {family!r}")
    rows, cols = np.nonzero(E)
    e = sign * E[rows, cols]
    poly = (e >= 0) & (e % 1 == 0)
    polys = tuple(zip(rows[poly].tolist(), cols[poly].tolist(), e[poly].astype(int).tolist()))
    series = (rows[~poly], cols[~poly], e[~poly, None])
    return polys, series, float(np.abs(E).sum(axis=1).max())


def _base_power(spec: SymbolSpec, sign: int) -> LaurentMatrix:
    """W^sign, cut past its last mode of norm above INVERSE_CUT ||W^sign||_W.

    Entry i is prod_j (1 - b_j/z)^e_j with e = sign E_i.  The z^-m
    coefficient of a factor is binom(e, m) (-b)^m: one cumprod of the
    ratios (m - 1 - e) b / m.  These series multiply by truncated
    convolution, in np.clongdouble rounded once (as schur_numeric); a
    factor of integer e >= 0 is a polynomial, applied last as e exact
    steps d_m -= b d_(m-1).  Unless every factor is a polynomial, the
    modes stop at the first m past the peak of mu_m = binom(s + m - 1, m)
    rho^m (rho = max_j |b_j|) with mu_m < INVERSE_CUT; as |binom(e, m)| <=
    binom(|e| + m - 1, m), mu bounds every entry past the stop, so each
    mode there lies below the cut.  The cut is relative to the Wiener norm
    ||W^sign||_W = sum_k ||W^sign_k||, which bounds the largest value of
    W^sign on the circle.
    """
    polys, (rows, cols, e), s = _base_exponents(spec.family, spec.n, spec.k, sign)
    b = [c * c for c in spec.params] if spec.family == "rational" else spec.params
    rho, mu, D = max(map(abs, b)), 1.0, 0
    if not len(e):
        D = int(s)
    else:
        while not (mu < INVERSE_CUT and (s + D) * rho < D + 1):
            D += 1
            mu *= (s + D - 1) / D * rho
            if D > 1 << 12:
                raise TruncationError(
                    f"base series does not fall below {INVERSE_CUT:g} in {D} modes"
                )
    d = np.zeros((D + 1, spec.n), dtype=complex)
    d[0] = 1.0
    if len(e):
        m = np.arange(1, D + 1, dtype=np.longdouble)
        terms = np.cumprod((m - 1 - e) / m * np.array(b)[cols, None], axis=1)
        acc = [np.ones(1, dtype=np.clongdouble)] * spec.n
        for i, f in zip(rows, terms):
            acc[i] = np.convolve(acc[i], np.concatenate([[1.0], f]))[: D + 1]
        for i, a in enumerate(acc):
            d[: len(a), i] = a
    for i, j, ei in polys:
        for _ in range(ei):
            d[1:, i] -= b[j] * d[:-1, i]
    norms = np.linalg.norm(d, axis=1)
    w = LaurentMatrix(spec.n, -D, 0, d[::-1, :, None] * np.eye(spec.n))
    return lm_trim(w, INVERSE_CUT * norms.sum() / norms.max())


@lru_cache
def base_symbol(spec: SymbolSpec) -> LaurentMatrix:
    """Fourier coefficients of W = diag(prod_j (1 - b_j/z)^E_ij) (cached, shared)."""
    return _base_power(spec, 1)


@lru_cache
def base_inverse(spec: SymbolSpec) -> LaurentMatrix:
    """Fourier coefficients of W^-1, the same products with -E (cached, shared)."""
    return _base_power(spec, -1)


# -- shift matrix and its exponential ----------------------------------------


def fold(s: np.ndarray, lo: int, n: int, band: tuple[int, int]) -> np.ndarray:
    """Fold a zeta-series into n x n blocks over z = zeta^n, on the band of z-modes.

    s holds the zeta-modes lo, lo+1, ... along its first axis (any trailing
    shape).  Entry (i, j) of z-mode q is s_{nq+i-j}: the block action of
    multiplication by the series, since zeta acts as the shift L.  The
    result has shape (width, n, n) + s.shape[1:].
    """
    qs = np.arange(band[0], band[1] + 1)
    ij = np.arange(n)
    return gather_modes(s, lo, n * qs[:, None, None] + ij[:, None] - ij)


def fold_scalar(coeffs: np.ndarray, lo: int, n: int) -> LaurentMatrix:
    """The block action (fold) of a scalar zeta-series as a banded symbol, trimmed.

    coeffs holds the zeta-modes lo, lo+1, ...; the band is every z-mode the
    fold can reach.
    """
    band = ((lo - n + 1) // n, (lo + len(coeffs) + n - 2) // n)
    return lm_trim(LaurentMatrix(n, *band, fold(coeffs, lo, n, band)))


def lambda_power(n: int, k: int) -> LaurentMatrix:
    """L^k as a banded symbol; L^n = z * I extends to negative k as well.

    L = L^1 is the n x n shift symbol: subdiagonal ones, top-right corner z.
    L^k is the fold of zeta^k: entry (i, j) equals z^q when nq + i - j = k.
    """
    return fold_scalar(np.ones(1), k, n)


def _one_phase(t: np.ndarray) -> bool:
    """Whether t_i = |t_i| w^i for one unit w (true for all-zero times).

    Then every term of p_k has the phase w^k and nothing cancels.
    """
    nz = [(i, v) for i, v in enumerate(t.tolist(), start=1) if v]
    if not nz:
        return True
    j, tj = nz[0]
    for m in range(j):
        w = cmath.exp(1j * (cmath.phase(tj) + 2 * math.pi * m) / j)
        if all(abs(v - abs(v) * w**i) <= 1e-13 * abs(v) for i, v in nz):
            return True
    return False


def schur_numeric(tvals, kmax: int) -> np.ndarray:
    """Numeric values p_0..p_kmax of the Schur sequence at given times, as complex.

    p_k is the zeta^k coefficient of prod_i exp(t_i zeta^i).  The series of
    each factor, t_i^m / m! at index i*m, is one cumprod cut at its last
    entry that is a normal double (np.finfo(float).tiny): the subnormal
    ones past it cost several times a normal multiply in the convolutions
    and move no value above the double range's floor.  The first
    nonzero time's factor is written into p in place; each later one enters
    by one truncated convolution, O(kmax * factor length); zero times are
    skipped.  Real times run in real arithmetic, complex ones in complex.
    Times of mixed sign or phase make p_k a sum of terms far larger than
    itself; those run in the platform's extended precision (np.longdouble
    or np.clongdouble, 64-bit mantissa on x86, several times slower), and
    p is rounded to complex once at the end.
    """
    return _schur_values(tvals, kmax, _TINY)


def _schur_values(tvals, kmax: int, floor: float) -> np.ndarray:
    """schur_numeric with each factor's series cut at its last entry >= floor."""
    t = np.asarray(tvals, dtype=complex)[:kmax]
    real = not t.imag.any()
    if real:
        t = t.real
    short = float if real else complex
    dtype = short if _one_phase(t) else (np.longdouble if real else np.clongdouble)
    p = np.zeros(kmax + 1, dtype=dtype)
    p[0] = 1.0
    first = True
    for i, ti in enumerate(t.astype(dtype, copy=False), start=1):
        if ti == 0:
            continue
        c = np.cumprod(np.concatenate([[1.0], ti / np.arange(1, kmax // i + 1)]))
        c = c[: np.count_nonzero(np.abs(c.astype(short, copy=False)) >= floor)]
        if first:  # p is 1, 0, 0, ...: the product is the factor itself
            p[: i * len(c) : i] = c
            first = False
            continue
        factor = np.zeros(i * (len(c) - 1) + 1, dtype=dtype)
        factor[::i] = c
        p = np.convolve(p, factor)[: kmax + 1]
    return p.astype(complex)


def exp_xi_lambda(t: TimeVector, n: int, band: tuple[int, int]) -> LaurentMatrix:
    """The in-band projection of exp(xi(t, L)) = sum_k p_k(t) L^k.

    Every in-band Fourier mode is exact: the band is the fold of the Schur
    values p_0..p_kmax, one value per entry.  The modes past the band are
    dropped unchecked; a caller that needs the band to hold the whole
    function checks the tail itself (gd_symbol's exact_only=False).  A
    band with mode 0 holds p_0 = 1, far above what schur_numeric's cut at
    the least normal double drops; a band above mode 0 may hold nothing
    larger than that (a time of 5e-324 has mode 1 = 5e-324 at n = 1), so
    it reads the series uncut.
    """
    lo, hi = band
    if hi < 0:
        raise ValueError("exp(xi) has no negative modes; need hi >= 0")
    p = _schur_values(t.effective(n), n * hi + n - 1, _TINY if lo <= 0 else 0.0)
    return LaurentMatrix(n, lo, hi, fold(p, 0, n, band))


def _check_schur_tail(p: np.ndarray, k0: int) -> None:
    """TruncationError unless the Schur values p_k0, p_k0+1, ... of p are
    below EXP_TAIL_TOL of max(1, max_k |p_k|)."""
    scale = max(1.0, float(np.max(np.abs(p))))
    edge = float(np.max(np.abs(p[k0:]), initial=0.0))
    if edge >= EXP_TAIL_TOL * scale:
        raise TruncationError(f"Schur values from p_{k0} reach {edge:.3g} (band too small)")


def root_grid(z: np.ndarray, n: int) -> np.ndarray:
    """The n-th roots of each z: shape z.shape + (n,), principal root first."""
    z = np.asarray(z, dtype=complex)
    zeta1 = z ** (1.0 / n)
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    return zeta1[..., None] * omega


def exp_xi_values(t: TimeVector, n: int, z) -> np.ndarray:
    """Pointwise exp(xi(t, L(z))) in closed form over the roots of z.

    The rows of the Vandermonde V(zeta_i) = zeta_i^a are left eigenvectors
    of L(z) with eigenvalues zeta_i, so exp(xi(t,L)) = V^-1 diag(e^xi) V.
    With zeta_i = zeta_1 w^i (w = e^(2 pi i/n)), V = F diag(zeta_1^a) for
    the n-point DFT matrix F, and V^-1 = diag(zeta_1^-a) conj(F) / n.  So
    entry (a, b) is zeta_1^(b-a) c_((b-a) mod n), c the inverse DFT of
    e^xi(zeta_i) over the n roots: no solve.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zeta = root_grid(z, n)                      # ( ..., n)
    xi = power_sum(t.effective(n), 1, zeta)     # sum_k t_k zeta_i^k
    c = np.fft.ifft(np.exp(xi), axis=-1)
    # zeta_1^d for d = -(n-1) .. n-1 at index n-1+d, by repeated products
    pw = np.ones(z.shape + (2 * n - 1,), dtype=complex)
    for k in range(1, n):
        pw[..., n - 1 + k] = pw[..., n - 2 + k] * zeta[..., 0]
        pw[..., n - 1 - k] = pw[..., n - k] / zeta[..., 0]
    d = np.arange(n) - np.arange(n)[:, None]    # b - a
    return pw[..., n - 1 + d] * c[..., d % n]


# -- deformed symbol ---------------------------------------------------------


def gd_symbol(
    spec: SymbolSpec, t: TimeVector, band: tuple[int, int], exact_only: bool = False
) -> LaurentMatrix:
    """Fourier coefficients of exp(xi(t,L)) * base symbol on the band.

    In-band coefficients are exact (the exponential factor is carried on
    the wider band (0, band[1] - W.lo) it needs).  The modes of the product
    past band[1] are dropped; they are fed by the modes of exp(xi(t, L))
    past band[1], i.e. by its Schur values p_k, k > n band[1].  With
    exact_only=False those must be below EXP_TAIL_TOL, else
    TruncationError, so that the band holds the deformed symbol.
    """
    w = base_symbol(spec)
    e = exp_xi_lambda(t, spec.n, (0, band[1] - w.lo))
    if not exact_only:
        _check_schur_tail(e.coeffs[:, :, 0].ravel(), spec.n * band[1] + 1)
    return lm_mul(e, w, band)


def gd_symbol_values(spec: SymbolSpec, t: TimeVector, z) -> np.ndarray:
    """Pointwise values of the deformed symbol.

    W(z) is diagonal for both families, so exp(xi) W scales the columns of
    exp(xi) by the diagonal of W.
    """
    return exp_xi_values(t, spec.n, z) * base_diagonal(spec, z)[..., None, :]


@lru_cache
def exp_xi_graded(n: int, Q: int) -> np.ndarray:
    """exp(xi(t, L)) over the graded ring.

    Returns the coefficient array of shape (ceil(Q/n) + 1, n, n, basis) of
    the z-modes 0..ceil(Q/n): the fold of the Schur layers p_0..p_Q, whose
    higher layers vanish in the truncated ring.  Cached per arguments; the
    array is read-only.
    """
    out = fold(np.stack([p.coeffs for p in schur_sequence(Q, Q)]), 0, n, (0, -(-Q // n)))
    out.flags.writeable = False
    return out


def gd_symbol_graded(spec: SymbolSpec, band: tuple[int, int], Q: int) -> np.ndarray:
    """Deformed symbol with entries kept as polynomials in the times t_1..t_Q.

    Returns the coefficient array of shape (width, n, n, basis) on the band:
    entry [q, i, j] is the coefficient vector, over the (Q, Q) monomial
    basis, of entry (i, j) of the z^q mode, sum_m e_m W_(q-m) with e =
    exp_xi_graded.  Exact within the grading: e has no modes past
    ceil(Q/n), so no band-edge tail exists, and the Schur layers in e are
    disjoint in weight, so each coefficient is a single product.
    """
    e = exp_xi_graded(spec.n, Q)
    w = base_symbol(spec)
    ks = np.arange(band[0], band[1] + 1)
    w_sec = gather_modes(w.coeffs, w.lo, ks - np.arange(len(e))[:, None])  # W_(q-m)
    return np.einsum("mics,mqcj->qijs", e, w_sec, optimize=True)


# -- structural check of the undeformed symbol --------------------------------


def big_cell_check(w: LaurentMatrix) -> bool:
    """Whether the normalization that places the symbol in the big cell holds.

    Requires: no modes with k > 0 anywhere; the z^0 block unit lower
    triangular (ones on the diagonal, zeros strictly above); each to 1e-12
    of the largest entry (at least 1).  A NaN anywhere breaks them.
    """
    bound = 1e-12 * max(1.0, float(np.max(np.abs(w.coeffs))))
    z0 = w.block(0)
    return bool(
        np.all(np.abs(w.coeffs[max(1 - w.lo, 0) :]) <= bound)
        and np.all(np.abs(np.diagonal(z0) - 1.0) <= bound)
        and np.all(np.abs(np.triu(z0, 1)) <= bound)
    )
