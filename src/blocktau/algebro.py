"""Spectral-curve calculus for block symbols.

A symbol whose columns fold scalar functions living on an n-sheeted algebraic
curve lambda^n + c_1(z) lambda^{n-1} + ... + c_n(z) = 0, z = zeta^n, admits a
commuting matrix polynomial: conjugating the folded multiplication by the
curve function lambda into the symbol frame gives C(z) = W(z)^{-1} B(z) W(z)
with no negative Fourier modes, zero trace, and characteristic polynomial
equal to the curve.  This module computes

- the expansion b(zeta) = zeta^m (1 + l_1/zeta + ...) of lambda at infinity
  (branch_series), solved term by term with a Newton iteration on truncated
  power series,
- the folded action B(z) = b(Lambda) and the conjugated C(z) with its
  polynomiality / trace / degree-pattern certificates (bc_matrices); W(z)
  is diagonal, so C_ij = B_ij w_j / w_i is read off W's diagonal,
- the inverse construction (reconstruct_W): given C alone, re-derive the
  curve from its characteristic polynomial, diagonalize C(z) pointwise with
  left eigenvectors matched to the branch values b(zeta_i) over the fiber
  zeta_i^n = z, and reassemble the symbol through the fiber Vandermonde,
  inverted by one DFT.

Conventions.  The fiber over z is ordered zeta_i = zeta_1 * exp(2*pi*i*(i-1)/n)
with zeta_1 the principal n-th root; every Vandermonde and eigenvector
assembly uses this ordering (symbols.root_grid).  The fiber Vandermonde
zeta_i^a is then the n-point DFT matrix times diag(zeta_1^a).  Folding a
scalar series s(zeta) into its n x n block action over z is symbols.fold
(symbols.fold_scalar as a trimmed symbol), and laurent.power_sum evaluates
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, gcd, log2

import numpy as np

from .errors import BranchError, BranchMatchError, SpecError
from .laurent import (
    CircleSamples,
    LaurentMatrix,
    grid_values,
    lm_trim,
    next_pow2,
    power_sum,
    stacked_mul,
    stacked_solve,
    transform,
)
from .symbols import (
    SymbolSpec,
    base_diagonal,
    base_symbol_values,
    big_cell_check,
    fold,
    fold_scalar,
    root_grid,
)

__all__ = [
    "CharPoly",
    "BranchSeries",
    "BCMatrices",
    "SpectralReport",
    "curve_from_covering",
    "charpoly_from_matrix",
    "branch_series",
    "branch_residual",
    "bc_matrices",
    "reconstruct_W",
    "spectral_check",
]


# -- truncated power series helpers -----------------------------------------


def _ser_mul(a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    """Product of two power series truncated to L coefficients."""
    return np.convolve(a, b)[:L]


def _ser_inv(a: np.ndarray, L: int) -> np.ndarray:
    """Reciprocal power series (a[0] != 0) truncated to L coefficients.

    Newton's step b <- b (2 - a b) doubles the number of exact coefficients
    (as in gradedpoly._inverse); each step runs at the length it makes exact.
    """
    if abs(a[0]) < 1e-300:
        raise BranchError("cannot invert a power series with vanishing constant term")
    pad = np.zeros(L, dtype=complex)
    pad[: min(L, len(a))] = a[: min(L, len(a))]
    b, k = np.array([1.0 / a[0]], dtype=complex), 1
    while k < L:
        k = min(2 * k, L)
        r = -_ser_mul(pad[:k], b, k)
        r[0] += 2.0
        b = _ser_mul(b, r, k)
    return b


def _charpoly_coeffs(A: np.ndarray) -> np.ndarray:
    """c_1..c_n of det(lambda I - A) for every matrix of an (M, n, n) stack.

    c_k is (-1)^k times the sum of the k x k principal minors of A.  The
    minors of one size are one stack, and their determinants one
    stacked_solve: no eigenvalues, no per-matrix LAPACK call.
    """
    M, n = A.shape[0], A.shape[-1]
    c = np.empty((M, n), dtype=complex)
    for k in range(1, n + 1):
        rows = np.array(list(combinations(range(n), k)))  # (minors, k)
        minors = A[:, rows[:, :, None], rows[:, None, :]].reshape(-1, k, k)
        dets = stacked_solve(minors, minors[:, :, :0])[1]
        c[:, k - 1] = (-1) ** k * dets.reshape(M, -1).sum(axis=1)
    return c


def _poly_degree(c: np.ndarray) -> int:
    """Largest index with |coefficient| > 0, or -1 for the zero polynomial."""
    idx = np.nonzero(np.abs(np.asarray(c)) > 0.0)[0]
    return int(idx[-1]) if idx.size else -1


# -- the curve ---------------------------------------------------------------


@dataclass
class CharPoly:
    """Monic curve polynomial lambda^n + c_1(z) lambda^{n-1} + ... + c_n(z).

    coeffs holds c_1..c_n as ascending-power complex arrays.  The degree of
    c_n defines the weight m of the distinguished branch at infinity; the
    admissible degree pattern is n*deg(c_s) < m*s for s < n (with zero
    coefficients unconstrained) and gcd(n, m) = 1.
    """

    n: int
    coeffs: tuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SpecError("curve needs at least one sheet")
        if len(self.coeffs) != self.n:
            raise SpecError(
                f"need {self.n} coefficient functions, got {len(self.coeffs)}"
            )
        self.coeffs = tuple(
            np.atleast_1d(np.asarray(c, dtype=complex)) for c in self.coeffs
        )
        m = _poly_degree(self.coeffs[-1])
        if m < 0:
            raise SpecError("the last coefficient function must not vanish")
        if gcd(self.n, m) != 1:
            raise SpecError(
                f"sheet count {self.n} and degree {m} share a factor; "
                "the branch at infinity is not single-valued"
            )
        for s in range(1, self.n):
            d = _poly_degree(self.coeffs[s - 1])
            if d >= 0 and self.n * d >= m * s:
                raise SpecError(
                    f"coefficient {s} has degree {d}: violates the strict "
                    f"bound {self.n}*deg < {m}*{s}"
                )

    @property
    def m(self) -> int:
        """Degree of the last coefficient = leading exponent of the branch."""
        return _poly_degree(self.coeffs[-1])

    def c(self, s: int) -> np.ndarray:
        """Coefficient function c_s (1-based), ascending powers of z."""
        return self.coeffs[s - 1]

    def evaluate(self, lam, z) -> np.ndarray:
        """lambda^n + sum_s c_s(z) lambda^(n-s) on broadcast arrays."""
        lam = np.asarray(lam, dtype=complex)
        out = lam**self.n
        for s in range(1, self.n + 1):
            out = out + power_sum(self.c(s), 0, z) * lam ** (self.n - s)
        return out


def curve_from_covering(spec: SymbolSpec) -> CharPoly:
    """The curve lambda^n = prod_j (z - a_j) attached to a covering spec."""
    if spec.family != "covering":
        raise SpecError(f"expected a covering spec, got family {spec.family!r}")
    poly = np.array([1.0 + 0.0j])
    for a in spec.params:
        poly = np.convolve(poly, np.array([-a, 1.0], dtype=complex))
    coeffs = [np.zeros(1, dtype=complex) for _ in range(spec.n - 1)]
    coeffs.append(-poly)
    return CharPoly(spec.n, tuple(coeffs))


def charpoly_from_matrix(C: LaurentMatrix) -> CharPoly:
    """Extract the characteristic polynomial of a matrix polynomial C(z).

    Samples det(lambda*I - C(z)) on a circle, transforms each coefficient
    function and trims modes below 1e-9 relative to its own scale.  Raises
    SpecError when C carries significant negative modes (not a polynomial)
    or when the resulting degree pattern is inadmissible.
    """
    n = C.n
    reach = n * max(abs(C.lo), abs(C.hi), 1)
    M = next_pow2(4 * (reach + 4))
    modes = np.fft.fft(_charpoly_coeffs(grid_values(C.coeffs, C.lo, M)), axis=0) / M
    half = M // 2
    out = []
    for s in range(n):
        pos = modes[: half + 1, s]
        neg = modes[half + 1 :, s]
        scale = max(1.0, float(np.max(np.abs(modes[:, s]))))
        if np.sqrt(np.sum(np.abs(neg) ** 2)) > 1e-6 * scale:
            raise SpecError(
                "matrix symbol has significant negative modes; "
                "its characteristic polynomial is not polynomial in z"
            )
        arr = pos.copy()
        arr[np.abs(arr) <= 1e-9 * scale] = 0.0
        deg = _poly_degree(arr)
        out.append(arr[: deg + 1] if deg >= 0 else np.zeros(1, dtype=complex))
    return CharPoly(n, tuple(out))


# -- the branch at infinity --------------------------------------------------


@dataclass
class BranchSeries:
    """Truncated expansion b(zeta) = zeta^m (1 + sum_{j=1..J} l_j zeta^-j)."""

    m: int
    tail: np.ndarray  # l_1..l_J
    n: int            # sheet count of the curve the branch lives on

    def __post_init__(self) -> None:
        self.tail = np.atleast_1d(np.asarray(self.tail, dtype=complex))

    @property
    def J(self) -> int:
        return len(self.tail)

    @property
    def lo(self) -> int:
        """Lowest zeta-mode of the branch as a scalar series."""
        return self.m - self.J

    @property
    def coeffs(self) -> np.ndarray:
        """The zeta-modes lo .. m of the branch: l_J, ..., l_1, 1."""
        return np.concatenate([self.tail[::-1], [1.0 + 0.0j]])

    def __call__(self, zeta):
        return power_sum(self.coeffs, self.lo, zeta)

    def trace_reduced(self) -> "BranchSeries":
        """Drop modes at exponents divisible by n (they fold to multiples of I)."""
        if self.n <= 1:
            return self
        drop = np.arange(self.m - 1, self.lo - 1, -1) % self.n == 0  # exponents of l_1..l_J
        return BranchSeries(self.m, np.where(drop, 0.0, self.tail), self.n)


def branch_residual(cp: CharPoly, bs: BranchSeries) -> float:
    """Max relative curve residual |p(b(zeta))| on 64 points of |zeta| = 1."""
    M, shift = 64, 0.37
    bv = grid_values(bs.coeffs, bs.lo, M, shift)
    # z = zeta^n on the same FFT grid as b: a zeta rounded in its argument
    # is another point, and b's deep negative modes (to -93 on the covering
    # config) would turn that into a residual of ~2e-15
    z = grid_values(np.ones(1), cp.n, M, shift)
    res = cp.evaluate(bv, z)
    scale = max(1.0, float(np.max(np.abs(bv) ** cp.n)))
    return float(np.max(np.abs(res))) / scale


def branch_series(cp: CharPoly, J: int = 96) -> BranchSeries:
    """Solve the curve for its branch at infinity, term by term.

    Substituting lambda = zeta^m u(x), x = 1/zeta, z = zeta^n and dividing by
    zeta^{mn} turns the curve into q(u, x) = u^n + sum_s A_s(x) u^{n-s} = 0
    with A_s(x) = sum_d c_{s,d} x^{ms-nd}.  The degree bounds make every A_s
    vanish at x = 0 except A_n(0), which must equal -1 for the normalized
    branch u(0) = 1 to exist; u is then found by Newton iteration on power
    series truncated at x^J.
    """
    L = J + 1
    n, m = cp.n, cp.m
    A = []
    for s in range(1, n + 1):
        arr = np.zeros(L, dtype=complex)
        cs = cp.c(s)
        for d in range(len(cs)):
            if cs[d] == 0.0:
                continue
            e = m * s - n * d
            if e < 0:
                raise SpecError(f"coefficient {s} degree {d} breaks the bounds")
            if e < L:
                arr[e] += cs[d]
        A.append(arr)
    if abs(A[-1][0] + 1.0) > 1e-12:
        raise SpecError(
            "curve is not normalized: the top coefficient of the last "
            f"coefficient function is {-A[-1][0]:.6g}, need 1"
        )
    # simple-root condition for u(0) = 1
    dq0 = n + sum((n - s) * A[s - 1][0] for s in range(1, n))
    if abs(dq0) < 1e-9:
        raise BranchError("vanishing derivative at the leading branch term")

    u = np.zeros(L, dtype=complex)
    u[0] = 1.0
    scale = max(1.0, max(float(np.max(np.abs(a))) for a in A))
    for _ in range(int(ceil(log2(max(2, L)))) + 2):
        powers = [np.zeros(L, dtype=complex), u]
        powers[0][0] = 1.0
        for _p in range(2, n + 1):
            powers.append(_ser_mul(powers[-1], u, L))
        q = powers[n].copy()
        dq = n * powers[n - 1].copy()
        for s in range(1, n + 1):
            q += _ser_mul(A[s - 1], powers[n - s], L)
            if s < n:
                dq += (n - s) * _ser_mul(A[s - 1], powers[n - s - 1], L)
        if float(np.max(np.abs(q))) <= 1e-14 * scale:
            break
        u = u - _ser_mul(q, _ser_inv(dq, L), L)
    else:
        if float(np.max(np.abs(q))) > 1e-10 * scale:
            raise BranchError(
                f"branch iteration stalled at residual {float(np.max(np.abs(q))):.3g}"
            )
    return BranchSeries(m, u[1:], n)


# -- folding and the commuting pair ------------------------------------------


@dataclass
class BCMatrices:
    """Folded branch action B, its conjugate C, and the certificates."""

    B: LaurentMatrix
    C: LaurentMatrix
    neg_band_energy: float   # relative l2 energy of C's negative modes
    trace_deviation: float   # max |trace C(z)| over samples, relative
    degree_pattern: int      # max (i - j + n*deg C_ij) over nonzero entries
    curve_deviation: float   # char poly of C vs the curve, on samples
    M_used: int


def bc_matrices(spec: SymbolSpec, bs: BranchSeries, cp: CharPoly) -> BCMatrices:
    """Fold the branch into B(z) and conjugate by the base symbol.

    C(z) = W(z)^{-1} B(z) W(z) is assembled from circle samples; W is
    diagonal, so C_ij = B_ij w_j / w_i.  The certificates measure how well
    C behaves as the theory predicts: no negative modes, zero trace (after
    the trace reduction of b), degree pattern equal to the branch weight m,
    and characteristic polynomial equal to the curve cp.  All four are
    reported, none is asserted here.
    """
    n = spec.n
    if bs.n != n:
        raise SpecError(f"branch lives on {bs.n} sheets, symbol has {n}")
    br = bs.trace_reduced()
    B = fold_scalar(br.coeffs, br.lo, n)

    depth = bs.J // n + 4
    degmax = (bs.m + n - 1) // n + 1
    band = (-depth, degmax)
    M = next_pow2(max(4 * (abs(band[0]) + abs(band[1]) + 2), 64))
    z = np.exp(2j * np.pi * np.arange(M) / M)
    w = base_diagonal(spec, z)
    Cv = grid_values(B.coeffs, B.lo, M) * w[:, None, :] / w[:, :, None]

    modes = np.fft.fft(Cv, axis=0) / M
    half = M // 2
    total = float(np.sum(np.abs(modes) ** 2))
    neg = float(np.sum(np.abs(modes[half + 1 :]) ** 2))
    neg_energy = np.sqrt(neg / total) if total > 0 else 0.0
    cscale = max(1.0, float(np.max(np.abs(Cv))))
    trace_dev = float(np.max(np.abs(np.trace(Cv, axis1=1, axis2=2)))) / cscale

    C = lm_trim(transform(CircleSamples(n, M, Cv), band), 1e-13)

    # the folded zeta-degree of entry (i, j) of mode q, read off the fold of a ramp
    zs = np.arange(n * (C.lo - 1), n * (C.hi + 1))
    degrees = fold(zs, zs[0], n, (C.lo, C.hi))
    pattern = int(np.max(degrees[np.abs(C.coeffs) > 1e-9 * cscale], initial=0))

    got = _charpoly_coeffs(Cv)
    want = np.stack([power_sum(cp.c(s), 0, z) for s in range(1, n + 1)], axis=1)
    curve_dev = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))

    return BCMatrices(
        B=B,
        C=C,
        neg_band_energy=float(neg_energy),
        trace_deviation=trace_dev,
        degree_pattern=pattern,
        curve_deviation=float(curve_dev),
        M_used=M,
    )


# -- reconstruction ----------------------------------------------------------


def _match_branches(
    eigvals: np.ndarray, expected: np.ndarray
) -> tuple[np.ndarray, float]:
    """Per-sample assignment branch -> eigenvalue index, and its margin.

    eigvals and expected have shape (M, n).  A branch claims its nearest
    eigenvalue; the claim must be injective and closer than a quarter of the
    smallest expected separation, otherwise the matching is ambiguous and
    BranchMatchError is raised.  The margin is the largest claim distance
    over that quarter separation: at most 1 for every accepted matching.
    """
    M, n = expected.shape
    d = np.abs(eigvals[:, None, :] - expected[:, :, None])  # (M, branch, eig)
    pick = np.argmin(d, axis=2)
    best = np.take_along_axis(d, pick[:, :, None], axis=2)[:, :, 0]
    sep = np.abs(expected[:, :, None] - expected[:, None, :])
    sep[:, np.arange(n), np.arange(n)] = np.inf
    sep_min = sep.min(axis=(1, 2))
    collide = np.any(np.sort(pick, axis=1) != np.arange(n)[None, :], axis=1)
    too_far = np.any(best > 0.25 * sep_min[:, None], axis=1)
    bad = np.nonzero(collide | too_far)[0]
    if bad.size:
        j = int(bad[0])
        raise BranchMatchError(
            f"sample {j}: eigenvalue-branch matching ambiguous "
            f"(distances {best[j]}, separation {sep_min[j]:.3g})"
        )
    return pick, float(np.max(best / (0.25 * sep_min[:, None])))


def reconstruct_W(C: LaurentMatrix) -> LaurentMatrix:
    """Rebuild the base symbol from its commuting matrix polynomial.

    Derives the curve from C's characteristic polynomial, expands the branch
    at infinity, and per circle sample matches the left eigenvectors of C(z)
    to the branch values over the ordered fiber.  The matched eigenvector
    rows, normalized to unit leading component, assemble the symbol through
    the fiber Vandermonde.  For a covering symbol (diagonal, w_0 = 1, every
    w_i -> 1 at infinity) that normalization makes the rebuilt z^0 block I;
    spectral_check's big-cell certificate reports any other outcome.
    """
    n = C.n
    cp = charpoly_from_matrix(C)
    bs = branch_series(cp)
    band = (-max(bs.J // n + 4, 8), 0)
    M = next_pow2(max(2 * (abs(band[0]) + abs(band[1]) + 2), 64))
    z = np.exp(2j * np.pi * np.arange(M) / M)
    Wv = _reconstruct_samples(C, bs, z)
    return lm_trim(transform(CircleSamples(n, M, Wv), band), 1e-13)


def _reconstruct_samples(
    C: LaurentMatrix, bs: BranchSeries, z: np.ndarray
) -> np.ndarray:
    """Symbol samples W(z) from eigenvector rows of C(z) matched to branches.

    The matched rows r_i are the fiber Vandermonde zeta_i^a times W(z).
    That Vandermonde is F diag(zeta_1^a), F the n-point DFT matrix, so
    W = diag(zeta_1^-a) conj(F) r / n: one FFT over the branches, no solve.
    """
    n = C.n
    Cv = C(z)
    zetas = root_grid(z, n)
    expected = bs(zetas)
    eigvals, right = np.linalg.eig(np.transpose(Cv, (0, 2, 1)))
    pick, _margin = _match_branches(eigvals, expected)
    rows = np.transpose(
        np.take_along_axis(right, pick[:, None, :], axis=2), (0, 2, 1)
    )  # (M, branch, component)
    lead = rows[:, :, 0]
    if np.any(np.abs(lead) < 1e-13 * np.max(np.abs(rows), axis=2)):
        raise BranchMatchError(
            "an eigenvector row has vanishing leading component; "
            "cannot normalize to the big cell"
        )
    rows = rows / lead[:, :, None]
    return np.fft.fft(rows, axis=1) / (n * zetas[:, :1, None] ** np.arange(n)[:, None])


# -- end-to-end check --------------------------------------------------------


@dataclass
class SpectralReport:
    """Certificates of the curve -> commuting pair -> symbol round trip."""

    curve_degree: int
    branch_residual: float
    neg_band_energy: float
    trace_deviation: float
    degree_pattern: int
    curve_deviation: float
    roundtrip_residual: float
    symbol_residual: float
    match_margin: float
    big_cell_ok: bool
    C: LaurentMatrix      # the conjugated matrix W^{-1} B W

    @property
    def passed(self) -> bool:
        return (
            self.neg_band_energy <= 1e-9
            and self.trace_deviation <= 1e-10
            and self.degree_pattern == self.curve_degree
            and self.curve_deviation <= 1e-8
            and self.roundtrip_residual <= 1e-8
            and self.symbol_residual <= 1e-8
            and self.match_margin < 1
            and self.big_cell_ok
        )

    def lines(self) -> list:
        return [
            f"curve degree                 {self.curve_degree}",
            f"branch residual |zeta|=1     {self.branch_residual:.3e}",
            f"negative band energy         {self.neg_band_energy:.3e}",
            f"trace deviation              {self.trace_deviation:.3e}",
            f"degree pattern               {self.degree_pattern}",
            f"curve deviation              {self.curve_deviation:.3e}",
            f"round-trip residual          {self.roundtrip_residual:.3e}",
            f"symbol residual              {self.symbol_residual:.3e}",
            f"branch match margin          {self.match_margin:.3e}",
            f"big cell form                {self.big_cell_ok}",
        ]


def spectral_check(spec: SymbolSpec) -> SpectralReport:
    """Run the whole spectral round trip on a covering spec.

    Builds the curve and branch, certifies the commuting pair, rebuilds the
    symbol from C alone, and measures on a fresh, half-shifted sample grid:
    the conjugation identity, the relative distance of the rebuilt symbol
    from the original, and the margin of the branch matching.
    """
    cp = curve_from_covering(spec)
    bs = branch_series(cp)
    bc = bc_matrices(spec, bs, cp)
    w_rec = reconstruct_W(bc.C)

    M = 2 * bc.M_used
    z = np.exp(2j * np.pi * (np.arange(M) + 0.5) / M)
    Wr, Bv, Cv = (grid_values(lm.coeffs, lm.lo, M, 0.5) for lm in (w_rec, bc.B, bc.C))
    conj, _det = stacked_solve(Wr, stacked_mul(Bv, Wr))
    cscale = max(1.0, float(np.max(np.abs(Cv))))
    roundtrip = float(np.max(np.abs(conj - Cv))) / cscale

    Wt = base_symbol_values(spec, z)
    symbol_res = float(np.max(np.abs(Wr - Wt))) / float(np.max(np.abs(Wt)))

    _pick, margin = _match_branches(np.linalg.eigvals(Cv), bs(root_grid(z, spec.n)))

    return SpectralReport(
        curve_degree=cp.m,
        branch_residual=branch_residual(cp, bs),
        neg_band_energy=bc.neg_band_energy,
        trace_deviation=bc.trace_deviation,
        degree_pattern=bc.degree_pattern,
        curve_deviation=bc.curve_deviation,
        roundtrip_residual=roundtrip,
        symbol_residual=symbol_res,
        match_margin=margin,
        big_cell_ok=big_cell_check(w_rec),
        C=bc.C,
    )
