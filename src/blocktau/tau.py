"""Tau functions of the deformed symbol, computed along independent routes.

Four representations of the same object are provided and cross-checkable:

- numeric: determinant of the N-block truncation at a concrete time vector;
- graded: the same determinant carried out over the truncated graded ring,
  so the result is a polynomial in the times up to total weight Q (a
  rank-r update of the numeric T_N(W), its ring determinant taken on the
  smaller of the r x r and nN x nN sides);
- character: expansion over partitions, with each coefficient a minor of
  the flattened column generators of the undeformed symbol, summed against
  the Schur functions of the Murnaghan-Nakayama character table (one
  product per weight, no ring determinant);
- wronskian: determinant of derivatives of a family of scalar generators
  built from the same column data.

On top of these sit the stabilization of the graded coefficients in N, the
wave (Baker) coefficients obtained by shifted-time evaluation, and one
structural check of the annihilating differential operator Delta_N of the
level-N generator family.  kernel_facts_check reports only residuals that a
wrong family can move: D^n maps member s to member s+n and Delta_N kills
those n-th derivatives (the Gelfand-Dickey reduction), members n+1..nN are
the level-(N-1) family, and Delta_N factors as an order-n stage after
Delta_{N-1}: Delta_N(g) * Wr(v) = Wr(Delta_{N-1} g, v) with v the
level-(N-1) images of the first n level-N members.

Ratios of Wronskians that enter first-order factors are frequently singular
at t = 0 (an intermediate Wronskian can have zero constant term even though
the full one is a unit), so every operator identity here is verified in
cleared-denominator polynomial form, which is exact in the truncated ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateInput, NearSingularSymbol
from .gradedpoly import (
    GradedPoly,
    _basis_parts,
    _character_table,
    gp_const,
    gp_det,
    gp_from_terms,
    gp_zero,
    monomial_weight,
    negate_times,
    sato_shift,
    schur_sequence,
    zero_times,
)
from .laurent import COND_LIMIT, COND_SCREEN, LaurentMatrix, block_layout, gather_modes
from .symbols import (
    SymbolSpec,
    TimeVector,
    base_inverse,
    base_is_polynomial,
    base_symbol,
    column_series,
    fold,
    gd_symbol,
    schur_numeric,
)
from .toeplitz import (
    PlemeljOperator,
    build_TN,
    det_DN,
    fredholm_det,
)

__all__ = [
    "FFamily",
    "KernelFactsReport",
    "StabilityReport",
    "StableTauReport",
    "TauSeries",
    "apply_first_order_factors",
    "character_assembly",
    "character_expansion",
    "coefficient_gap",
    "delta_action",
    "f_family",
    "frobenius_factors",
    "kernel_facts_check",
    "lemma_wronsky_check",
    "max_abs_coeff",
    "random_graded",
    "stability_check",
    "stable_tau_graded",
    "tau_graded",
    "tau_numeric",
    "tau_series",
    "tau_stable",
    "tau_stable_report",
    "wave_function",
    "wronskian",
    "wronskian_tau",
]


# -- small ring utilities -----------------------------------------------------


def _D(p: GradedPoly) -> GradedPoly:
    """Derivative along the first time, the direction of all Wronskians."""
    return p.derivative(1)


def _gd_freeze(p: GradedPoly, n: int) -> GradedPoly:
    """p at t_n = t_2n = ... = 0, a substitution that commutes with the ring operations."""
    return zero_times(p, range(n, p.K + 1, n))


def _tower(p: GradedPoly, count: int) -> list[GradedPoly]:
    """[p, Dp, ..., D^count p]."""
    out = [p]
    for _ in range(count):
        out.append(_D(out[-1]))
    return out


def max_abs_coeff(p: GradedPoly, upto: int | None = None) -> float:
    """Largest coefficient magnitude, optionally only up to a weight bound."""
    return float(np.max(np.abs(p.coefficients_upto(upto)), initial=0.0))


def coefficient_gap(a: GradedPoly, b: GradedPoly, upto: int | None = None) -> float:
    """Largest coefficient difference, optionally only up to a weight bound.

    Coefficients above one operand's cutoff count as zero there.
    """
    if a.K != b.K:
        raise ValueError(f"mixed time counts K={a.K} and K={b.K}")
    x, y = a.coefficients_upto(upto), b.coefficients_upto(upto)
    diff = np.zeros(max(len(x), len(y)), dtype=complex)
    diff[: len(x)] = x
    diff[: len(y)] -= y
    return float(np.max(np.abs(diff), initial=0.0))


def random_graded(
    K: int, Q: int, rng: np.random.Generator, unit: bool = True
) -> GradedPoly:
    """Random sparse ring element of eight drawn terms; unit=True adds 1.

    Coefficients decay geometrically in the weight so derivative towers and
    inverses built from the result keep moderate coefficient sizes.
    """
    coeffs: dict[tuple[int, ...], complex] = {}
    if unit:
        coeffs[(0,) * K] = 1.0
    for _ in range(8):
        exp = [0] * K
        w = int(rng.integers(1, Q + 1))
        while w > 0:
            i = int(rng.integers(1, w + 1))
            exp[i - 1] += 1
            w -= i
        weight = monomial_weight(tuple(exp))
        coeffs[tuple(exp)] = complex(rng.normal(), rng.normal()) * 0.3**weight
    return gp_from_terms(K, Q, coeffs)


# -- determinant routes -------------------------------------------------------


def tau_numeric(spec: SymbolSpec, t: TimeVector, N: int) -> complex:
    """Determinant of the N-block truncation of the deformed symbol."""
    if N == 0:
        return 1.0 + 0.0j
    lm = gd_symbol(spec, t, (-N, N), exact_only=True)
    return det_DN(build_TN(lm, N))


def tau_graded(spec: SymbolSpec, N: int, Q: int, gd_reduced: bool = True) -> GradedPoly:
    """Same determinant carried out over the truncated graded ring.

    With e = exp(xi(t, L)), which has modes 0..ceil(Q/n) in the ring, and W
    the base symbol, whose modes run down to W.lo, the Toeplitz-Hankel
    identity reads T_N(eW) = T_N(e) T_N(W) + H(e) H(W~) with det T_N(e) = 1,
    and the Hankel product has rank r = n min(-W.lo, ceil(Q/n)).  So D_N =
    det T_N(W) det(I + V T_N(W)^-1 U), V the numeric block Hankel section
    of W's negative modes and U = T_N(e^-1) H(e) the ring-valued one, and
    by Sylvester's identity the ring determinant is taken on the smaller
    side: I_r + V T_N(W)^-1 U when r <= nN, else I_nN + U V T_N(W)^-1.
    (det T_N(W) is 1 for the shipped families; it is computed, not assumed.)

    In the flat index, entry (i, m) of U is sum_{0<=j<=i} p_j(-t) p_{i+m-j}
    with p the Schur layers: it is homogeneous of weight i + m, so column m
    of U is read off one ring element, the tail sum_{j>=m} p_j times
    exp(-sum_k t_k) (_hankel_columns, cached per Q), and
    every coefficient of the ring matrix is one product of a numeric entry
    and a coefficient of that table.  Rows of V T_N(W)^-1 that vanish leave
    identity rows in the r x r matrix, and columns that vanish identity
    columns in the nN x nN one (half of each for the covering family), so
    both sides drop them and the smaller of what is left is taken.  Column
    m (row i) of the ring matrix has no weight below m (i + 1); the matrix
    goes to gp_det heaviest pivot first, where most products pass Q.
    gd_reduced sets t_n, t_2n, ... to zero in the result (_gd_freeze).
    """
    n = spec.n
    if N == 0:
        return gp_const(Q, Q, 1.0)
    w = base_symbol(spec)
    TW = build_TN(w, N).matrix
    det_w = complex(np.linalg.det(TW))
    rb = min(-w.lo, math.ceil(Q / n))
    r, nN = n * rb, n * N
    # flat index m = n l - b of H(e)'s columns is row b of block row l of V,
    # whose block (l, J) is W_{-l-J}
    ms = np.arange(1, r + 1)
    ls = -(-ms // n)
    V = w.block_matrix(-(np.arange(1, rb + 1)[:, None] + np.arange(N)))
    X = np.linalg.solve(TW.T, V[n * (2 * ls - 1) - ms].T).T  # V T_N(W)^-1
    ms, i_s = ms[X.any(axis=1)], np.flatnonzero(X.any(axis=0))
    if not len(ms):  # no Hankel term (Q = 0, or W without negative modes)
        return gp_const(Q, Q, det_w)
    # zero-padded gathers: row 0 of Xp and Cp and column nN of Xp stand for
    # the entries of U outside 0 <= i < nN, 1 <= m <= r
    Xp = np.zeros((r + 1, nN + 1), dtype=complex)
    Xp[1:, :nN] = X
    cols = _hankel_columns(Q)[:r]
    Cp = np.zeros((r + 1, cols.shape[1]), dtype=complex)
    Cp[1 : len(cols) + 1] = cols
    weights = gp_zero(Q, Q).weights
    if len(ms) <= len(i_s):
        i = weights - ms[:, None]  # (m, coefficient): row i of U it comes from
        i = np.where((i >= 0) & (i < nN), i, nN)
        M = Xp[ms][:, i] * Cp[ms]
    else:
        m = weights - i_s[:, None]  # (i, coefficient): column m
        m = np.where(m <= r, np.maximum(m, 0), 0)
        M = (Xp[m][..., i_s] * Cp[m, np.arange(len(weights))][..., None]).transpose(0, 2, 1)
    M[np.arange(len(M)), np.arange(len(M)), 0] += 1.0
    M = M[::-1, ::-1]  # heaviest columns (rows) first
    tau = gp_det([[GradedPoly(Q, Q, entry) for entry in row] for row in M]) * det_w
    return _gd_freeze(tau, n) if gd_reduced else tau


@lru_cache(maxsize=None)
def _hankel_columns(Q: int) -> np.ndarray:
    """Columns m = 1..Q of U = T(e^-1) H(e), each summed over its rows.

    Row m - 1 is exp(-sum_k t_k) sum_{j>=m} p_j over the (Q, Q) basis; its
    weight-(i + m) layer is entry (i, m) of U, for every n and N.  Read-only.
    """
    layers = np.stack([p.coeffs for p in schur_sequence(Q, Q)])
    tails = np.cumsum(layers[::-1], axis=0)[::-1]  # tails[m] = sum_{j>=m} p_j
    e_inv = negate_times(GradedPoly(Q, Q, tails[0]))
    out = np.stack([(e_inv * GradedPoly(Q, Q, t)).coeffs for t in tails[1:]])
    out.flags.writeable = False
    return out


def stable_tau_graded(spec: SymbolSpec, Q: int, gd_reduced: bool = True) -> GradedPoly:
    """Graded tau at a truncation level deep enough for all weights <= Q."""
    N = max(1, math.ceil(Q / spec.n))
    return tau_graded(spec, N, Q, gd_reduced=gd_reduced)


@dataclass
class TauSeries:
    """A graded tau polynomial tagged with how it was produced."""

    spec: SymbolSpec
    N: int
    representation: str
    series: GradedPoly


def tau_series(
    spec: SymbolSpec,
    N: int,
    Q: int,
    representation: str = "graded",
    gd_reduced: bool = True,
) -> TauSeries:
    """Tau polynomial along the requested route; gd_reduced then freezes it."""
    if representation == "graded":
        series = tau_graded(spec, N, Q, gd_reduced=False)
    elif representation == "character":
        series = character_assembly(character_expansion(spec, N, Q), Q)
    elif representation == "wronskian":
        series = wronskian_tau(f_family(spec, N, Q, gd_reduced=False))
    else:
        raise ValueError(f"unknown representation {representation!r}")
    series = _gd_freeze(series, spec.n) if gd_reduced else series
    return TauSeries(spec=spec, N=N, representation=representation, series=series)


# -- character expansion ------------------------------------------------------


def character_expansion(spec: SymbolSpec, N: int, Q: int) -> np.ndarray:
    """Expansion coefficients of the graded tau over the Schur functions.

    Entry k belongs to the partition lam of the (Q, Q) basis monomial k (its
    exponents count the parts).  It is the minor of the column-generator
    modes picked out by the shifted parts of lam, or 0 when lam has more
    than n*N rows; paired with s_lam (character_assembly) the entries sum to
    the full (unreduced) graded tau.  Every minor comes from one gather and
    all go through one batched det.
    """
    n = spec.n
    M = n * N
    parts = _basis_parts(Q)
    fits = ~parts[:, M:].any(axis=1)
    shifted = np.zeros((int(fits.sum()), M), dtype=np.int64)
    shifted[:, : min(M, Q)] = parts[fits, :M]
    lo, cols = _base_generators(spec)
    # entry (i, j) of a minor is mode j - part_j of generator i = q*n + b,
    # which is mode j - part_j - n*q of base generator b
    modes = np.arange(M) - shifted[:, None, :] - n * np.arange(N)[:, None]
    minors = gather_modes(cols, lo, modes).transpose(0, 1, 3, 2)
    out = np.zeros(len(parts), dtype=complex)
    out[fits] = np.linalg.det(minors.reshape(len(shifted), M, M))
    return out


def character_assembly(coeffs: np.ndarray, Q: int) -> GradedPoly:
    """Sum of coeffs[k] s_lam over the (Q, Q) basis partitions lam.

    s_lam is homogeneous, so the weight-w coefficients of the sum are the
    weight-w slice of coeffs times block w of the character table.  The
    basis runs over the times t_1 .. t_Q, the most a weight-Q series reads.
    """
    out = np.empty(len(coeffs), dtype=complex)
    start = 0
    for X in _character_table(Q):
        stop = start + len(X)
        out[start:stop] = coeffs[start:stop] @ X
        start = stop
    return GradedPoly(Q, Q, out)


# -- generator family and Wronskian route -------------------------------------


def _base_generators(spec: SymbolSpec) -> tuple[int, np.ndarray]:
    """Lowest mode and the (modes, n) array of the first n scalar generators.

    Generator s = q*n + b + 1 is column b of this array moved up n*q modes.
    """
    cols = [column_series(spec, b) for b in range(spec.n)]
    return cols[0].lo, np.stack([c.coeffs for c in cols], axis=1)


@dataclass
class FFamily:
    """The n*N scalar generators whose Wronskian reproduces the graded tau."""

    spec: SymbolSpec
    N: int
    Q: int
    K: int
    funcs: list[GradedPoly]
    _tau: GradedPoly | None = field(default=None, repr=False)


def f_family(
    spec: SymbolSpec,
    N: int,
    Q: int,
    K: int | None = None,
    gd_reduced: bool = True,
) -> FFamily:
    """Build the generator family at truncation level N.

    Member s is sum_k p_k * (mode nN - 1 - k of generator s): one gather of
    the generator modes against the stacked Schur layers p_0..p_Q.
    gd_reduced freezes every member (_gd_freeze).
    """
    n = spec.n
    if K is None:
        K = Q
    lo, cols = _base_generators(spec)
    # generator q*n + b at mode nN - 1 - k is base generator b at nN - 1 - k - n*q
    modes = n * N - 1 - np.arange(Q + 1) - n * np.arange(N)[:, None]
    picked = gather_modes(cols, lo, modes).transpose(0, 2, 1).reshape(n * N, Q + 1)
    coeffs = picked @ np.stack([p.coeffs for p in schur_sequence(K, Q)])
    funcs = [GradedPoly(K, Q, c) for c in coeffs]
    funcs = [_gd_freeze(f, n) for f in funcs] if gd_reduced else funcs
    return FFamily(spec=spec, N=N, Q=Q, K=K, funcs=funcs)


def wronskian(
    funcs, K: int | None = None, Q: int | None = None
) -> GradedPoly:
    """det [ D^{m-j} h_i ]_{i,j=1..m}; the empty Wronskian is 1."""
    funcs = list(funcs)
    m = len(funcs)
    if m == 0:
        if K is None or Q is None:
            raise ValueError("empty Wronskian needs explicit ring parameters")
        return gp_const(K, Q, 1.0)
    if m > 1 and funcs[0].K < 1:
        raise ValueError(
            "the Wronskian route needs t_1 (Q >= 1): its rows are t_1-derivatives"
        )
    towers = [_tower(h, m - 1) for h in funcs]
    rows = [[tw[m - 1 - j] for j in range(m)] for tw in towers]
    return gp_det(rows)


def wronskian_tau(ff: FFamily) -> GradedPoly:
    """Wronskian of the full family; equals the graded tau."""
    if ff._tau is None:
        ff._tau = wronskian(ff.funcs, ff.K, ff.Q)
    return ff._tau


def delta_action(ff: FFamily, g: GradedPoly) -> GradedPoly:
    """Apply the monic order-n*N operator annihilating the family to g.

    Computed as the bordered Wronskian with g in the first row, divided by
    the family Wronskian; the division requires the latter to be a ring
    unit (nonzero constant term), else DegenerateInput.
    """
    den = wronskian_tau(ff)
    if abs(den.constant_term()) == 0.0:
        raise DegenerateInput("family Wronskian has zero constant term")
    num = wronskian([g] + ff.funcs)
    return num * den.invert()


# -- first-order factor machinery ---------------------------------------------


def frobenius_factors(gs) -> list[GradedPoly]:
    """First-order factor coefficients T_j = D log(W_{j-1}/W_j).

    W_j is the Wronskian of the first j functions (W_0 = 1).  The product
    (D + T_m) ... (D + T_1) is the monic operator annihilating all of gs.
    Every intermediate Wronskian must be a ring unit, else DegenerateInput.
    """
    gs = list(gs)
    if not gs:
        return []
    prev_dlog = gp_zero(gs[0].K, gs[0].Q)
    out: list[GradedPoly] = []
    for j in range(1, len(gs) + 1):
        Wj = wronskian(gs[:j])
        if abs(Wj.constant_term()) == 0.0:
            raise DegenerateInput(f"intermediate Wronskian {j} is not a unit")
        dlog = _D(Wj) * Wj.invert()
        out.append(prev_dlog - dlog)
        prev_dlog = dlog
    return out


def apply_first_order_factors(Ts, h: GradedPoly) -> GradedPoly:
    """Apply (D + T_m) ... (D + T_1) to h (T_1 acts first)."""
    out = h
    for T in Ts:
        out = _D(out) + T * out
    return out


def lemma_wronsky_check(gs, upto: int | None = None) -> float:
    """Residual of the first-order factorization on its own kernel.

    Builds the factors from the Wronskian ladder of gs and applies the full
    product back to each member; the result must vanish identically.  When
    the inputs carry truncation headroom, pass upto to bound the weights at
    which the residual is meaningful (each derivative eats one weight layer
    off the top of a truncated series).
    """
    Ts = frobenius_factors(gs)
    res = 0.0
    for g in gs:
        res = max(res, max_abs_coeff(apply_first_order_factors(Ts, g), upto))
    return res


# -- structural check ---------------------------------------------------------


@dataclass
class KernelFactsReport:
    """Ring-exact facts about the annihilator at level N and its split at N-1."""

    N: int
    Q: int
    annihilation_shifted: float
    shift_symmetry: float
    family_shift: float
    operator_split: float
    unit_action_magnitude: float
    kernel_images_magnitude: float

    @property
    def max_residual(self) -> float:
        return max(
            self.annihilation_shifted,
            self.shift_symmetry,
            self.family_shift,
            self.operator_split,
        )

    @property
    def passed(self) -> bool:
        """Residuals within the tau.kernel_and_recursion registry tolerance, and
        neither Delta_N(1) nor any v_j below it."""
        from .checks import tol  # checks imports this module

        limit = tol("tau.kernel_and_recursion")
        return (
            self.max_residual <= limit
            and self.unit_action_magnitude > limit
            and self.kernel_images_magnitude > limit
        )


def kernel_facts_check(spec: SymbolSpec, N: int, Q: int) -> KernelFactsReport:
    """Verify the annihilator facts at level N in cleared-denominator form.

    Checks, all exact in the truncated ring up to roundoff, and each able to
    fail on a family that is not the level-N generator family:
    - differentiating n times maps member s to member s+n, and Delta_N
      annihilates the n-th derivatives of members 1..n(N-1), so ker Delta_N
      is closed under D^n (the Gelfand-Dickey reduction);
    - members n+1..nN equal the level-(N-1) family, built on its own;
    - Delta_N factors as a monic order-n stage after Delta_{N-1}.  With
      v_j = Delta_{N-1} of level-N member j (j <= n), the factorization
      reads Delta_N(g) * Wr(v) = Wr(Delta_{N-1} g, v), checked on a basket.
    It passes only if neither Delta_N(1) nor any v_j vanishes as well, so
    that the factorization is not read off zero operators.  That Delta_N
    kills the family itself, and the Wronskian ladder identities behind the
    split (Crum's Wr(h, g) = Wr(h) Wr(Delta_h g)), hold for any family whose
    Wronskian is a unit and are not reported.
    """
    if Q < 1:
        raise ValueError(f"residuals are read up to weight Q >= 1, got Q={Q}")
    n = spec.n
    nN = n * N
    rng = np.random.default_rng(7)
    # Derivatives eat the top weight layers of truncated series (the weight-Q
    # layer of Dp needs the discarded weight-(Q+1) layer of p), so everything
    # is computed with headroom and residuals are read off up to weight Q.
    Qw = Q + n + 2
    ff = f_family(spec, N, Qw)
    lower = f_family(spec, N - 1, Qw)
    funcs = ff.funcs

    # D^n f_i comes from the family cut n layers higher: differentiating a
    # member cut at Qw would lose its top n layers, and the Wronskian in
    # delta_action carries that loss below weight Q.
    high = f_family(spec, N, Qw + n, K=Qw)
    shifted = []
    for f in high.funcs[: nN - n]:
        for _ in range(n):
            f = _D(f)
        shifted.append(f.truncate(Qw))
    shift_symmetry = max(
        (coefficient_gap(g, f, Q) for g, f in zip(shifted, funcs[n:])), default=0.0
    )
    annihilation_shifted = max(
        (max_abs_coeff(delta_action(ff, g), Q) for g in shifted), default=0.0
    )
    family_shift = max(
        (coefficient_gap(a, b, Q) for a, b in zip(funcs[n:], lower.funcs)),
        default=0.0,
    )

    vs = [delta_action(lower, f) for f in funcs[:n]]
    wr_v = wronskian(vs)
    basket = [
        gp_const(Qw, Qw, 1.0),
        random_graded(Qw, Qw, rng),
        _gd_freeze(schur_sequence(Qw, Qw)[5], n),
        funcs[0],
        funcs[-1],
        *lower.funcs[:1],
    ]
    actions = [delta_action(ff, g) for g in basket]
    gaps = []
    for g, act in zip(basket, actions):
        lhs = act * wr_v
        rhs = wronskian([delta_action(lower, g)] + vs)
        # floor the scale: for annihilated g both sides vanish to roundoff
        scale = max(max_abs_coeff(lhs, Q), max_abs_coeff(rhs, Q), 1.0)
        gaps.append(coefficient_gap(lhs, rhs, Q) / scale)

    return KernelFactsReport(
        N=N,
        Q=Q,
        annihilation_shifted=annihilation_shifted,
        shift_symmetry=shift_symmetry,
        family_shift=family_shift,
        operator_split=max(gaps),
        unit_action_magnitude=max_abs_coeff(actions[0], Q),
        kernel_images_magnitude=min(max_abs_coeff(v, Q) for v in vs),
    )


# -- stabilization ------------------------------------------------------------


@dataclass
class StabilityReport:
    """Largest gap between graded coefficients at levels N and N+1."""

    N: int
    Q: int
    max_gap: float


def stability_check(spec: SymbolSpec, N: int, Q: int) -> StabilityReport:
    """Compare graded tau at levels N and N+1 up to weight min(N, Q)."""
    a = tau_graded(spec, N, Q)
    b = tau_graded(spec, N + 1, Q)
    diff = np.abs(a.coeffs - b.coeffs)
    max_gap = float(np.max(diff[a.weights <= min(N, Q)], initial=0.0))
    return StabilityReport(N=N, Q=Q, max_gap=max_gap)


# -- stable value at a concrete time vector -----------------------------------


def _wiener_bound(factors, ord) -> float:
    """prod sum_k ||a_k||_ord over the factors: LaurentMatrix, or functions of ord."""
    norms = (
        _mode_norms(f.coeffs, ord) if isinstance(f, LaurentMatrix) else f(ord)
        for f in factors
    )
    return float(math.prod(norms))


def _mode_norms(stack: np.ndarray, ord) -> float:
    """sum_k ||a_k||_ord over a (modes, n, n) stack."""
    return float(np.linalg.norm(stack, ord, axis=(1, 2)).sum())


def _wiener_gate(*factors) -> None:
    """Raise NearSingularSymbol when prod ||a||_W over the factors exceeds COND_LIMIT.

    ||a||_W = sum_k ||a_k||_2 bounds the spectral norm of a(z) on the
    circle and is submultiplicative, so its product over the factors of g
    and g^-1 bounds the condition number of g there.  The same sums over
    Frobenius norms bound it in turn and clear most symbols without an SVD
    per block; only above COND_SCREEN is the spectral bound computed, and
    it decides.
    """
    if _wiener_bound(factors, "fro") <= COND_SCREEN:
        return
    cond = _wiener_bound(factors, 2)
    if cond > COND_LIMIT:
        raise NearSingularSymbol(
            f"Wiener-norm condition bound {cond:.3g} exceeds {COND_LIMIT:g}"
        )


@dataclass
class StableTauReport:
    """A stable tau value, the route that produced it and its error bound.

    route is "finite_rank" (Day's formula on the nj x nj section, M_used = j)
    or "fredholm" (the operator determinant of the j'-block Hankel corner,
    M_used = j' = -W^-1.lo, est_error 0.0: the corner is exact, and its
    round-off is not bounded).  Every field is a Python scalar on both routes.
    """

    value: complex
    est_error: float
    route: str
    M_used: int


def tau_stable_report(
    spec: SymbolSpec, t: TimeVector, tol: float = 1e-8
) -> StableTauReport:
    """Large-N limit of the truncated determinants at a concrete time vector.

    When W is a polynomial in 1/z (base_is_polynomial: every rational
    family, j = -W.lo = 1), g = exp(xi(t,L)) W has no modes below -j, and
    the limit is G^j det T_j(g^-1) exactly (Day's formula, _finite_rank).
    The route does not read where a series W is cut: Day's formula has no
    error term for a cut W.  Otherwise (the covering families) the limit
    is det(I - K), K = H(g) H(g~^-1).  W and W^-1 have no positive modes
    and e = exp(xi(t,L)) and e^-1 no negative ones, so K = H(e) V T(e^-1)
    exactly, V = T(W~) H(W~^-1).  V has no columns past block j' =
    -W^-1.lo, so I - K is block lower triangular past the j'-block corner
    (_hankel_corner) and has its determinant.  Either way a point computes
    the Schur values of exp(xi(+-t,L)), gathers its matrices from them by
    the index arrays of the per-spec plan (_symbol_core), multiplies and
    takes one determinant; no LaurentMatrix is built per point.
    NearSingularSymbol is raised when cond T_j(g^-1) exceeds COND_LIMIT on
    the first route, and on the second when ||e||_W ||W||_W ||W^-1||_W
    ||e^-1||_W, a bound of cond g on the circle, does.  Neither route
    reads tol, kept only for callers that pass one (the benchmark
    harness): both are exact up to round-off.
    """
    plan = _symbol_core(spec)
    if isinstance(plan, _DayPlan):
        return _finite_rank(plan, t)
    K = _hankel_corner(spec, t)
    fr = fredholm_det(PlemeljOperator(spec.n, plan.j, plan.eye - K))
    return StableTauReport(fr.value, 0.0, "fredholm", fr.M_used)


def _fold_index(kmax: int, n: int, hi: int) -> np.ndarray:
    """Where the modes 0..hi of exp(xi(t,L)) (exp_xi_lambda) read the Schur
    values p_0..p_kmax: a (hi + 1, n, n) index into p with one zero appended,
    -1 (that zero) where the fold holds 0."""
    return fold(np.arange(1, kmax + 2), 0, n, (0, hi)) - 1


def _layout_index(modes: np.ndarray, lo: int, layout) -> np.ndarray:
    """block_layout of a mode stack given by its index (_fold_index), lowest mode lo."""
    return block_layout(modes + 1, lo, layout) - 1


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class _CornerPlan:
    """What a point of the covering route reads besides its Schur values.

    p = p_0..p_kmax(t) and q = p_0..p_kmax_inv(-t), each with one zero
    appended, give e's modes 0..j' + R - 1 as p[modes], e^-1's modes
    0..j' - 1 as q[modes_inv], H(e) (block (r, c) mode r + c + 1; entry
    (rn + a, cn + b) is p_{n(r+c+1)+a-b}) as p[hankel] and T(e^-1), the
    lower-triangular scalar Toeplitz matrix of q, as q[toeplitz].  V is
    T(W~) H(W~^-1) on R = j' - W.lo block rows and j' block columns,
    base_norms {ord: ||W||_W ||W^-1||_W}, eye the identity of I - K.
    """

    n: int
    j: int
    kmax: int
    kmax_inv: int
    V: np.ndarray
    base_norms: dict
    modes: np.ndarray
    modes_inv: np.ndarray
    hankel: np.ndarray
    toeplitz: np.ndarray
    eye: np.ndarray


@dataclass(frozen=True, eq=False)
class _DayPlan:
    """What a point of the finite-rank route reads besides its Schur values.

    With q = p_0..p_kmax(-t) and one zero appended, lm_mul(W^-1, e^-1, band)
    on the band 1 - j..j - 1 is row @ q[section] (row: the modes of W^-1
    side by side, section: the Toeplitz section of e^-1 = exp(xi(-t,L))
    that lm_mul lays out), and T_j(g^-1) is that (n, (2j - 1) n) product
    read at corner (build_TN's section, as a flat index).  row_abs and
    |q| give the moduli product the same way.  Gj = (det W_0)^j; scale =
    (n width(W^-1) + 2nj) eps and w_err = eps ||W^-1||_W are the two
    terms of the error bound that do not depend on t.
    """

    n: int
    j: int
    kmax: int
    Gj: complex
    row: np.ndarray
    row_abs: np.ndarray
    section: np.ndarray
    corner: np.ndarray
    scale: float
    w_err: float


@lru_cache
def _symbol_core(spec: SymbolSpec) -> _CornerPlan | _DayPlan:
    """The gather plan of tau_stable_report's route for spec (cached, read-only).

    Every index array is the package's own block or fold map (fold,
    block_layout) applied once to the positions of the Schur values instead
    of to the values at each point, so a point gathers exactly the entries
    the per-point assembly would.
    """
    n = spec.n
    w, w_inv = base_symbol(spec), base_inverse(spec)
    if base_is_polynomial(spec):
        j = int(max(-w.lo, 1))  # W = I to the cut when every c_i^2 is below it
        hi = j - 1 - int(w_inv.lo)  # e^-1 on modes 0..hi feeds modes 1-j..j-1 of g^-1
        ks, ms = np.arange(1 - j, j), np.arange(w_inv.lo, w_inv.hi + 1)
        section = _layout_index(_fold_index(n * hi + n - 1, n, hi), 0, ks - ms[:, None])
        product = np.arange(n * len(ks) * n).reshape(n, len(ks), n).transpose(1, 0, 2)
        i = np.arange(j)
        corner = block_layout(product, 1 - j, i[:, None] - i)
        row = w_inv.coeffs.transpose(1, 0, 2).reshape(n, w_inv.width * n)
        row_abs = np.abs(row).astype(complex)
        _read_only(section, corner, row, row_abs)
        return _DayPlan(
            n=n,
            j=j,
            kmax=n * hi + n - 1,
            Gj=complex(np.linalg.det(w.block(0))) ** j,
            row=row,
            row_abs=row_abs,
            section=section,
            corner=corner,
            scale=(n * w_inv.width + 2 * n * j) * _EPS,
            w_err=_EPS * np.linalg.norm(w_inv.coeffs, axis=(1, 2)).sum(),
        )
    q = np.arange(-w_inv.lo)  # block (k, r) of V: sum_q W_(q-k) W^-1_(-q-r-1)
    V = w.block_matrix(q - np.arange(len(q) - w.lo)[:, None])
    V = V @ w_inv.block_matrix(-(q[:, None] + q + 1))
    R, j = len(V) // n, V.shape[1] // n
    modes = _fold_index(n * (j + R) - 1, n, j + R - 1)
    modes_inv = _fold_index(n * j - 1, n, j - 1)
    i = np.arange(j)
    hankel = _layout_index(modes, 0, i[:, None] + np.arange(1, R + 1))
    toeplitz = _layout_index(modes_inv, 0, i[:, None] - i)
    eye = np.eye(n * j)
    _read_only(V, modes, modes_inv, hankel, toeplitz, eye)
    return _CornerPlan(
        n=n,
        j=j,
        kmax=n * (j + R) - 1,
        kmax_inv=n * j - 1,
        V=V,
        base_norms={ord: _wiener_bound((w, w_inv), ord) for ord in ("fro", 2)},
        modes=modes,
        modes_inv=modes_inv,
        hankel=hankel,
        toeplitz=toeplitz,
        eye=eye,
    )


def _hankel_corner(spec: SymbolSpec, t: TimeVector) -> np.ndarray:
    """The j'-block corner (H(e) V) T(e^-1) of K, after the four-factor Wiener gate.

    _exp_tail bounds e and e^-1 past their bands, the same term on both
    orders, so the Frobenius one stays the larger."""
    plan = _symbol_core(spec)
    t_eff = t.effective(plan.n)
    p = schur_numeric(t_eff, plan.kmax)
    q = schur_numeric(-t_eff, plan.kmax_inv)
    t_abs = np.abs(t_eff)
    tail = _exp_tail(p, t_abs, plan.kmax - plan.n + 2)
    tail_inv = _exp_tail(q, t_abs, plan.kmax_inv - plan.n + 2)
    p, q = np.append(p, 0.0), np.append(q, 0.0)
    _wiener_gate(
        plan.base_norms.get,
        lambda ord: _mode_norms(p[plan.modes], ord) + tail,
        lambda ord: _mode_norms(q[plan.modes_inv], ord) + tail_inv,
    )
    return p[plan.hankel] @ plan.V @ q[plan.toeplitz]


_EPS = float(np.finfo(float).eps)
# radii r >= 1 of the Cauchy bound on the Schur values past exp(xi)'s band
_TAIL_RADII = np.array([1.0, 1.1, 1.25, 1.5, 2.0, 3.0])


def _exp_tail(p: np.ndarray, t_abs: np.ndarray, k0: int) -> float:
    """2 sum_{k>=k0} |p_k(+-t)| >= sum_m ||e_m||_2 of exp(xi(+-t,L)) over the modes
    with no p_k below k0 (p_k sits on two diagonals at most).  p holds the
    Schur values p_0..p_K that the band reads, t_abs the moduli of the times
    as applied; the rest is bounded by r^-(K+1) exp(sum_i |t_i| r^i), the
    least over r in _TAIL_RADII."""
    log_tail = t_abs @ _TAIL_RADII ** np.arange(1, len(t_abs) + 1)[:, None]
    log_tail -= len(p) * np.log(_TAIL_RADII)
    return 2.0 * (float(np.abs(p[k0:]).sum()) + float(np.exp(log_tail.min())))


def _finite_rank(plan: _DayPlan, t: TimeVector) -> StableTauReport:
    """G^j det T_j(g^-1) from the modes -j+1..j-1 of W^-1 exp(xi(-t,L)).

    Those modes are exact sums of W^-1 (base_inverse) against the Schur
    values of exp(xi(-t,L)), one GEMM of the plan (_DayPlan); no circle is
    sampled.  G = det W_0 exactly: W has no positive modes, so log det W
    averages to its value at infinity, and det exp(xi) = exp(n sum_q t_nq
    z^q) averages to 1.

    est_error is the first-order bound sum |G^j adj T|^T o Delta, with
    Delta an entrywise bound of the error of T = T_j(g^-1):
    - the rounding of each mode's sum of L = n width(W^-1) products, and of
      the nj x nj determinant, (L + 2nj) eps times the same sums over the
      moduli of the terms;
    - the modes of W^-1, each known to eps ||W^-1||_W (the round-off of
      its binomial series, rounded once from extended precision, and its
      cut of the modes past its band at 1e-16 ||W^-1||_W, both below
      that), against every mode of exp(xi(-t,L)): sum_m ||e_m||_2 <=
      2 sum_k |p_k(-t)| (_exp_tail).
    """
    t_eff = t.effective(plan.n)
    q = schur_numeric(-t_eff, plan.kmax)
    q_pad = np.append(q, 0.0)
    T = (plan.row @ q_pad[plan.section]).ravel()[plan.corner]
    value = plan.Gj * complex(np.linalg.det(T))
    cond = float(np.linalg.cond(T))
    if not cond <= COND_LIMIT:
        raise NearSingularSymbol(
            f"condition number {cond:.3g} of T_{plan.j}(g^-1) exceeds {COND_LIMIT:g}"
        )
    moduli = plan.row_abs @ np.abs(q_pad).astype(complex)[plan.section]
    delta = plan.scale * moduli.ravel()[plan.corner].real
    delta += plan.w_err * _exp_tail(q, np.abs(t_eff), 0)
    adj = value * np.linalg.inv(T)  # G^j adj T
    est = float(np.sum(np.abs(adj).T * delta))
    return StableTauReport(value, est, "finite_rank", plan.j)


def tau_stable(spec: SymbolSpec, t: TimeVector) -> complex:
    """Value of the stabilized tau at a concrete time vector."""
    return tau_stable_report(spec, t).value


# -- wave (Baker) coefficients ------------------------------------------------


def wave_function(spec: SymbolSpec, N: int, Q: int, orders: int) -> tuple[GradedPoly, ...]:
    """Laurent coefficients of the normalized wave function at level N.

    Entry m is the coefficient of the m-th inverse power in the shifted-time
    quotient tau(t - [shift])/tau(t); entry 0 is identically 1.  The family
    Wronskian (equal to the graded tau) must be a ring unit.
    """
    if orders < 0:
        raise ValueError("orders must be >= 0")
    tau = tau_graded(spec, N, Q)
    if abs(tau.constant_term()) == 0.0:
        raise DegenerateInput("graded tau has zero constant term")
    cs = sato_shift(tau, orders)
    tau_inv = tau.invert()
    return tuple(c * tau_inv for c in cs)
