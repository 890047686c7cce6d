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
from .laurent import COND_LIMIT, COND_SCREEN, LaurentMatrix, gather_modes
from .symbols import (
    INVERSE_CUT,
    SymbolSpec,
    TimeVector,
    base_inverse,
    base_symbol,
    exp_xi_values,
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
    "generator_modes",
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
    """A graded tau polynomial with the spec and truncation it was built at."""

    spec: SymbolSpec
    N: int
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
    return TauSeries(spec=spec, N=N, series=series)


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
    # entry (i, j) of a minor is mode j - part_j of generator i + 1
    minors = generator_modes(spec, N, np.arange(M) - shifted)
    out = np.zeros(len(parts), dtype=complex)
    out[fits] = np.linalg.det(minors)
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


def generator_modes(spec: SymbolSpec, N: int, modes) -> np.ndarray:
    """Modes of the n*N scalar generators: entry (..., q*n + b, k) is mode
    modes[..., k] of generator q*n + b + 1.

    Generator b + 1 is column b of W(z) read as one series in zeta (zeta^n
    = z): component a of its z^k coefficient is its zeta^(n*k + a)
    coefficient, so the (modes, n) array of the first n generators is W's
    coefficient array reshaped in place, lowest mode n*W.lo.  Generator
    q*n + b + 1 is generator b + 1 moved up n*q modes.
    """
    n = spec.n
    w = base_symbol(spec)
    modes = np.asarray(modes, dtype=int)
    picked = gather_modes(
        w.coeffs.reshape(-1, n), n * w.lo, modes[..., None, :] - n * np.arange(N)[:, None]
    )  # (..., N, K, n)
    return np.swapaxes(picked, -1, -2).reshape(*modes.shape[:-1], n * N, modes.shape[-1])


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
    picked = generator_modes(spec, N, n * N - 1 - np.arange(Q + 1))
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
    The magnitudes of Delta_N(1) and of the smallest v_j are reported too:
    the registry row (checks) passes only if neither vanishes, so that the
    factorization is not read off zero operators.  That Delta_N
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


def _mode_norms(stack: np.ndarray, ord) -> float:
    """sum_k ||a_k||_ord over a (modes, n, n) stack."""
    return float(np.linalg.norm(stack, ord, axis=(1, 2)).sum())


@dataclass
class StableTauReport:
    """A stable tau value, the route that produced it and its error bound.

    route is "finite_rank" (Day's formula, T_1(g^-1) read off the poles of
    W^-1, M_used = 1) or "fredholm" (the operator determinant on the
    j'-block window of K, M_used = j' = -W^-1.lo, est_error 0.0: the
    window is exact, the rank-r cut of its fixed factor drops only
    round-off, and round-off is not bounded).  Every field is a Python
    scalar on both routes.
    """

    value: complex
    est_error: float
    route: str
    M_used: int


def tau_stable_report(
    spec: SymbolSpec, t: TimeVector, tol: float = 1e-8
) -> StableTauReport:
    """Large-N limit of the truncated determinants at a concrete time vector.

    For a rational family, W = diag(1 - c_a^2/z) is a polynomial in 1/z, so
    g = exp(xi(t,L)) W has no modes below -1, and the limit is det
    T_1(g^-1) exactly (Day's formula with G = det W_0 = 1).  Row a of that
    section is row a of exp(xi(-t,L(z))) at the pole z = c_a^2 of W^-1
    (_finite_rank).  Otherwise (the covering families) the limit is det(I -
    K), K = H(g) H(g~^-1).  g^-1 = W^-1 e^-1, e = exp(xi(t,L)), has no
    modes below W^-1.lo = -j', so H(g~^-1) vanishes past its j'-block
    corner, and I - K is block lower triangular past the j'-block corner of
    K and has its determinant.  W has no positive modes and e^-1 no
    negative ones, so that corner is H(e) V T(e^-1), V = T(W~) H(W~^-1)
    fixed per spec, and V is X Y of rank r up to its round-off (the plan,
    _symbol_core).  By Sylvester's identity det(I - H(e) X Y T(e^-1)) =
    det(I_r - F), F = (Y T(e^-1)) (H(e) X): a point computes the Schur
    values of e and e^-1 (one sequence when every even time is zero),
    gathers H(e) and T(e^-1) from them by the plan's index arrays, takes
    two thin GEMMs (_corner_factors), F and an r x r determinant; no
    LaurentMatrix is built per point.  fredholm_det gets I_r - F with the
    window size j', the M_used it reports.
    NearSingularSymbol is raised when cond T_1(g^-1) exceeds COND_LIMIT on
    the first route, and on the second when ||W||_W ||W^-1||_W ||e||_W
    ||e^-1||_W, a bound of cond g on the circle, does: a product of four
    floats, two of them the plan's (_corner_factors).  Neither route reads
    tol, kept only for callers that pass one (the benchmark harness): both
    are exact up to round-off.
    """
    if spec.family == "rational":
        return _finite_rank(spec, t)
    plan = _symbol_core(spec)
    left, right = _corner_factors(spec, t)
    fr = fredholm_det(PlemeljOperator(spec.n, plan.j, plan.eye - right @ left))
    return StableTauReport(fr.value, 0.0, "fredholm", fr.M_used)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class _CornerPlan:
    """What a point of the covering route reads besides its Schur values.

    p = p_0..p_kmax(t) and q = p_0..p_kmax_inv(-t) are the modes of e and
    e^-1 as series in zeta = z^(1/n).  W has no positive modes and e^-1 no
    negative ones, so the j'-block corner of K = H(g) H(g~^-1) is H(e) V
    T(e^-1), with V = T(W~) H(W~^-1) on R = j' - W.lo block rows and j'
    block columns, fixed per spec.  X Y is V's thin SVD cut at its r
    singular values above INVERSE_CUT sigma_1 (X = U_r Sigma_r, Y = Vh_r):
    the rest are round-off.  X and YT = Y^T are C-contiguous, so that a
    real matrix multiplies either in one real GEMM (_by_complex).
    p[hankel] is H(e) on j' x R blocks, entry (kn + a, ln + b) p at n(k +
    l + 1) + a - b, at most kmax; q[toeplitz], q with a zero appended, is
    T(e^-1), the lower-triangular scalar Toeplitz matrix of q, the zero
    above its diagonal.  fro_norms and spectral_norms are ||W||_W
    ||W^-1||_W with the Wiener norm ||a||_W = sum_k ||a_k|| taken over
    Frobenius and spectral block norms, the gate's base factor, and eye is
    I_r.
    """

    n: int
    j: int
    kmax: int
    kmax_inv: int
    X: np.ndarray
    YT: np.ndarray
    hankel: np.ndarray
    toeplitz: np.ndarray
    fro_norms: float
    spectral_norms: float
    eye: np.ndarray


@lru_cache
def _symbol_core(spec: SymbolSpec) -> _CornerPlan:
    """The rank-r factor, gather plan and base norms of the covering route
    for spec (cached, read-only).

    Block (k, l) of V is sum_d W_(d-k) W^-1_(-(d+l+1)), as in
    tests/oracles.py::corner_middle.  In the flat indices I = kn + a and C
    = ln + b, entry (I, C) of H(e) is p at I + C + n - 2b, and entry (I,
    I') of T(e^-1) is q at I - I', or the appended zero (index kmax_inv +
    1) where that is negative.
    """
    n = spec.n
    w, w_inv = base_symbol(spec), base_inverse(spec)
    j, lo = -int(w_inv.lo), int(w.lo)
    q = np.arange(j)
    V = w.block_matrix(q - np.arange(j - lo)[:, None]) @ w_inv.block_matrix(-(q[:, None] + q + 1))
    U, s, Vh = np.linalg.svd(V, full_matrices=False)
    r = int(np.count_nonzero(s > INVERSE_CUT * s[0]))
    X, YT = U[:, :r] * s[:r], Vh[:r].T.copy()
    i, c = np.arange(n * j)[:, None], np.arange(len(V))
    hankel = i + c + n - 2 * (c % n)
    toeplitz = i - np.arange(n * j)
    toeplitz[toeplitz < 0] = n * j
    eye = np.eye(r)
    _read_only(X, YT, hankel, toeplitz, eye)
    return _CornerPlan(
        n=n,
        j=j,
        kmax=n * (2 * j - lo) - 1,
        kmax_inv=n * j - 1,
        X=X,
        YT=YT,
        hankel=hankel,
        toeplitz=toeplitz,
        fro_norms=_mode_norms(w.coeffs, "fro") * _mode_norms(w_inv.coeffs, "fro"),
        spectral_norms=_mode_norms(w.coeffs, 2) * _mode_norms(w_inv.coeffs, 2),
        eye=eye,
    )


def _mirrored(t_eff: np.ndarray) -> bool:
    """Whether every even time is zero, so that p_k(-t) = (-1)^k p_k(t)."""
    return not t_eff[1::2].any()


def _schur_pair(t_eff: np.ndarray, kmax: int, kmax_inv: int) -> tuple[np.ndarray, np.ndarray]:
    """Schur values p_0..p_kmax(t) and p_0..p_kmax_inv(-t) (kmax_inv <= kmax) at applied times.

    When every even time is zero, exp(xi(-t,zeta)) = exp(xi(t,-zeta)), so
    p_k(-t) = (-1)^k p_k(t) and the second sequence is the first with its
    odd entries negated: one schur_numeric call, not two.
    """
    p = schur_numeric(t_eff, kmax)
    if not _mirrored(t_eff):
        return p, schur_numeric(-t_eff, kmax_inv)
    q = p[: kmax_inv + 1].copy()
    q[1::2] *= -1.0
    return p, q


def _fro_squares(p: np.ndarray, n: int) -> np.ndarray:
    """||e_q||_F^2 for each mode q of e = exp(xi(+-t,L)) whose Schur values are p.

    ||e_q||_F^2 = sum_{|d|<n} (n - |d|) |p_(nq+d)|^2 (p_d sits on n - |d|
    entries of mode q), so it needs no fold: one convolution of |p|^2 with
    those weights, read at nq + n - 1."""
    weights = n - np.abs(np.arange(1 - n, n))
    return np.convolve(p.real**2 + p.imag**2, weights)[n - 1 : len(p) : n]


def _fro_sum(p: np.ndarray, n: int) -> float:
    """sum_q ||e_q||_F over the modes of e whose Schur values are p."""
    return float(np.sqrt(_fro_squares(p, n)).sum())


def _spectral_sum(p: np.ndarray, n: int) -> float:
    """sum_q ||e_q||_2 over the same modes, from the fold of p into n x n blocks."""
    return _mode_norms(fold(p, 0, n, (0, len(p) // n - 1)), 2)


def _gate_terms(
    p: np.ndarray, q: np.ndarray, n: int, t_abs: np.ndarray, mirrored: bool
) -> tuple[float, float, float, float]:
    """_fro_sum of p and q, then _exp_tail of p and q (k0 = len - n + 1).

    When q mirrors p (_schur_pair), |q| is |p| on q's length, and the
    convolution of |p|^2 read at nq + n - 1 < len(q) is that of |q|^2, so
    q's two terms come from p's |p|^2 and |p|, bit for bit."""
    sq = _fro_squares(p, n)
    if mirrored:  # q's moduli are those of p's head
        fro_inv, q = float(np.sqrt(sq[: len(q) // n]).sum()), p[: len(q)]
    else:
        fro_inv = _fro_sum(q, n)
    return (
        float(np.sqrt(sq).sum()),
        fro_inv,
        _exp_tail(p, t_abs, len(p) - n + 1),
        _exp_tail(q, t_abs, len(q) - n + 1),
    )


def _corner_factors(spec: SymbolSpec, t: TimeVector) -> tuple[np.ndarray, np.ndarray]:
    """H(e) X and Y T(e^-1), whose product is the j'-block corner of K, after
    the four-factor Wiener gate.

    ||a||_W = sum_k ||a_k||_2 bounds the spectral norm of a(z) on the
    circle and is submultiplicative, so ||W||_W ||W^-1||_W ||e||_W
    ||e^-1||_W bounds cond g there; NearSingularSymbol is raised when it
    exceeds COND_LIMIT.  ||a_k||_F >= ||a_k||_2, so the same product over
    Frobenius norms bounds it in turn and screens without an SVD per block:
    only above COND_SCREEN are the spectral sums taken, and they decide.
    _exp_tail bounds e and e^-1 past their bands; it adds the same term to
    both orders, so the Frobenius product stays the larger."""
    plan = _symbol_core(spec)
    n = plan.n
    t_eff = t.effective(n)
    p, q = _schur_pair(t_eff, plan.kmax, plan.kmax_inv)
    fro, fro_inv, tail, tail_inv = _gate_terms(p, q, n, np.abs(t_eff), _mirrored(t_eff))
    # not <=, so that the screen clears no NaN bound
    if not plan.fro_norms * (fro + tail) * (fro_inv + tail_inv) <= COND_SCREEN:
        cond = plan.spectral_norms * (_spectral_sum(p, n) + tail) * (_spectral_sum(q, n) + tail_inv)
        if cond > COND_LIMIT:
            raise NearSingularSymbol(
                f"Wiener-norm condition bound {cond:.3g} exceeds {COND_LIMIT:g}"
            )
    if not t_eff.imag.any():  # real times: real Schur values, real GEMMs
        p, q = p.real, q.real
    left = _by_complex(p[plan.hankel], plan.X)
    return left, _by_complex(np.append(q, 0.0)[plan.toeplitz].T, plan.YT).T


def _by_complex(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a C-contiguous complex b.  A real a multiplies b's interleaved
    real and imaginary parts, b.view(float), in one real GEMM: half the
    multiplies of the complex one, and the product is that view's pairs."""
    if np.iscomplexobj(a):
        return a @ b
    return (a @ b.view(float)).view(complex)


_EPS = float(np.finfo(float).eps)
# radii r >= 1 of the Cauchy bound on the Schur values past exp(xi)'s band
_TAIL_RADII = np.array([1.0, 1.1, 1.25, 1.5, 2.0, 3.0])
_LOG_TAIL_RADII = np.log(_TAIL_RADII)


@lru_cache
def _tail_powers(K: int) -> np.ndarray:
    """r^i for i = 1..K (rows) and r in _TAIL_RADII (columns); read-only."""
    out = _TAIL_RADII ** np.arange(1, K + 1)[:, None]
    _read_only(out)
    return out


def _exp_tail(p: np.ndarray, t_abs: np.ndarray, k0: int) -> float:
    """2 sum_{k>=k0} |p_k(+-t)| >= sum_m ||e_m||_2 of exp(xi(+-t,L)) over the modes
    with no p_k below k0 (p_k sits on two diagonals at most).  p holds the
    Schur values p_0..p_K that the band reads, t_abs the moduli of the times
    as applied; the rest is bounded by r^-(K+1) exp(sum_i |t_i| r^i), the
    least over r in _TAIL_RADII."""
    log_tail = t_abs @ _tail_powers(len(t_abs)) - len(p) * _LOG_TAIL_RADII
    return 2.0 * (float(np.abs(p[k0:]).sum()) + float(np.exp(log_tail.min())))


def _finite_rank(spec: SymbolSpec, t: TimeVector) -> StableTauReport:
    """det T_1(g^-1) for rational W = diag(1 - c_a^2/z), by residues.

    Row a of T_1(g^-1), mode 0 of W^-1 exp(xi(-t,L)), is (1/2 pi i) times
    the contour integral of row a of exp(xi(-t,L(z))) dz / (z - c_a^2):
    W^-1 = diag(z / (z - c_a^2)) has its one pole inside the circle and
    exp(xi(-t,L(z))) is entire.  So it is row a of exp(xi(-t,L)) at z =
    c_a^2, the closed form of exp_xi_values: no W^-1 series, no Schur
    values.  G = det W_0 = 1 (Day's G^j with j = 1).

    Entry (a, b) of that closed form is zeta^d c_(d mod n), d = b - a,
    zeta = (c_a^2)^(1/n), c the inverse DFT of exp(-xi) over the n roots
    zeta w^i.  By Parseval ||c||_2, which row a of T holds, is the root
    mean square of those exponentials, so an error of each relative to its
    modulus moves c by at most that much times ||c||_2.  With X = sum_k
    |t_k| |zeta|^k over the K times, est_error is the first-order bound
    sum |adj T|^T o Delta, Delta_ab = |zeta|^d ||c||_2 (5 K X + 8 n + 2) eps:
    - Horner's sum of xi, 2 K eps X, and the roots zeta w^i, each 3 eps
      off (power, exponential, product), 3 K eps X through their powers;
    - the exponential, eps, and the n-point DFT, n eps of ||c||_2;
    - the powers zeta^d, 4 n eps, and their product with c, eps;
    - the n x n determinant, 3 n eps of the moduli.
    """
    n, i = spec.n, np.arange(spec.n)
    z = np.array(spec.params) ** 2
    T = exp_xi_values(t.negated(), n, z)[i, i]
    value = complex(np.linalg.det(T))
    sv = np.linalg.svd(T, compute_uv=False)
    if not sv[0] <= COND_LIMIT * sv[-1]:
        raise NearSingularSymbol(
            f"condition number {sv[0] / sv[-1]:.3g} of T_1(g^-1) exceeds {COND_LIMIT:g}"
        )
    t_abs = np.abs(t.effective(n))
    r = np.abs(z)[:, None] ** (1.0 / n)  # |zeta| of each row
    power = r ** (i - i[:, None])  # |zeta|^(b - a)
    c_norm = np.sqrt(np.sum((np.abs(T) / power) ** 2, axis=1, keepdims=True))
    xi_abs = r ** np.arange(1, len(t_abs) + 1) @ t_abs[:, None]
    delta = power * (_EPS * c_norm * (5 * len(t_abs) * xi_abs + 8 * n + 2))
    est = float(np.sum(np.abs(value * np.linalg.inv(T)).T * delta))
    return StableTauReport(value, est, "finite_rank", 1)


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
