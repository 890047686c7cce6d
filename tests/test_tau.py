"""Tau functions: routes, structure of the generator family, stable values."""

import gc
from itertools import islice, product
from math import ceil, factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blocktau import checks, cli, gradedpoly
from blocktau.errors import NearSingularSymbol, TruncationError
from blocktau.factorization import deformed_symbol_samples
from blocktau.gradedpoly import (
    evaluate,
    gp_const,
    gp_time,
    hirota_kdv_residual,
    partitions_upto,
    schur_sequence,
    zero_times,
)
from blocktau.laurent import geometric_mean
from blocktau.symbols import (
    INVERSE_CUT,
    base_inverse,
    base_symbol,
    covering_spec,
    exp_xi_lambda,
    gd_symbol,
    rational_spec,
    time_vector,
)
from blocktau.tau import (
    character_expansion,
    coefficient_gap,
    delta_action,
    f_family,
    kernel_facts_check,
    max_abs_coeff,
    stability_check,
    stable_tau_graded,
    tau_graded,
    tau_numeric,
    tau_series,
    tau_stable,
    tau_stable_report,
    wave_function,
    wronskian_tau,
)
from blocktau import tau as tau_module
from blocktau.toeplitz import (
    fredholm_det,
    hankel_product_matrix,
    plemelj_fourier,
    truncation_dets,
)
from oracles import (
    COVERING_TAU_32,
    block_layout,
    corner_middle,
    full_v_corner_tau,
    gd_symbol_inverse,
    hankel_corner_reference,
    rational_tau_mpmath,
    stable_tau_reference,
    tau_graded_elimination,
)

RSPEC = rational_spec([0.3, 0.6])
CSPEC = covering_spec([0.3, -0.25, 0.35j], 2)
RSPEC3 = rational_spec([0.3, 0.6, 0.9])
CSPEC3 = covering_spec([0.3, -0.25, 0.35j, -0.2 - 0.15j], 3)
# the n = 3 covering whose stable tau loses digits past s ~ 6 along DIAG3
CSPEC3B = covering_spec([0.3, -0.25, 0.35j, 0.2 + 0.2j], 3)
CSPEC4 = covering_spec([0.3, -0.25, 0.35j, 0.2 + 0.2j, -0.15j], 4)
# the covering with roots of modulus <= 0.05 has its cut W end at mode -11
SMALL_COVERING = covering_spec([0.05, -0.04, 0.03j], 2)
DIAG, DIAG3 = (1, 0, 0.5, 0, 0.25), (1, 0.5, 0, 0.25, 0.1)
D, C = 0.3, 0.6


def _tau_closed_all_times(t, d=D, c=C):
    """The 2-soliton closed form of rational_spec([d, c]) in every odd time."""
    th_d = sum(tk * d ** (k + 1) for k, tk in enumerate(t) if k % 2 == 0)
    th_c = sum(tk * c ** (k + 1) for k, tk in enumerate(t) if k % 2 == 0)
    return np.cosh(th_d) * np.cosh(th_c) - (d / c) * np.sinh(th_d) * np.sinh(th_c)


def _tau_closed(t1, t3):
    return _tau_closed_all_times((t1, 0.0, t3))


def _tau_closed_t1_coefficient(k):
    """Coefficient of t1^k (k even) in the closed form at t3 = 0.

    cosh a cosh b - (D/C) sinh a sinh b
      = (1 - D/C)/2 cosh(a + b) + (1 + D/C)/2 cosh(a - b).
    """
    return ((1 - D / C) * (D + C) ** k + (1 + D / C) * (D - C) ** k) / (2 * factorial(k))


# -- generator family structure ----------------------------------------------


def test_f_family_explicit_low_level():
    Q = K = 6
    ps = [zero_times(p, [2, 4, 6]) for p in schur_sequence(K, Q)]
    ff1 = f_family(RSPEC, 1, Q)
    assert coefficient_gap(ff1.funcs[0], ps[1] - D**2 * ps[3]) < 1e-15
    assert coefficient_gap(ff1.funcs[1], gp_const(K, Q, 1.0) - C**2 * ps[2]) < 1e-15


def test_f_family_shift_symmetry():
    # f_{s,N+1} = f_{s-n,N}: raising the level shifts the column index by n
    ff1 = f_family(RSPEC, 1, 6)
    ff2 = f_family(RSPEC, 2, 6)
    for s in (3, 4):
        assert coefficient_gap(ff2.funcs[s - 1], ff1.funcs[s - 2 - 1]) < 1e-15


def test_f_family_derivative_raises_index():
    # D^n f_{s,N} = f_{s+n,N} (differentiation raises, not lowers)
    ff1 = f_family(RSPEC, 1, 6)
    ps = [zero_times(p, [2, 4, 6]) for p in schur_sequence(6, 6)]
    d2f = ff1.funcs[0].derivative(1).derivative(1)
    f31 = -(D**2) * ps[1]
    assert coefficient_gap(d2f, f31) < 1e-15


def _generator_mode(spec, s, m):
    """Mode m of generator s (1-based): entry (a, b) of W's z^k block, with
    b = (s-1) % n, q = (s-1) // n and nk + a = m - nq."""
    q, b = divmod(s - 1, spec.n)
    k, a = divmod(m - spec.n * q, spec.n)
    return base_symbol(spec).block(k)[a, b]


@pytest.mark.parametrize("spec", [RSPEC, CSPEC], ids=["rational", "covering"])
@pytest.mark.parametrize("reduced", [True, False], ids=["reduced", "full"])
def test_f_family_matches_generator_mode_sum(spec, reduced):
    N, Q, K = 2, 7, 5
    ps = schur_sequence(K, Q)
    if reduced:
        ps = [zero_times(p, range(spec.n, K + 1, spec.n)) for p in ps]
    ff = f_family(spec, N, Q, K=K, gd_reduced=reduced)
    nN = spec.n * N
    for s, f in enumerate(ff.funcs, start=1):
        want = sum(ps[k] * _generator_mode(spec, s, nN - 1 - k) for k in range(Q + 1))
        assert coefficient_gap(f, want) <= 1e-15


@pytest.mark.parametrize("spec", [RSPEC, CSPEC], ids=["rational", "covering"])
def test_character_expansion_matches_minor_loop(spec):
    N, Q = 2, 6
    M = spec.n * N
    got = character_expansion(spec, N, Q)
    lams = list(partitions_upto(Q))  # the (Q, Q) basis order
    assert got.shape == (len(lams),)
    for lam, c in zip(lams, got):
        if len(lam) > M:
            assert c == 0.0
            continue
        parts = list(lam) + [0] * (M - len(lam))
        mat = np.empty((M, M), dtype=complex)
        for i in range(M):
            for j in range(M):
                mat[i, j] = _generator_mode(spec, i + 1, j - parts[j])
        assert abs(c - np.linalg.det(mat)) <= 1e-14


def test_delta_action_annihilates_family():
    ff2 = f_family(RSPEC, 2, 6)
    dg = delta_action(ff2, ff2.funcs[2])
    assert max_abs_coeff(dg) < 1e-13


# -- route equality ----------------------------------------------------------


def test_triple_route_full_ring():
    routes = [
        tau_series(RSPEC, 2, 6, representation=r, gd_reduced=False).series
        for r in ("graded", "character", "wronskian")
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert coefficient_gap(routes[i], routes[j]) < 1e-12


@pytest.mark.parametrize(
    "spec", [RSPEC, CSPEC, RSPEC3], ids=["rational", "covering", "rational3"]
)
def test_character_route_runs_no_ring_determinant(spec, monkeypatch):
    want = tau_series(spec, 2, 8, representation="graded", gd_reduced=False).series

    def refuse(*args, **kwargs):
        raise AssertionError("the character route took a ring determinant")

    monkeypatch.setattr(gradedpoly, "gp_det", refuse)
    monkeypatch.setattr(gradedpoly, "_det", refuse)
    monkeypatch.setattr(gradedpoly, "_gp_det_free", refuse)
    monkeypatch.setattr(tau_module, "gp_det", refuse)
    monkeypatch.setattr(tau_module, "_det", refuse)
    got = tau_series(spec, 2, 8, representation="character", gd_reduced=False).series
    assert coefficient_gap(got, want) < 1e-12


@pytest.mark.parametrize("N", [1, 2])
def test_wronskian_route_needs_t1(N):
    for r in ("graded", "character"):
        series = tau_series(RSPEC, N, 0, representation=r, gd_reduced=False).series
        assert abs(series.constant_term() - 1.0) < 1e-14
    with pytest.raises(ValueError, match="t_1"):
        tau_series(RSPEC, N, 0, representation="wronskian", gd_reduced=False)


@pytest.mark.parametrize(
    "spec, Q, head",
    [(RSPEC, 6, 0), (CSPEC, 4, 4), (CSPEC3, 4, 6)],
    ids=["rational", "covering", "covering3"],
)
def test_reduced_triple_route(spec, Q, head):
    # each route freezes t_n, t_2n, ... in its full series; the Wronskian
    # route needs n*N weights of headroom for the covering family, as in
    # the triple_route_equality row
    routes = [
        tau_series(spec, 2, Q + head, representation=r, gd_reduced=True).series
        for r in ("graded", "character", "wronskian")
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert coefficient_gap(routes[i], routes[j], upto=Q) < 1e-10


def test_reduced_graded_vs_wronskian():
    tg = tau_graded(RSPEC, 2, 6)
    tw = wronskian_tau(f_family(RSPEC, 2, 6))
    assert coefficient_gap(tg, tw) < 1e-12


def test_wronskian_route_headroom():
    # products of derivative towers corrupt the top n*N weights under a
    # hard cap; below that the routes agree identically
    Q = 4
    tg = tau_graded(CSPEC, 2, Q + 4, gd_reduced=False)
    tw = wronskian_tau(f_family(CSPEC, 2, Q + 4, gd_reduced=False))
    assert coefficient_gap(tg, tw, upto=Q) < 1e-12


def test_numeric_equals_graded_evaluation():
    tv = time_vector((0.08, 0.0, -0.05, 0.0, 0.03))
    tau_n = tau_numeric(RSPEC, tv, 2)
    tau_g = tau_graded(RSPEC, 2, 10)
    val = evaluate(tau_g, list(tv.values) + [0.0] * 5)
    assert abs(tau_n - val) < 1e-9


@pytest.mark.parametrize("spec", [RSPEC3, CSPEC3], ids=["rational", "covering"])
def test_numeric_equals_graded_evaluation_n3(spec):
    # stable N = ceil(Q/3): both families take the r x r side of the rank-r
    # identity (3 x 3 and 8 x 8); t_k = s^k / k keeps the part of tau above
    # weight Q near s^(Q+1)
    N, Q = 4, 12
    tv = time_vector([0.2**k / k for k in range(1, 6)])
    tau_n = tau_numeric(spec, tv, N)
    tau_g = tau_graded(spec, N, Q)
    val = evaluate(tau_g, list(tv.effective(3)) + [0.0] * (Q - 5))
    assert abs(tau_n - 1.0) > 1e-3  # the times move tau
    assert abs(tau_n - val) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [RSPEC, RSPEC3, CSPEC, CSPEC3],
    ids=["full-rational", "full-rational3", "full-covering", "full-covering3"],
)
def test_low_rank_graded_tau_equals_elimination(spec):
    # N runs past the stable level ceil(Q/n), so the covering family takes
    # both sides of the rank-r identity: nN x nN below it, r x r from it on
    for Q in (4, 8, 12, 16):
        for N in range(1, ceil(Q / spec.n) + 3):
            got = tau_graded(spec, N, Q, gd_reduced=False)
            want = tau_graded_elimination(spec, N, Q)
            assert coefficient_gap(got, want) <= 1e-13 * max_abs_coeff(want), (Q, N)


def _lowest_weights(work, Q):
    """Lowest weight present in each entry of a ring matrix minus I (Q + 1 if none)."""
    weights = gradedpoly._basis(Q, Q).weights
    out = np.empty(work.shape[:2], dtype=int)
    for i, j in np.ndindex(out.shape):
        c = work[i, j].copy()
        c[0] -= i == j
        nz = np.flatnonzero(c)
        out[i, j] = weights[nz[0]] if len(nz) else Q + 1
    return out


def _falls_along_rows(low, Q):
    """The lowest weights of the nonzero entries strictly fall along every row."""
    return all(np.all(np.diff(row[row <= Q]) < 0) for row in low)


@pytest.mark.parametrize(
    "spec, N, side, det_size",
    [
        (RSPEC, 1, "r", 2),  # r = n = nN: the boundary takes the r x r side
        (RSPEC, 2, "r", 2),
        (RSPEC, 5, "r", 2),
        (RSPEC3, 2, "r", 3),
        (CSPEC, 2, "nN", 2),  # r = n ceil(8/n) = 8 > nN = 4
        (CSPEC, 4, "r", 4),  # stable N = ceil(Q/n): r = nN
        (CSPEC, 5, "r", 4),
        (CSPEC3, 2, "nN", 4),
        (CSPEC3, 3, "r", 6),
    ],
    ids=[
        "rat-N1", "rat-N2", "rat-N5", "rat3-N2",
        "cov-N2", "cov-N4", "cov-N5", "cov3-N2", "cov3-N3",
    ],
)
def test_graded_tau_path_choice(monkeypatch, spec, N, side, det_size):
    # Q = 8: r = n min(-W.lo, ceil(8/n)) is n for the rational family and
    # n ceil(8/n) for the covering family, whose W has a deep negative band;
    # there V T_N(W)^-1 vanishes on half its rows and half its columns, which
    # both sides drop, so the covering sizes are half of r and nN.  Entry
    # (a, m) of I_r + V T^-1 U starts at weight >= m and entry (i, j) of
    # I_nN + U V T^-1 at weight >= i + 1; gp_det gets the heavy end first,
    # so lowest weights fall along the rows on the r x r side and down the
    # columns on the nN x nN side.
    mats = []
    real_det = tau_module._det
    monkeypatch.setattr(
        tau_module, "_det", lambda work, K, Q: mats.append(work.copy()) or real_det(work, K, Q)
    )
    tau_graded(spec, N, 8)
    assert [len(work) for work in mats] == [det_size]
    low = _lowest_weights(mats[0], 8)
    assert (_falls_along_rows(low, 8), _falls_along_rows(low.T, 8)) == (
        side == "r",
        side == "nN",
    )


def test_covering_graded_tau_skips_most_ring_products(monkeypatch):
    # stable covering tau at Q = 12: the columns of its 6 x 6 ring matrix
    # start at weights 12, 10, ..., 2, so most products pass Q and the rest
    # form only their weight windows; count the pairs each product forms
    pairs = []
    real_mul, real_window_mul = gradedpoly._mul, gradedpoly._window_mul

    def spy_mul(a, b, K, Q):
        pairs[-1] += len(gradedpoly._product_table(K, Q)[0])
        return real_mul(a, b, K, Q)

    def spy_window_mul(a, b, K, Q, va, vb):
        pairs[-1] += len(gradedpoly._window(K, Q, va, vb)[0])
        return real_window_mul(a, b, K, Q, va, vb)

    tau_graded(CSPEC, 6, 12, gd_reduced=False)  # the cached tables
    monkeypatch.setattr(gradedpoly, "_mul", spy_mul)
    monkeypatch.setattr(gradedpoly, "_window_mul", spy_window_mul)
    pairs.append(0)
    tau_graded_elimination(CSPEC, 6, 12)
    pairs.append(0)
    tau_graded(CSPEC, 6, 12, gd_reduced=False)
    assert 0 < pairs[1] <= pairs[0] / 3


def test_tau_normalization_at_zero():
    for spec in (RSPEC, CSPEC):
        tv = time_vector([0.0] * (2 * spec.n + 1))
        for N in (1, 2, 3, 4):
            assert abs(tau_numeric(spec, tv, N) - 1.0) < 1e-12


# -- stabilization -----------------------------------------------------------


def test_stabilization_both_families():
    for spec in (RSPEC, CSPEC):
        for N in (2, 3):
            assert stability_check(spec, N, 3).max_gap <= 1e-12


def test_stabilization_early():
    # coefficients freeze once n*N >= Q, earlier than the sufficient N >= Q
    rep = stability_check(RSPEC, 2, 4)
    assert rep.max_gap < 1e-12


# -- stable values and solitons ----------------------------------------------


def test_two_soliton_closed_form():
    for t1, t3 in [(0.0, 0.0), (0.5, 0.5), (-0.5, 0.25), (0.3, -0.2)]:
        got = tau_stable(RSPEC, time_vector((t1, 0.0, t3)))
        want = _tau_closed(t1, t3)
        assert abs(got - want) / abs(want) < 1e-8


@pytest.mark.parametrize(
    "direction, s",
    [((1, 0, 0.5, 0, 0.25), 5.4), ((1, 0, 0.5, 0, 0.25), 7.0), ((0, 0, 1, 0, 0), 10.5)],
    ids=["diagonal-5.4", "diagonal-7", "t3-10.5"],
)
def test_stable_tau_far_from_the_origin(direction, s):
    # the sampled inverse symbol was 7.7e-8, 2.8e-5 and 8.5e-4 off here
    t = [s * d for d in direction]
    got = tau_stable(RSPEC, time_vector(t))
    want = _tau_closed_all_times(t)
    assert abs(got - want) / abs(want) < 1e-8


def test_stable_tau_with_a_slowly_decaying_base_inverse():
    # W^-1 = diag(sum (c^2/z)^k) with c = 0.99 needs ~1700 modes; the sampled
    # inverse cut to the symbol band was 3.6e-6 off
    t = [0.5, 0.0, 0.25, 0.0, 0.125]
    got = tau_stable(rational_spec([0.99, 0.2]), time_vector(t))
    want = _tau_closed_all_times(t, 0.99, 0.2)
    assert abs(got - want) / abs(want) < 1e-12


def test_covering_stable_tau_matches_a_deep_section():
    # a route with no inverse symbol at all: D_40 / G^40 on band +-40
    tv = time_vector([5.8 * d for d in (1, 0, 0.5, 0, 0.25)])
    lm = gd_symbol(CSPEC, tv, (-40, 40), exact_only=True)
    G = geometric_mean(deformed_symbol_samples(CSPEC, tv, 4096))
    d40 = next(islice(truncation_dets(lm), 39, None))
    want = d40 / G**40
    got = tau_stable(CSPEC, tv)
    assert abs(got - want) / abs(want) < 1e-6


@pytest.mark.parametrize(
    "spec, direction, s",
    [
        pytest.param(CSPEC, DIAG, 5.8, id="5.8"),
        pytest.param(CSPEC, DIAG, 6.5, id="6.5"),
        pytest.param(CSPEC3B, DIAG3, 1.0, id="n3-1"),
        pytest.param(CSPEC3B, DIAG3, 4.0, id="n3-4"),
    ],
)
def test_covering_stable_tau_matches_a_wide_band(spec, direction, s):
    # the operator determinant of the pair g, g^-1 banded far past every
    # mode the Hankel product reads, on its exact window of g.hi blocks
    tv = time_vector([s * d for d in direction])
    lm = gd_symbol(spec, tv, (-160, 160))
    lm_inv = gd_symbol_inverse(spec, tv, (-168, 168))
    want = fredholm_det(plemelj_fourier(lm, lm_inv, lm.hi)).value
    got = tau_stable(spec, tv)
    assert abs(got - want) / abs(want) < 1e-11


# the error the covering route may keep, by s: it grows with cond(I - K),
# 7e7 to 2e13 over these points, from the cut of W^-1 (n = 2) and the
# round-off of the products (n = 3)
COVERING_TAU_BOUND = {6.0: 1e-9, 7.0: 1e-8, 7.5: 3e-8, 8.0: 3e-8}


@pytest.mark.parametrize(
    "roots, n, direction, s, want",
    COVERING_TAU_32,
    ids=[f"n{ref[1]}-{ref[3]:g}" for ref in COVERING_TAU_32],
)
def test_covering_stable_tau_meets_the_32_digit_references(roots, n, direction, s, want):
    got = tau_stable(covering_spec(roots, n), time_vector([s * d for d in direction]))
    assert abs(got - want) / abs(want) <= COVERING_TAU_BOUND[s]


@pytest.mark.parametrize(
    "spec, tv, calls",
    [
        pytest.param(CSPEC, time_vector([4.0 * d for d in DIAG]), 1, id="n2-reduced"),
        pytest.param(
            CSPEC, time_vector([-3.0, 0.0, 1.5, 0.0, -0.75]), 1, id="n2-reduced-mixed-sign"
        ),
        pytest.param(CSPEC, time_vector([0.6, 0.3, -0.2], gd_reduced=False), 2, id="n2-t2"),
        pytest.param(CSPEC3B, time_vector([4.0 * d for d in DIAG3]), 2, id="n3"),
    ],
)
def test_inverse_schur_values_come_from_one_sequence_when_even_times_vanish(
    monkeypatch, spec, tv, calls
):
    # p_k(-t) = (-1)^k p_k(t) when every even time is zero; otherwise e^-1
    # has its own sequence, and either way it is schur_numeric(-t)'s
    seen, schur = [], tau_module.schur_numeric
    monkeypatch.setattr(tau_module, "schur_numeric", lambda *a: (seen.append(a), schur(*a))[1])
    tau_stable_report(spec, tv)
    assert len(seen) == calls
    plan, t_eff = tau_module._symbol_core(spec), tv.effective(spec.n)
    p, q = tau_module._schur_pair(t_eff, plan.kmax, plan.kmax_inv)
    assert np.array_equal(p, schur(t_eff, plan.kmax))
    want = schur(-t_eff, plan.kmax_inv)
    assert np.abs(q - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("s", [1.0, 4.0, 5.8])
@pytest.mark.parametrize("spec, direction", [(CSPEC, DIAG), (CSPEC3B, DIAG3)], ids=["n2", "n3"])
def test_hankel_corner_is_the_wide_band_product(spec, direction, s):
    # K = H(g) H(g~^-1) on blocks 0..j'-1, j' = -W^-1.lo, with no column past j'
    tv = time_vector([s * d for d in direction])
    j = -base_inverse(spec).lo
    lm = gd_symbol(spec, tv, (-160, 160))
    lm_inv = gd_symbol_inverse(spec, tv, (-168, 168))
    wide = hankel_product_matrix(lm, lm_inv, range(j), range(j + 8))
    nj = spec.n * j
    assert not wide[:, nj:].any()
    left, right = tau_module._corner_factors(spec, tv)
    assert np.abs(left @ right - wide[:, :nj]).max() <= 1e-13 * np.abs(wide).max()


def _live(V):
    """The rows and columns of V with a nonzero entry, the ones the plan keeps."""
    return np.flatnonzero(V.any(axis=1)), np.flatnonzero(V.any(axis=0))


@pytest.mark.parametrize(
    "spec, direction", [(CSPEC, DIAG), (CSPEC3B, DIAG3), (CSPEC4, DIAG)], ids=["n2", "n3", "n4"]
)
def test_corner_gathers_are_the_block_layouts_of_e(spec, direction):
    # p[hankel] is H(e) on j' x R blocks, block (k, l) mode k + l + 1 of e,
    # on the columns of V's live rows, and q[toeplitz] is T(e^-1) on j' x j'
    # blocks, block (k, l) mode k - l of e^-1, on the rows of V's live
    # columns, transposed: every entry one Schur value, so an index off by
    # one shows at O(max|p|)
    plan, n, V = tau_module._symbol_core(spec), spec.n, corner_middle(spec)
    tv = time_vector([2.0 * d for d in direction])
    p, q = tau_module._schur_pair(tv.effective(n), plan.kmax, plan.kmax_inv)
    j, R = plan.j, len(V) // n
    rows, cols = _live(V)
    i = np.arange(j)
    e, e_inv = exp_xi_lambda(tv, n, j + R - 1), exp_xi_lambda(tv.negated(), n, j - 1)
    h = block_layout(e.coeffs, e.lo, i[:, None] + np.arange(1, R + 1))
    toe = block_layout(e_inv.coeffs, e_inv.lo, i[:, None] - i)
    assert np.abs(p[plan.hankel] - h[:, rows]).max() <= 1e-15 * np.abs(h).max()
    got = np.append(q, 0.0)[plan.toeplitz]
    assert np.abs(got - toe[cols].T).max() <= 1e-15 * np.abs(toe).max()


@pytest.mark.parametrize(
    "spec",
    [CSPEC, CSPEC3, CSPEC3B, CSPEC4, SMALL_COVERING],
    ids=["n2", "n3", "n3b", "n4", "n2-small"],
)
def test_corner_drops_only_the_zero_rows_and_columns_of_V(spec):
    # W and W^-1 are diagonal with component 0 the constant 1, so V's rows
    # and columns of component 0 are exactly zero and the rest are live;
    # X Y with those zeros put back is V up to its round-off
    plan, n, V = tau_module._symbol_core(spec), spec.n, corner_middle(spec)
    rows, cols = _live(V)
    assert np.array_equal(rows, np.flatnonzero(np.arange(len(V)) % n))
    assert np.array_equal(cols, np.flatnonzero(np.arange(V.shape[1]) % n))
    assert (len(plan.X), len(plan.YT)) == (len(rows), len(cols))
    full = np.zeros_like(V)
    full[np.ix_(rows, cols)] = plan.X @ plan.YT.T
    sigma = np.linalg.norm(V, 2)
    assert np.linalg.norm(full - V, 2) <= 32 * np.finfo(float).eps * sigma


@pytest.mark.parametrize("spec", [CSPEC, CSPEC3B, CSPEC4], ids=["n2", "n3", "n4"])
def test_corner_factor_is_V_up_to_its_round_off(spec):
    # X Y keeps one column and row per singular value of V's live block
    # above INVERSE_CUT sigma_1 (22, 34 and 47 of 32, 66 and 96 here) and
    # drops the rest, each below eps sigma_1 / 2.  LAPACK's SVD is backward
    # stable, the exact SVD of V + E with ||E||_2 a modest multiple of eps
    # ||V||_2 (LAPACK Users' Guide, sec. 4.9), so ||X Y - V||_2 is that
    # backward error plus sigma_(r+1): 0.9, 13.6 and 2.8 eps sigma_1 here
    plan, V = tau_module._symbol_core(spec), corner_middle(spec)
    V = V[np.ix_(*_live(V))]
    sv = np.linalg.svd(V, full_matrices=False)[1]
    r = plan.X.shape[1]
    assert plan.X.shape == (len(V), r) and plan.YT.shape == (V.shape[1], r)
    assert r == np.count_nonzero(sv > INVERSE_CUT * sv[0])
    assert np.linalg.norm(plan.X @ plan.YT.T - V, 2) <= 32 * np.finfo(float).eps * sv[0]


@pytest.mark.parametrize(
    "spec", [CSPEC, CSPEC3, CSPEC3B, CSPEC4], ids=["n2", "n3", "n3b", "n4"]
)
def test_live_corner_meets_the_full_V_plan(spec):
    # the plan's rank-r factor of V's live block, against the one of the
    # whole V (the route's layout before it dropped V's zero rows and
    # columns): the SVDs differ in round-off, so the values may differ by
    # the conditioning of I - K, along one-phase, mixed-sign and complex
    # directions, GD-reduced and full times
    eps = np.finfo(float).eps
    directions = [DIAG, DIAG3, (-1, 0.3, 0.5, -0.2, 0.25), (1, 0.2j, 0.5j, 0, -0.25)]
    for direction, s, reduced in product(directions, (0.5, 3.0, 6.0), (True, False)):
        tv = time_vector([s * d for d in direction], reduced)
        got, want = tau_stable(spec, tv), full_v_corner_tau(spec, tv)
        K = hankel_corner_reference(spec, tv)
        cond = np.linalg.cond(np.eye(len(K)) - K, 1)
        assert abs(got - want) <= 8 * eps * cond * abs(want)


@pytest.mark.parametrize("spec", [CSPEC, CSPEC3B, CSPEC4], ids=["n2", "n3", "n4"])
@pytest.mark.parametrize("t3", [0.5, 0.5j], ids=["real", "complex"])
def test_corner_factors_meet_the_reference_at_real_and_complex_times(spec, t3):
    # real times give real Schur values, which multiply X and Y^T's real and
    # imaginary parts in real GEMMs; complex ones keep the complex GEMMs
    tv = time_vector([1.5, 0.0, t3, 0.0, 0.25])
    left, right = tau_module._corner_factors(spec, tv)
    ref = hankel_corner_reference(spec, tv)
    assert np.abs(left @ right - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("s", [5.8, 7.0, 7.5])
def test_covering_gate_bounds_the_band_pair(monkeypatch, s):
    # ||W||_W ||W^-1||_W ||e||_W ||e^-1||_W >= ||g||_W ||g^-1||_W of any band,
    # here the pair g, g^-1 on the band B = 32 that the gate once read
    tv = time_vector([s * d for d in DIAG])
    seen, exp_tails = [], tau_module._exp_tails

    def spy(*args):
        seen.append(exp_tails(*args))
        return seen[-1]

    monkeypatch.setattr(tau_module, "_exp_tails", spy)
    tau_stable(CSPEC, tv)
    ((_, (tail, tail_inv)),) = seen  # the tails of e and e^-1
    plan = tau_module._symbol_core(CSPEC)
    p, q = tau_module._schur_pair(tv.effective(2), plan.kmax, plan.kmax_inv)
    four = (
        plan.spectral_norms
        * (tau_module._spectral_sum(p, 2) + tail)
        * (tau_module._spectral_sum(q, 2) + tail_inv)
    )
    with pytest.raises(TruncationError):  # p_k(-t), k > 80, feed the modes past 40
        gd_symbol_inverse(CSPEC, tv, (-40, 40))
    g = gd_symbol(CSPEC, tv, (-32, 32), exact_only=True)
    g_inv = gd_symbol_inverse(CSPEC, tv, (-40, 40), exact_only=True)
    two = tau_module._mode_norms(g.coeffs, 2) * tau_module._mode_norms(g_inv.coeffs, 2)
    assert two <= four < 2.5 * two


def test_route_follows_whether_W_is_exact():
    # the residues at the poles of W^-1 need a rational W, so a covering W
    # cut short of HALF_TRUNCATED_J_MAX modes keeps the Fredholm route
    assert base_symbol(SMALL_COVERING).lo == -11
    tv = time_vector([0.2 * d for d in DIAG])
    for spec in (RSPEC, RSPEC3, rational_spec([0.99, 0.2]), rational_spec([1e-9, 1e-10])):
        assert tau_stable_report(spec, tv).route == "finite_rank"
    for spec in (CSPEC, CSPEC3, CSPEC3B, SMALL_COVERING):
        assert tau_stable_report(spec, tv).route == "fredholm"


def test_stable_tau_leaves_no_garbage():
    # every object a point builds is freed by reference counting alone
    def run():
        for spec in (RSPEC, CSPEC):
            for s in (1.0, 5.0):
                tau_stable_report(spec, time_vector([s * d for d in DIAG]))

    run()  # fill the per-spec caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stable_tau_refuses_an_ill_conditioned_symbol():
    # the Fredholm route refused these rational points (Wiener-norm bound
    # 1.56e12 at s = 8); the finite-rank route returns their closed form
    for s in (8.0, 10.0):
        t = [s * d for d in (1, 0, 0.5, 0, 0.25)]
        got = tau_stable(RSPEC, time_vector(t))
        want = _tau_closed_all_times(t)
        assert abs(got - want) / abs(want) < 1e-10
    # the covering family keeps the Fredholm route and its gate, here the
    # four-factor bound (the band pair g, g^-1 read 1.52e12)
    tv = time_vector([8.0 * d for d in (1, 0, 0.5, 0, 0.25)])
    with pytest.raises(NearSingularSymbol) as exc:
        tau_stable(CSPEC, tv)
    assert str(exc.value) == "Wiener-norm condition bound 2.96e+12 exceeds 1e+12"


def test_finite_rank_route_refuses_a_singular_section():
    # tau = cos(0.3 s)^3 on t1 = i s vanishes at s = pi / 0.6: T_1(g^-1) is singular
    tv = time_vector((1j * np.pi / 0.6, 0.0, 0.0))
    with pytest.raises(NearSingularSymbol, match=r"of T_1\(g\^-1\) exceeds 1e\+12"):
        tau_stable(RSPEC, tv)


@pytest.mark.parametrize("spec", [RSPEC, RSPEC3], ids=["n2", "n3"])
def test_well_conditioned_finite_rank_point_takes_no_svd(monkeypatch, spec):
    # the inverse that est_error reads screens the conditioning,
    # ||T||_F ||T^-1||_F <= COND_SCREEN, so a well-conditioned section
    # skips the SVD; the singular section above still refuses through it
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(
        tau_module.np.linalg, "svd", lambda *a, **k: (calls.append(a), svd(*a, **k))[1]
    )
    rep = tau_stable_report(spec, time_vector([2.0 * d for d in DIAG3]))
    assert rep.route == "finite_rank" and calls == []
    with pytest.raises(NearSingularSymbol):
        tau_stable(RSPEC, time_vector((1j * np.pi / 0.6, 0.0, 0.0)))
    assert len(calls) == 1


def test_finite_rank_point_whose_inverse_fails_goes_to_the_svd(monkeypatch):
    # the SVD decides alone; the value is the determinant's, and no inverse
    # bounds est_error
    tv = time_vector([2.0 * d for d in DIAG3])
    want = tau_stable_report(RSPEC, tv)
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(
        tau_module.np.linalg, "svd", lambda *a, **k: (calls.append(a), svd(*a, **k))[1]
    )

    def no_inverse(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(tau_module.np.linalg, "inv", no_inverse)
    rep = tau_stable_report(RSPEC, tv)
    assert len(calls) == 1
    assert (rep.value, rep.route, rep.M_used) == (want.value, "finite_rank", 1)
    assert rep.est_error == np.inf and want.est_error < 1e-12


def test_stable_tau_routes():
    tv = time_vector((0.3, 0.0, -0.2))
    rational, covering = tau_stable_report(RSPEC, tv), tau_stable_report(CSPEC, tv)
    assert (rational.route, rational.M_used) == ("finite_rank", 1)
    assert (covering.route, covering.M_used, covering.est_error) == ("fredholm", 32, 0.0)


@pytest.mark.parametrize(
    "spec, direction",
    [
        (CSPEC, DIAG),
        (CSPEC3B, DIAG3),
        (RSPEC, DIAG),
        (RSPEC3, DIAG3),
        (rational_spec([0.4 + 0.3j, -0.6j]), DIAG),
    ],
    ids=["covering", "covering-n3", "rational", "rational-3pole", "rational-complex"],
)
def test_stable_tau_plan_equals_reference(spec, direction):
    # the covering corner (H(e) X)(Y T(e^-1)), X Y the rank-r cut of V,
    # meets the three-factor H(e) V T(e^-1) entrywise to 1e-13 max|K| (an
    # index error shows at O(max|K|)), on times of one phase and of mixed
    # sign alike; the products differ in order, so the values differ by up
    # to the conditioning of I - K.  The rational residue form meets the
    # Schur-series section of W^-1 exp(xi(-t,L)), which shares none of its
    # code, to 1e-12 (complex poles included)
    rng = np.random.default_rng(2031)
    for s in np.linspace(0.2, 7.5, 40):
        signs = rng.choice([-1.0, 1.0], len(direction))
        d = np.array(direction) * (1.0 + 0.2 * rng.standard_normal(len(direction))) * signs
        tv = time_vector(s * d)
        got, want = tau_stable_report(spec, tv), stable_tau_reference(spec, tv)
        assert (got.route, got.M_used) == (want.route, want.M_used)
        if spec.family == "rational":
            assert abs(got.value - want.value) <= 1e-12 * abs(want.value)
        else:
            assert got.est_error == want.est_error
            left, right = tau_module._corner_factors(spec, tv)
            ref = hankel_corner_reference(spec, tv)
            assert np.abs(left @ right - ref).max() <= 1e-13 * np.abs(ref).max()
            cond = np.linalg.cond(np.eye(len(ref)) - ref)
            assert abs(got.value - want.value) <= 1e-13 * cond * abs(want.value)


@pytest.mark.parametrize("spec", [RSPEC, CSPEC], ids=["finite_rank", "fredholm"])
def test_stable_tau_report_holds_python_scalars(spec):
    rep = tau_stable_report(spec, time_vector((0.3, 0.0, -0.2)))
    fields = (rep.value, rep.est_error, rep.route, rep.M_used)
    assert [type(x) for x in fields] == [complex, float, str, int]


def test_rational_oracle_matches_the_two_soliton_closed_form():
    for s in (1.0, 5.0, 11.0):
        t = [s * d for d in (1, 0, 0.5, 0, 0.25)]
        want = _tau_closed_all_times(t)
        assert abs(rational_tau_mpmath((D, C), t) - want) / abs(want) < 1e-14


@pytest.mark.parametrize("s", [4.0, 5.8, 7.0])
def test_rational_n3_stable_tau_matches_the_oracle(s):
    # the Fredholm route was 1.6e-9, 2.4e-6 and 2.3e-5 off here, est_error 0.0
    t = [s * d for d in (1, 0.5, 0, 0.25, 0.1)]
    rep = tau_stable_report(RSPEC3, time_vector(t))
    want = rational_tau_mpmath((0.3, 0.6, 0.9), t)
    err = abs(rep.value - want)
    assert err / abs(want) < 1e-12
    assert rep.est_error >= err


ANTIDIAG = (-1, 0, 0.5, 0, -0.25)
POLES3, COMPLEX_POLES = (0.3, 0.6, 0.9), (0.4 + 0.3j, -0.6j)


@pytest.mark.parametrize(
    "c, direction, s",
    [
        pytest.param((D, C), DIAG, 7.0, id="diagonal-7"),
        pytest.param((D, C), (0, 0, 1, 0, 0), 10.5, id="t3-10.5"),
        pytest.param((D, C), ANTIDIAG, 11.0, id="antidiagonal-11"),
        *[
            pytest.param(c, direction, s, id=f"{name}-{where}")
            for c, name in ((POLES3, "3pole"), (COMPLEX_POLES, "complex-pole"))
            for direction, s, where in (
                (DIAG, 5.5, "diagonal-5.5"),
                (DIAG, 7.0, "diagonal-7"),
                ((0, 0, 1, 0, 0), 10.5, "t3-10.5"),
                (ANTIDIAG, 11.0, "antidiagonal-11"),
            )
        ],
    ],
)
def test_stable_tau_error_estimate_bounds_the_error(c, direction, s):
    # the defect probe's directions; the Fredholm route read est_error 0.0
    # against an error of 4.9e-8 on the third.  s = 5.5 tops the rational
    # draws of the benchmark, whose check takes est_error <= 1e-8
    spec, tv = rational_spec(c), time_vector([s * d for d in direction])
    rep = tau_stable_report(spec, tv)
    assert rep.est_error >= abs(rep.value - rational_tau_mpmath(c, tv.effective(spec.n)))
    if s <= 5.5:
        assert rep.est_error <= 1e-8


@pytest.mark.parametrize("s", [0.2, 3.0, 5.0])
def test_stable_tau_next_to_the_unit_circle(s):
    # W^-1 of poles 0.999^2 and 0.998^2 needs more than 4096 modes, past
    # which the Schur-series section raised TruncationError; the residues
    # at the poles need none
    c = (0.999, -0.998)
    tv = time_vector([s * d for d in DIAG])
    rep = tau_stable_report(rational_spec(c), tv)
    want = rational_tau_mpmath(c, tv.effective(2))
    err = abs(rep.value - want)
    assert err <= 1e-10 * abs(want)
    assert rep.est_error >= err


def _covering_norm_orders(monkeypatch, s):
    """Run the covering route along DIAG at s with its plan cached; return its
    refusal message (None if it passed) and the orders of its np.linalg.norm calls."""
    tau_module._symbol_core(CSPEC)
    orders, norm = [], np.linalg.norm

    def spy(x, ord=None, axis=None):
        orders.append(ord)
        return norm(x, ord, axis)

    monkeypatch.setattr(tau_module.np.linalg, "norm", spy)
    try:
        tau_stable_report(CSPEC, time_vector([s * d for d in DIAG]))
    except NearSingularSymbol as exc:
        return str(exc), orders
    return None, orders


@pytest.mark.parametrize(
    "s, spectral, message",
    [
        (7.0, False, None),  # coefficient-sum screen 3.48e11 clears the point
        (7.5, True, None),  # screen 2.0e12 above COND_SCREEN, spectral 5.08e11 below the limit
        (7.7, True, "Wiener-norm condition bound 1.03e+12 exceeds 1e+12"),
    ],
    ids=["screen-passes", "spectral-passes", "spectral-refuses"],
)
def test_covering_gate_screens_on_coefficient_sums(monkeypatch, s, spectral, message):
    raised, orders = _covering_norm_orders(monkeypatch, s)
    assert raised == message
    assert orders.count(2) == (2 if spectral else 0)  # one fold of e, one of e^-1


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]), st.integers(1, 6))
def test_coefficient_sum_bounds_the_spectral_sum(seed, n, blocks):
    # mode m of e is sum_{|d|<n} p_(nm+d) S_d with ||S_d||_2 = 1, and each
    # p_k sits on at most two modes.  Sparse draws leave a p_k alone on two
    # modes, where the bound is tight up to the round-off of the SVDs
    rng = np.random.default_rng(seed)
    p = rng.normal(size=n * blocks) + 1j * rng.normal(size=n * blocks)
    p[rng.random(len(p)) < rng.random()] = 0.0
    assert tau_module._spectral_sum(p, n) <= 2.0 * np.abs(p).sum() * (1 + 1e-14)


@pytest.mark.parametrize("spec", [CSPEC, CSPEC3B, CSPEC4], ids=["n2", "n3", "n4"])
def test_gate_screen_bounds_the_spectral_product(spec):
    # the screen clears a point only when the spectral product, which
    # decides, would clear it too: GD-reduced and full times, along DIAG and
    # along mixed-sign real and complex directions, out to s = 9
    rng = np.random.default_rng(40)
    plan, n = tau_module._symbol_core(spec), spec.n
    directions = [DIAG, rng.normal(size=5), rng.normal(size=5) + 1j * rng.normal(size=5)]
    for direction, s, reduced in product(directions, np.linspace(0.5, 9, 18), (True, False)):
        t_eff = time_vector(s * np.asarray(direction), reduced).effective(n)
        p, q = tau_module._schur_pair(t_eff, plan.kmax, plan.kmax_inv)
        (sum_p, sum_q), (tail, tail_inv) = tau_module._exp_tails(p, q, np.abs(t_eff), n)
        screen = (sum_p + tail) * (sum_q + tail_inv)
        spectral = (tau_module._spectral_sum(p, n) + tail) * (tau_module._spectral_sum(q, n) + tail_inv)
        assert screen >= spectral


def test_finite_sections_approach_closed_form():
    tv = time_vector((0.3, 0.0, -0.2))
    dn = tau_numeric(RSPEC, tv, 14)
    assert abs(dn - _tau_closed(0.3, -0.2)) < 1e-9


def test_stable_report_error_estimate():
    rep = tau_stable_report(RSPEC, time_vector((0.3, 0.0, -0.2)))
    assert rep.est_error < 1e-9
    assert abs(rep.value - _tau_closed(0.3, -0.2)) < 1e-8


def test_zero_locus_on_imaginary_ray():
    # on t1 = i s the closed form degenerates to cos^3(0.3 s): a real zero
    s = np.pi / 0.6
    for frac, bound in ((0.5, 0.36), (0.9, 0.005), (0.99, 5e-6)):
        tv = time_vector((1j * s * frac, 0.0, 0.0))
        got = tau_stable(RSPEC, tv)
        want = np.cos(0.3 * s * frac) ** 3
        assert abs(got - want) < 1e-7
        assert abs(got) < bound  # marching into the zero locus


# -- kernel facts and the ladder from the level below ------------------------


def _assert_kernel_facts_hold(kf):
    # residuals at round-off, read off operators that do not vanish
    assert kf.max_residual < 1e-9, kf
    assert kf.unit_action_magnitude > 1e-9, kf
    assert kf.kernel_images_magnitude > 1e-9, kf


def test_kernel_facts_level_two():
    _assert_kernel_facts_hold(kernel_facts_check(RSPEC, 2, 6))


def test_recursion_level_one_to_two():
    # the ladder from level 1 to level 2 runs inside the level-2 check
    kf = kernel_facts_check(RSPEC, 2, 6)
    _assert_kernel_facts_hold(kf)
    assert max(kf.family_shift, kf.operator_split) < 1e-9


def test_kernel_facts_covering_family():
    _assert_kernel_facts_hold(kernel_facts_check(CSPEC, 2, 6))


def test_recursion_covering_family():
    kf = kernel_facts_check(CSPEC, 2, 6)
    _assert_kernel_facts_hold(kf)
    assert max(kf.family_shift, kf.operator_split) < 1e-9


@pytest.mark.parametrize(
    "spec, N",
    [(RSPEC, 1), (RSPEC, 3), (CSPEC, 1), (CSPEC, 3), (RSPEC3, 2), (CSPEC3, 2)],
    ids=["rational-N1", "rational-N3", "covering-N1", "covering-N3", "rational-n3", "covering-n3"],
)
def test_kernel_facts_other_levels_and_block_sizes(spec, N):
    _assert_kernel_facts_hold(kernel_facts_check(spec, N, 6))


def test_kernel_facts_need_a_positive_weight():
    with pytest.raises(ValueError):
        kernel_facts_check(RSPEC, 2, 0)


def _bump_last_level_two(ff):
    if ff.N == 2:
        t1 = gp_time(ff.K, ff.Q, 1)
        ff.funcs[-1] = ff.funcs[-1] + t1 * t1 * 1e-6


def _bump_first(ff):
    if ff.N == 2:
        t1 = gp_time(ff.K, ff.Q, 1)
        ff.funcs[0] = ff.funcs[0] + t1 * t1 * t1 * 1e-6


def _bump_level_one(ff):
    if ff.N == 1:
        ff.funcs[0] = ff.funcs[0] + gp_time(ff.K, ff.Q, 3) * 1e-6


def _swap_first_two(ff):
    if ff.N == 2:
        ff.funcs[0], ff.funcs[1] = ff.funcs[1], ff.funcs[0]


def _scale_third(ff):
    if ff.N == 2:
        ff.funcs[2] = ff.funcs[2] * (1.0 + gp_time(ff.K, ff.Q, 1) * 1e-6)


def _bump_every_last(ff):
    t1 = gp_time(ff.K, ff.Q, 1)
    ff.funcs[-1] = ff.funcs[-1] + t1 * t1 * 1e-6


@pytest.mark.parametrize("spec", [RSPEC, CSPEC], ids=["rational", "covering"])
@pytest.mark.parametrize(
    "perturb",
    [
        _bump_last_level_two,
        _bump_first,
        _bump_level_one,
        _swap_first_two,
        _scale_third,
        _bump_every_last,
    ],
    ids=["last-level-2", "first", "level-1", "swap-1-2", "scale-3", "last-every-level"],
)
def test_kernel_facts_catch_a_perturbed_member(monkeypatch, tmp_path, spec, perturb):
    # each perturbation leaves a family that is not the level-N generator
    # family; at least one reported residual must move to 1e-6 or more, and
    # the registry row, which reads the rational family, must fail
    build = tau_module.f_family

    def perturbed(spec, N, Q, K=None, gd_reduced=True):
        ff = build(spec, N, Q, K=K, gd_reduced=gd_reduced)
        perturb(ff)
        return ff

    monkeypatch.setattr(tau_module, "f_family", perturbed)
    kf = kernel_facts_check(spec, 2, 6)
    assert kf.max_residual > 1e-7
    if spec is RSPEC:
        row = next(c for c in checks.CHECKS if c.name == "kernel_and_recursion")
        _, ok, _ = row.fn(checks.Context(cli.load_config(None), str(tmp_path)), row.tol)
        assert not ok


# -- wave coefficients -------------------------------------------------------


def test_wave_function_leading_one_and_constants():
    ws = wave_function(RSPEC, 1, 6, 4)
    assert max_abs_coeff(ws[0] - gp_const(6, 6, 1.0)) < 1e-13
    consts = [w.constant_term() for w in ws]
    expect = [1.0, 0.0, (C**2 - D**2) / 2, 0.0, -(C**2) * D**2 / 4]
    assert max(abs(a - b) for a, b in zip(consts, expect)) < 1e-13


def test_wave_function_matches_shifted_determinant():
    # evaluating tau at t - [1/z0] through Miwa times reproduces the series
    ws = wave_function(RSPEC, 1, 6, 4)
    consts = [w.constant_term() for w in ws]
    z0 = 2.5 + 1.1j
    tv_shift = time_vector([-1.0 / (k * z0**k) for k in range(1, 49)])
    miwa = tau_numeric(RSPEC, tv_shift, 1)
    series = sum(consts[m] * z0 ** (-m) for m in range(len(consts)))
    assert abs(miwa - series) < 1e-12


def test_wave_function_rejects_negative_orders():
    with pytest.raises(ValueError):
        wave_function(RSPEC, 1, 4, -1)


# -- KdV oracle --------------------------------------------------------------


def test_stable_tau_satisfies_kdv():
    res = hirota_kdv_residual(stable_tau_graded(RSPEC, 8))
    assert max_abs_coeff(res) < 1e-8


def test_covering_stable_tau_satisfies_kdv():
    res = hirota_kdv_residual(stable_tau_graded(CSPEC, 6))
    assert max_abs_coeff(res) < 1e-8


def test_stable_tau_satisfies_kdv_at_weight_16():
    res = hirota_kdv_residual(stable_tau_graded(RSPEC, 16))
    assert max_abs_coeff(res) < 1e-8  # criterion-08 tolerance


def test_high_weight_coefficients_match_closed_form():
    # the t1^Q coefficient is ~(C + D)^Q / Q!, some 1e-12 of the constant
    # term at Q = 14 and 1e-14 at Q = 16: the ring must keep it
    for Q in (14, 16):
        tau = stable_tau_graded(RSPEC, Q, gd_reduced=False)
        want = _tau_closed_t1_coefficient(Q)
        got = tau.terms()[(Q,) + (0,) * (Q - 1)]
        assert abs(got - want) < 1e-6 * abs(want), (Q, got, want)


def test_reduced_tau_has_exact_zeros_on_frozen_times():
    # gd_reduced freezes t_2, t_4, ...: their coefficients are exactly zero
    tau = stable_tau_graded(RSPEC, 10)
    frozen = [e for e in tau.terms() if any(e[i - 1] for i in range(2, 11, 2))]
    assert frozen == []
    assert (0, 1) + (0,) * 8 not in tau.terms()
