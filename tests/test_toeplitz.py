"""Block Toeplitz truncations, Plemelj operators, determinant limit theorems."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blocktau import laurent, symbols, tau, toeplitz
from blocktau.errors import ConvergenceError, HypothesisError, SpecError
from blocktau.laurent import (
    CircleSamples,
    LaurentMatrix,
    geometric_mean,
    inverse_transform,
    lm_invert,
    lm_reflect,
    sample_function,
)
from blocktau.symbols import (
    base_inverse,
    covering_spec,
    exp_xi_lambda,
    gd_symbol,
    gd_symbol_values,
    rational_spec,
    time_vector,
)
from blocktau.toeplitz import (
    HALF_TRUNCATED_J_MAX,
    PlemeljOperator,
    borodin_okounkov,
    build_TN,
    det_DN,
    fredholm_det,
    half_truncated_shortcut,
    hankel_identity_check,
    hankel_product_matrix,
    plemelj_fourier,
    plemelj_quadrature,
    settle,
    szego_widom,
    truncation_dets,
)
from blocktau.factorization import (
    deformed_symbol_samples,
    two_sided_factorization,
    widom_derivative_check,
    wiener_hopf,
)
from oracles import (
    gd_symbol_inverse,
    hankel_corner_reference,
    hankel_product_layout,
    minus_factor_at_depth,
    plemelj_quadrature_folded,
    schur_mpmath,
)

RSPEC = rational_spec([0.3, 0.6])
CSPEC = covering_spec([0.3, -0.25, 0.35j], 2)
CSPEC3B = covering_spec([0.3, -0.25, 0.35j, 0.2 + 0.2j], 3)
TV = time_vector([0.2, 0.0, -0.15, 0.0, 0.08])


def _quadrature_samples(spec, tv, M):
    x = deformed_symbol_samples(spec, tv, M)
    r_in = (1 + spec.rho) / 2
    x_inv = sample_function(
        lambda zz: np.linalg.inv(gd_symbol_values(spec, tv, zz)), spec.n, M, radius=r_in
    )
    return x, x_inv


def _plemelj_pair(spec, tv, blocks):
    lm = gd_symbol(spec, tv, (-30, 30))
    pf = plemelj_fourier(lm, lm_invert(lm), blocks)
    pq = plemelj_quadrature(*_quadrature_samples(spec, tv, 1024), blocks)
    return pf, pq


def _random_lm(rng, n, lo, hi):
    shape = (hi - lo + 1, n, n)
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return LaurentMatrix(n, lo, hi, coeffs)


# -- loop references for the vectorized kernels --------------------------------


def _hankel_reference(u, v, rows, cols):
    """K_ij = sum_{k>=1} u^(i+k) v^(-j-k) as a plain triple sum."""
    n = u.n
    K = np.zeros((len(rows) * n, len(cols) * n), dtype=complex)
    for r, i in enumerate(rows):
        for c, j in enumerate(cols):
            for k in range(1, u.hi - i + 1):  # u^(i+k) vanishes past u.hi
                blk = u.block(i + k) @ v.block(-j - k)
                K[r * n : (r + 1) * n, c * n : (c + 1) * n] += blk
    return K


def _build_tn_reference(lm, N):
    n = lm.n
    out = np.zeros((N * n, N * n), dtype=complex)
    for i in range(N):
        for j in range(N):
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] = lm.block(i - j)
    return out


def _exp_xi_reference(t, n, hi):
    """Entry (i, j) of mode q collects p_k over k = nq + i - j, one k at a time.

    The values are the 40-digit recurrence: a mode far from mode 0 can hold
    values that cancel, below the round-off of any double recurrence.
    """
    kmax = n * hi + n - 1
    p = schur_mpmath(t.effective(n), kmax)
    coeffs = np.zeros((hi + 1, n, n), dtype=complex)
    for k in range(kmax + 1):
        for i in range(n):
            for j in range(n):
                if (k + j - i) % n == 0 and (k + j - i) // n <= hi:
                    coeffs[(k + j - i) // n, i, j] += p[k]
    return coeffs


def _quadrature_reference(x, x_inv, M):
    """Contour form with the full (M_out, M_in, n, n) integrand tensor."""
    n = x.n
    z, zeta = x.grid(), x_inv.grid()
    K = np.einsum("lab,mbc->lmac", x.values, x_inv.values) - np.eye(n)
    KC = K / (zeta[None, :] - z[:, None])[..., None, None]
    Zpow = zeta[:, None] ** (np.arange(M) + 1)[None, :]
    T = np.moveaxis(np.tensordot(KC, Zpow, axes=(1, 0)) / x_inv.M, 3, 1)
    modes = np.fft.fft(T, axis=0) / x.M
    P = np.eye(M * n, dtype=complex)
    for i in range(M):
        for j in range(M):
            P[i * n : (i + 1) * n, j * n : (j + 1) * n] += modes[i, j]
    return P


# -- truncation layout -------------------------------------------------------


def test_build_tn_block_layout():
    lm1 = LaurentMatrix(1, -1, 1, np.array([[[0.5]], [[2.0]], [[0.25]]]))
    T3 = build_TN(lm1, 3).matrix
    assert np.allclose(np.diag(T3), 2.0)
    assert T3[1, 0] == 0.25 and T3[0, 1] == 0.5  # mode +1 sits below the diagonal
    assert T3[2, 0] == 0.0 and T3[0, 2] == 0.0


# block index ranges in 0..9, forward or reversed, possibly empty
BLOCK_RANGES = st.builds(
    lambda start, length, step: range(start, start + length)[::step],
    st.integers(0, 9),
    st.integers(0, 5),
    st.sampled_from([1, -1]),
)


@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3]),
    st.integers(-4, 8),
    st.integers(-8, 4),
    BLOCK_RANGES,
    BLOCK_RANGES,
)
@example(1, 2, -1, -6, range(0), range(2))                # no rows
@example(2, 3, 5, -6, range(7, 2, -1), range(0))          # no cols
@example(3, 2, 3, -2, range(4, 7), range(2))              # rows past u.hi: kmax < 1
@example(4, 1, 6, -7, range(5, 0, -1), range(2, -1, -1))  # both reversed
def test_hankel_product_matches_triple_sum(seed, n, u_hi, v_lo, rows, cols):
    rng = np.random.default_rng(seed)
    u = _random_lm(rng, n, u_hi - 5, u_hi)
    v = _random_lm(rng, n, v_lo, v_lo + 5)
    got = hankel_product_matrix(u, v, rows, cols)
    want = _hankel_reference(u, v, rows, cols)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12
    # the same GEMM as the product laid out block by block, bit for bit
    assert np.array_equal(got, hankel_product_layout(u, v, list(rows), list(cols)))


def test_hankel_product_rejects_negative_indices():
    lm = LaurentMatrix(1, -2, 2, np.ones((5, 1, 1)))
    with pytest.raises(ValueError):
        hankel_product_matrix(lm, lm, range(-1, 1), range(1))


def test_hankel_product_refuses_a_stepped_range():
    # a step of 2 is no strip of one section: refused, not a wrong K
    rng = np.random.default_rng(3)
    u = LaurentMatrix(1, -4, 6, rng.standard_normal((11, 1, 1)))
    v = LaurentMatrix(1, -6, 4, rng.standard_normal((11, 1, 1)))
    with pytest.raises(ValueError, match="steps"):
        hankel_product_matrix(u, v, range(0, 6, 2), range(3))
    with pytest.raises(ValueError, match="steps"):
        hankel_product_matrix(u, v, range(3), range(4, -1, -2))


@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3]),
    st.integers(-6, 1),
    st.integers(-1, 6),
    st.integers(1, 8),
)
def test_tail_corner_is_the_reflected_product_on_a_reversed_range(seed, n, a_lo, b_hi, M):
    # sum_{k>=0} a^(i-M-k) b^(M+k-j) is the Hankel product of a(1/z), b(1/z)
    # with both block orders reversed, bit for bit
    rng = np.random.default_rng(seed)
    a = _random_lm(rng, n, a_lo, a_lo + 4)
    b = _random_lm(rng, n, b_hi - 4, b_hi)
    rev = range(M - 1, -1, -1)
    want = hankel_product_matrix(lm_reflect(a), lm_reflect(b), rev, rev)
    assert np.array_equal(toeplitz._tail_corner(a, b, M), want)


@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3]),
    st.integers(-6, 2),
    st.integers(0, 6),
    st.integers(1, 7),
)
def test_build_tn_matches_block_loop(seed, n, lo, width, N):
    lm = _random_lm(np.random.default_rng(seed), n, lo, lo + width)
    assert np.array_equal(build_TN(lm, N).matrix, _build_tn_reference(lm, N))


def test_wiener_hopf_system_matches_block_loop():
    # at M = 4B the derived depth of the covering (27) is capped at B = 24
    B = 24
    x = deformed_symbol_samples(CSPEC, TV, 4 * B)
    fact = wiener_hopf(x, B=B, tol=1e-6)
    assert fact.B_used == B
    assert np.array_equal(fact.T_minus.coeffs, minus_factor_at_depth(x, B).coeffs)


@given(
    st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 14),
)
# mode 1 is p_1 = 5e-324, below the least normal double
@example([5e-324], 1, 1)
def test_exp_xi_lambda_matches_schur_loop(tvals, n, hi):
    tv = time_vector(tvals, gd_reduced=False)
    got = exp_xi_lambda(tv, n, hi)
    want = _exp_xi_reference(tv, n, hi)
    assert np.max(np.abs(got.coeffs - want)) <= 1e-15 * np.max(np.abs(want))


def test_hankel_identity_banded_inputs():
    rng = np.random.default_rng(7)
    a = LaurentMatrix(
        2, -2, 3, rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    )
    b = LaurentMatrix(
        2, -3, 2, rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    )
    assert hankel_identity_check(a, b, 5) <= 1e-12


@given(st.integers(0, 10**6))
def test_frozen_time_flows_act_by_exponential_character(seed):
    # the finite truncations genuinely depend on the times at multiples of
    # n, but the operator-determinant limit only picks up the explicit
    # scalar factor exp(sum_q t_{qn} * q * (log det base)_{-q}); the
    # log-derivatives of tau (the solution fields) are therefore invariant
    from blocktau.symbols import base_symbol_values
    from blocktau.tau import tau_stable

    rng = np.random.default_rng(seed)
    s2, s4 = 0.4 * (rng.random(2) - 0.5)
    M = 512
    z = np.exp(2j * np.pi * np.arange(M) / M)
    modes = np.fft.fft(np.log(np.linalg.det(base_symbol_values(RSPEC, z)))) / M
    base = [0.1, 0.0, 0.05, 0.0, 0.02]
    t0 = tau_stable(RSPEC, time_vector(base, gd_reduced=False))
    tv = time_vector([0.1, s2, 0.05, s4, 0.02], gd_reduced=False)
    got = tau_stable(RSPEC, tv)
    character = np.exp(s2 * modes[-1] + s4 * 2 * modes[-2])
    assert abs(got - character * t0) < 1e-9


# -- Plemelj operator: two routes --------------------------------------------


def test_plemelj_fourier_vs_quadrature_rational():
    pf, pq = _plemelj_pair(RSPEC, TV, 8)
    assert np.max(np.abs(pf.matrix - pq.matrix)) < 1e-10


def test_plemelj_fourier_vs_quadrature_covering():
    tv = time_vector([0.1, 0.0, 0.05, 0.0, 0.02])
    pf, pq = _plemelj_pair(CSPEC, tv, 8)
    assert np.max(np.abs(pf.matrix - pq.matrix)) < 1e-9


@pytest.mark.parametrize("spec", [RSPEC, CSPEC], ids=["rational", "covering"])
def test_quadrature_projector_12_blocks(spec):
    tv = time_vector([0.1, 0.0, 0.05, 0.0, 0.02])
    pf, pq = _plemelj_pair(spec, tv, 12)
    assert np.max(np.abs(pf.matrix - pq.matrix)) < 1e-8
    x, x_inv = _quadrature_samples(spec, tv, 256)
    got = plemelj_quadrature(x, x_inv, 12).matrix
    assert np.max(np.abs(got - _quadrature_reference(x, x_inv, 12))) < 1e-12


def test_plemelj_fourier_vs_quadrature_rational_n3():
    tv = time_vector([0.1, 0.05, 0.0, 0.02, 0.01])
    pf, pq = _plemelj_pair(rational_spec([0.3, 0.6, 0.9]), tv, 8)
    assert np.max(np.abs(pf.matrix - np.eye(24))) > 1e-2  # the times move P
    assert np.max(np.abs(pf.matrix - pq.matrix)) < 1e-10


def _random_samples(rng, n, M, radius):
    shape = (M, n, n)
    return CircleSamples(n, M, rng.normal(size=shape) + 1j * rng.normal(size=shape), radius)


@pytest.mark.parametrize(
    "M_out, M_in, radius",
    [
        (256, 256, 0.6),
        (256, 128, 0.6),
        (128, 256, 0.6),
        (256, 64, 0.97),
        (128, 256, 0.97),
    ],
)
@pytest.mark.parametrize("n", [2, 3])
def test_quadrature_equals_the_direct_trapezoid_sum(M_out, M_in, radius, n):
    # at r = 0.97 and M_in = 64 the wrap (r/z)^M_in is about 0.14, so the
    # closed-form geometric sum over the aliased moments is exercised; at
    # M_in = 2 M_out the moments past M_out (r^128 = 0.02) fold back onto z
    rng = np.random.default_rng(M_out + M_in + n)
    x = _random_samples(rng, n, M_out, 1.0)
    x_inv = _random_samples(rng, n, M_in, radius)
    got = plemelj_quadrature(x, x_inv, 12).matrix
    assert np.max(np.abs(got - _quadrature_reference(x, x_inv, 12))) < 1e-12


@pytest.mark.parametrize("M_out", [512, 1024, 2048])
@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_quadrature_equals_the_folded_column_sums(M_out, n):
    rng = np.random.default_rng(M_out + n)
    x = _random_samples(rng, n, M_out, 1.0)
    x_inv = _random_samples(rng, n, 1024, 0.8)
    got = plemelj_quadrature(x, x_inv, 12).matrix
    assert np.max(np.abs(got - plemelj_quadrature_folded(x, x_inv, 12))) <= 1e-13


def test_quadrature_reads_no_fourier_coefficients(monkeypatch):
    x, x_inv = _quadrature_samples(RSPEC, TV, 256)
    want = plemelj_quadrature(x, x_inv, 8).matrix

    def forbidden(*args, **kwargs):
        raise AssertionError("the contour route read a Fourier-route kernel")

    for module, name in [
        (toeplitz, "plemelj_fourier"),
        (toeplitz, "hankel_product_matrix"),
        (laurent, "lm_invert"),
        (laurent, "transform"),
        (laurent, "inverse_transform"),
        (symbols, "gd_symbol"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    assert np.array_equal(plemelj_quadrature(x, x_inv, 8).matrix, want)


def test_quadrature_memory_is_linear_in_the_grids():
    # a dense M_out x M_in Cauchy matrix alone would be 268 MB at 4096 / 4096
    rng = np.random.default_rng(4096)
    x = _random_samples(rng, 2, 4096, 1.0)
    x_inv = _random_samples(rng, 2, 4096, 0.7)
    tracemalloc.start()
    try:
        plemelj_quadrature(x, x_inv, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# -- the Cauchy ladder --------------------------------------------------------


def test_settle_stops_at_the_second_of_two_cauchy_steps():
    read = []

    def steps():
        for size, value in ((1, 1.0), (2, 0.5), (4, 0.45), (8, 0.449), (16, 0.4489)):
            read.append(size)
            yield size, value

    size, value, err, history = settle(steps(), 0.1, "test sequence")
    assert (size, value) == (8, 0.449)
    assert err == abs(0.45 - 0.5)  # the larger of the two differences
    assert history == [(1, 1.0), (2, 0.5), (4, 0.45), (8, 0.449)]
    assert read == [1, 2, 4, 8]  # nothing is computed past the stop


def test_settle_reads_past_a_single_cauchy_step():
    # a plateau of one step, then a move: one step within tol is no stop
    steps = [(1, 0.0), (2, 1.0), (3, 1.0), (4, 2.0), (5, 2.05), (6, 2.06)]
    size, value, err, history = settle(iter(steps), 0.1, "test sequence")
    assert (size, value) == (6, 2.06)
    assert abs(err - 0.05) < 1e-15
    assert len(history) == 6


def test_settle_raises_naming_the_last_size():
    steps = [(10, 0.0), (20, 1.0), (40, 3.0)]
    with pytest.raises(ConvergenceError, match="test sequence not Cauchy below 0.5 by 40"):
        settle(iter(steps), 0.5, "test sequence")
    # a single step leaves no pair to compare
    with pytest.raises(ConvergenceError, match="by 10"):
        settle(iter(steps[:1]), 1e3, "test sequence")
    with pytest.raises(ConvergenceError, match=r"last difference 2, \|value\| 3\)"):
        settle(iter(steps), 0.5, "test sequence")


def test_settle_stops_relative_to_a_value_past_one():
    # differences of 0.5 on values near 100 are Cauchy at tol 0.01; the
    # same differences on values of at most 3 never are
    steps = [(1, 100.0), (2, 103.0), (3, 100.5), (4, 101.0), (5, 101.5)]
    size, value, err, _ = settle(iter(steps), 0.01, "test sequence")
    assert (size, value, err) == (5, 101.5, 0.5)
    small = [(size, value - 100.0) for size, value in steps]
    with pytest.raises(ConvergenceError):
        settle(iter(small), 0.01, "test sequence")


def test_truncation_dets_match_per_n_determinants():
    lm = gd_symbol(RSPEC, TV, (-30, 30))
    got = list(islice(truncation_dets(lm), 8))
    assert got == [det_DN(build_TN(lm, N)) for N in range(1, 9)]


# -- Fredholm determinant and the Szego-Widom limit --------------------------


@pytest.mark.parametrize(
    "spec", [RSPEC, CSPEC, CSPEC3B], ids=["rational", "covering", "covering-n3"]
)
def test_fredholm_det_reads_its_exact_window(spec):
    # I - K is block triangular past the window, so a section 8 blocks
    # wider has the window's determinant
    if spec.family == "rational":
        # the registry symbol: rows past block g.hi of K vanish
        lm = gd_symbol(spec, TV, (-30, 30))
        lm_inv = lm_invert(lm)
        window = plemelj_fourier(lm, lm_inv, lm.hi)
        wider = plemelj_fourier(lm, lm_inv, lm.hi + 8)
    else:
        # the covering corner: columns past block j' = -W^-1.lo of K vanish;
        # the wider section is read off the pair g, g^-1 on wide bands
        tv = time_vector([0.5, 0.0, 0.25, 0.0, 0.125])
        j = -base_inverse(spec).lo
        K = hankel_corner_reference(spec, tv)
        window = PlemeljOperator(spec.n, j, np.eye(len(K)) - K)
        lm = gd_symbol(spec, tv, (-160, 160))
        wide = hankel_product_matrix(
            lm, gd_symbol_inverse(spec, tv, (-168, 168)), range(j + 8), range(j + 8)
        )
        wider = PlemeljOperator(spec.n, j + 8, np.eye(len(wide)) - wide)
        assert tau.tau_stable_report(spec, tv).M_used == j
    fr, want = fredholm_det(window), fredholm_det(wider).value
    assert fr.M_used == window.M
    assert abs(fr.value - want) <= 1e-13 * abs(want)


def test_fredholm_matches_direct_limit():
    lm = gd_symbol(RSPEC, TV, (-30, 30))
    fr = fredholm_det(plemelj_fourier(lm, lm_invert(lm), lm.hi))
    x = deformed_symbol_samples(RSPEC, TV, 1024)
    sw = szego_widom(lm, x, tol=1e-11)
    assert abs(fr.value - sw.D_inf) < 1e-9
    assert abs(sw.G - 1.0) < 1e-10  # reduced flows leave G = det-mean at 1


def test_fredholm_grid_invariance():
    lm30 = gd_symbol(RSPEC, TV, (-30, 30))
    lm60 = gd_symbol(RSPEC, TV, (-60, 60))
    v1 = fredholm_det(plemelj_fourier(lm30, lm_invert(lm30), lm30.hi)).value
    v2 = fredholm_det(plemelj_fourier(lm60, lm_invert(lm60), lm60.hi)).value
    assert abs(v1 - v2) < 1e-9


def test_szego_widom_does_not_stop_on_a_plateau():
    # D_N/G^N moves by 4.3e-14 from N = 6 to 7 here and still sits 1.1e-8
    # off D_inf: the limit must read on until two steps agree
    tv = time_vector([0.019494578636759716, 0, -0.08707868062960693, 0, -0.13294603084376547])
    lm = gd_symbol(RSPEC, tv, (-28, 28), exact_only=True)
    sw = szego_widom(lm, deformed_symbol_samples(RSPEC, tv, 1024), tol=1e-12)
    assert abs(sw.history[6][1] - sw.history[5][1]) < 1e-12  # the plateau, N = 6, 7
    assert sw.N_used > 7
    assert abs(sw.D_inf - tau.tau_stable(RSPEC, tv)) < 1e-12


def test_szego_widom_settles_relative_to_a_large_limit():
    # |D_inf| ~ 10.09 here and D_N/G^N jitters by ~1e-11 on its plateau, so
    # an absolute stop at 1e-12 read on to N = 256 and raised
    tv = time_vector([4.0, 0, 2.0, 0, 1.0])
    lm = gd_symbol(RSPEC, tv, (-80, 80), exact_only=True)
    sw = szego_widom(lm, deformed_symbol_samples(RSPEC, tv, 1024), tol=1e-12)
    want = tau.tau_stable(RSPEC, tv)
    assert abs(want) > 10
    assert sw.N_used < 256
    assert sw.est_error < 1e-12 * abs(sw.D_inf)
    assert abs(sw.D_inf - want) < 1e-10 * abs(want)


def test_szego_widom_reads_one_log_det(monkeypatch):
    calls = []
    real = toeplitz.continuous_log_det
    monkeypatch.setattr(toeplitz, "continuous_log_det", lambda x: calls.append(1) or real(x))
    lm = gd_symbol(RSPEC, TV, (-30, 30))
    x = deformed_symbol_samples(RSPEC, TV, 1024)
    sw = szego_widom(lm, x, tol=1e-11)
    assert len(calls) == 1
    assert sw.G == geometric_mean(x)  # bit for bit


def test_szego_widom_rejects_nonzero_winding():
    co = np.array([[[1.0]]], dtype=complex)
    lm = LaurentMatrix(1, 1, 1, co)
    with pytest.raises(HypothesisError):
        szego_widom(lm, inverse_transform(lm, 256))


def test_half_truncated_shortcut():
    co = np.zeros((4, 1, 1), dtype=complex)
    co[0, 0, 0] = 0.3   # mode -2
    co[1, 0, 0] = -0.2  # mode -1
    co[2, 0, 0] = 1.0   # mode 0
    co[3, 0, 0] = 0.45  # mode +1: the inverse has an infinite plus tail
    sym = LaurentMatrix(1, -2, 1, co)
    G = geometric_mean(inverse_transform(sym, 1024))
    d_inf = half_truncated_shortcut(lm_invert(sym), G, 2)
    sw = szego_widom(sym, inverse_transform(sym, 1024), tol=1e-12)
    assert abs(d_inf - sw.D_inf) < 1e-9
    with pytest.raises(SpecError):
        half_truncated_shortcut(lm_invert(sym), G, HALF_TRUNCATED_J_MAX + 1)


# -- Borodin-Okounkov --------------------------------------------------------


def test_borodin_okounkov_small_sections():
    x = deformed_symbol_samples(RSPEC, TV, 2048)
    pair = two_sided_factorization(x, B=40, tol=1e-9)
    lm = gd_symbol(RSPEC, TV, (-30, 30))
    sw = szego_widom(lm, x, tol=1e-11)
    for N in (1, 2, 3, 4):
        bo = borodin_okounkov(pair, N, tol=1e-12)
        lhs = det_DN(build_TN(lm, N)) / sw.G**N
        assert abs(lhs - sw.D_inf * bo.det_correction) < 1e-8
        # phi cut at 1e-12 of its largest mode ends at mode 19
        assert bo.window_used == 19 - N


# -- Widom derivative formula ------------------------------------------------


def test_widom_derivative_scalar_oracle():
    b_ = 0.35

    def make_sym(xv: float) -> LaurentMatrix:
        cf = np.zeros((3, 1, 1), dtype=complex)
        cf[0, 0, 0] = -b_
        cf[1, 0, 0] = 1 + xv * b_
        cf[2, 0, 0] = -xv
        return LaurentMatrix(1, -1, 1, cf)

    x0 = 0.4
    wd = widom_derivative_check(make_sym, x0)
    exact = b_ / (1 - x0 * b_)
    assert abs(wd.contour - exact) < 1e-8
    assert wd.abs_err < 1e-6  # centered difference limits the numeric side
