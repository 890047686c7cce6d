"""Block Toeplitz truncations, Plemelj operators, determinant limit theorems."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blocktau.errors import HypothesisError
from blocktau.laurent import (
    LaurentMatrix,
    inverse_transform,
    invert_symbol,
    lm_invert,
    sample_function,
    transform,
)
from blocktau.symbols import (
    covering_spec,
    exp_xi_lambda,
    gd_symbol,
    gd_symbol_values,
    rational_spec,
    schur_numeric,
    time_vector,
)
from blocktau.toeplitz import (
    borodin_okounkov,
    build_TN,
    det_DN,
    fredholm_det,
    half_truncated_shortcut,
    hankel_identity_check,
    hankel_product_matrix,
    plemelj_fourier,
    plemelj_quadrature,
    szego_widom,
    widom_derivative_check,
)
from blocktau.factorization import (
    deformed_symbol_samples,
    two_sided_factorization,
    wiener_hopf,
)

RSPEC = rational_spec([0.3, 0.6])
CSPEC = covering_spec([0.3, -0.25, 0.35j], 2)
TV = time_vector([0.2, 0.0, -0.15, 0.0, 0.08])


def _quadrature_samples(spec, tv, M):
    x = deformed_symbol_samples(spec, tv, M)
    r_in = (1 + spec.rho) / 2
    x_inv = sample_function(
        lambda zz: np.linalg.inv(gd_symbol_values(spec, tv, zz)), spec.n, M, radius=r_in
    )
    return x, x_inv


def _plemelj_pair(spec, tv, blocks, M=1024):
    lm = gd_symbol(spec, tv, (-30, 30))
    pf = plemelj_fourier(lm, lm_invert(lm), blocks)
    pq = plemelj_quadrature(*_quadrature_samples(spec, tv, M), blocks)
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


def _exp_xi_reference(t, n, band):
    """Entry (i, j) of mode q collects p_k over k = nq + i - j, one k at a time."""
    lo, hi = band
    kmax = n * hi + n - 1
    p = schur_numeric(t.effective(n), kmax)
    coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for k in range(kmax + 1):
        for i in range(n):
            for j in range(n):
                if (k + j - i) % n == 0 and lo <= (k + j - i) // n <= hi:
                    coeffs[(k + j - i) // n - lo, i, j] += p[k]
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


@given(
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 3]),
    st.integers(-4, 8),
    st.integers(-8, 4),
    st.lists(st.integers(0, 9), max_size=5),
    st.lists(st.integers(0, 9), max_size=5),
)
@example(1, 2, -1, -6, [], [0, 1])           # no rows
@example(2, 3, 5, -6, [3, 0, 7], [])         # no cols
@example(3, 2, 3, -2, [4, 6], [0, 1])        # rows past u.hi: kmax < 1
@example(4, 1, 6, -7, [5, 1, 1, 3], [2, 0])  # repeated, unsorted rows
def test_hankel_product_matches_triple_sum(seed, n, u_hi, v_lo, rows, cols):
    rng = np.random.default_rng(seed)
    u = _random_lm(rng, n, u_hi - 5, u_hi)
    v = _random_lm(rng, n, v_lo, v_lo + 5)
    got = hankel_product_matrix(u, v, rows, cols)
    want = _hankel_reference(u, v, rows, cols)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12


def test_hankel_product_rejects_negative_indices():
    lm = LaurentMatrix(1, -2, 2, np.ones((5, 1, 1)))
    with pytest.raises(ValueError):
        hankel_product_matrix(lm, lm, [-1, 0], [0])


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
    B = 24
    x = deformed_symbol_samples(CSPEC, TV, 4 * B)
    fact = wiener_hopf(x, B=B, tol=1e-6)
    ginv = transform(invert_symbol(x), (-B, B - 1))
    n = x.n
    A = np.zeros((B * n, B * n), dtype=complex)
    rhs = np.zeros((B * n, n), dtype=complex)
    for m in range(1, B + 1):
        rhs[(m - 1) * n : m * n] = -ginv.block(-m)
        for k in range(1, B + 1):
            A[(m - 1) * n : m * n, (k - 1) * n : k * n] = ginv.block(k - m)
    X = np.linalg.solve(A, rhs)
    for k in range(1, B + 1):
        assert np.array_equal(fact.T_minus.block(-k), X[(k - 1) * n : k * n])
    assert np.array_equal(fact.T_minus.block(0), np.eye(n))


@given(
    st.lists(st.floats(-0.4, 0.4), min_size=1, max_size=6),
    st.sampled_from([1, 2, 3]),
    st.integers(-3, 4),
    st.integers(0, 10),
)
def test_exp_xi_lambda_matches_schur_loop(tvals, n, lo, width):
    tv = time_vector(tvals, gd_reduced=False)
    band = (lo, max(lo, 0) + width)
    got = exp_xi_lambda(tv, n, band, exact_only=True)
    assert np.array_equal(got.coeffs, _exp_xi_reference(tv, n, band))


def test_hankel_identity_banded_inputs():
    rng = np.random.default_rng(7)
    a = LaurentMatrix(
        2, -2, 3, rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    )
    b = LaurentMatrix(
        2, -3, 2, rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    )
    rep = hankel_identity_check(a, b, 5)
    assert rep.ok, rep.max_error


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
    t0 = tau_stable(RSPEC, time_vector(base, gd_reduced=False), tol=1e-10)
    tv = time_vector([0.1, s2, 0.05, s4, 0.02], gd_reduced=False)
    got = tau_stable(RSPEC, tv, tol=1e-10)
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


# -- Fredholm determinant and the Szego-Widom limit --------------------------


def test_fredholm_matches_direct_limit():
    lm = gd_symbol(RSPEC, TV, (-30, 30))
    pf = plemelj_fourier(lm, lm_invert(lm), 8)
    fr = fredholm_det(pf, tol=1e-11)
    x = deformed_symbol_samples(RSPEC, TV, 1024)
    sw = szego_widom(lm, x, tol=1e-11)
    assert abs(fr.value - sw.D_inf) < 1e-9
    assert abs(sw.G - 1.0) < 1e-10  # reduced flows leave G = det-mean at 1


def test_fredholm_grid_invariance():
    lm30 = gd_symbol(RSPEC, TV, (-30, 30))
    lm60 = gd_symbol(RSPEC, TV, (-60, 60))
    v1 = fredholm_det(plemelj_fourier(lm30, lm_invert(lm30), 8), tol=1e-11).value
    v2 = fredholm_det(plemelj_fourier(lm60, lm_invert(lm60), 16), tol=1e-11).value
    assert abs(v1 - v2) < 1e-9


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
    sc = half_truncated_shortcut(sym)
    sw = szego_widom(sym, inverse_transform(sym, 1024), tol=1e-12)
    assert abs(sc.D_inf - sw.D_inf) < 1e-9


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
    wd = widom_derivative_check(make_sym, x0, tol=1e-12)
    exact = b_ / (1 - x0 * b_)
    assert abs(wd.contour - exact) < 1e-8
    assert wd.abs_err < 1e-6  # centered difference limits the numeric side
