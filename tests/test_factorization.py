"""Numerical Wiener-Hopf factorization and its determinant bookkeeping."""

import dataclasses

import numpy as np
import pytest

from blocktau.errors import AliasError, FactorizationError
from blocktau.laurent import (
    CircleSamples,
    LaurentMatrix,
    inverse_transform,
    lm_invert,
    lm_mul,
    lm_trim,
    sample_function,
)
from blocktau.symbols import (
    base_symbol,
    covering_spec,
    exp_xi_lambda,
    gd_symbol,
    gd_symbol_values,
    rational_spec,
    time_vector,
)
from blocktau import checks, cli, factorization
from blocktau.factorization import (
    bo_consistency_check,
    deformed_symbol_samples,
    tau_ratio_check,
    two_sided_factorization,
    wave_matrix,
    wiener_hopf,
)
from blocktau.toeplitz import borodin_okounkov, correction_det, hankel_product_matrix
from oracles import minus_factor_at_depth

RSPEC = rational_spec([0.3, 0.6])
CSPEC = covering_spec([0.3, -0.25, 0.35j], 2)
TV = time_vector([0.2, 0.0, -0.15, 0.0, 0.08])
CTV = time_vector([0.1, 0.0, 0.05, 0.0, 0.02])
RSPEC3 = rational_spec([0.3, 0.6, 0.9])


def _samples(spec=RSPEC, tv=TV, M=2048):
    return deformed_symbol_samples(spec, tv, M)


# -- the factorization itself ------------------------------------------------


def test_certificates_within_tolerance():
    fact = wiener_hopf(_samples(), B=40, tol=1e-9)
    assert fact.residual < 1e-9
    assert fact.det_plus_dev < 1e-8
    assert fact.leakage < 1e-16
    assert fact.cond < 1e6


def test_factors_have_correct_sidedness():
    fact = wiener_hopf(_samples(), B=40, tol=1e-9)
    tm = lm_trim(fact.T_minus, 1e-12)
    tp = lm_trim(fact.T_plus, 1e-12)
    assert tm.hi <= 0  # minus factor: modes <= 0, normalized at infinity
    assert tp.lo >= 0  # plus factor: modes >= 0
    assert np.max(np.abs(tm.block(0) - np.eye(2))) < 1e-10


def test_product_reconstructs_symbol_minus_first():
    fact = wiener_hopf(_samples(), B=40, tol=1e-9)
    z = np.exp(2j * np.pi * (np.arange(64) + 0.13) / 64)
    rec = np.einsum("lab,lbc->lac", fact.T_minus(z), fact.T_plus(z))
    assert np.max(np.abs(rec - gd_symbol_values(RSPEC, TV, z))) < 1e-8


def test_two_sided_orders_share_one_spectral_pass(monkeypatch):
    # one inversion serves both orders; the plus-first order reads the
    # reflected spectra and meets a factorization of the reflected samples
    x = _samples()
    calls = []
    real = factorization.invert_symbol
    monkeypatch.setattr(factorization, "invert_symbol", lambda s: calls.append(1) or real(s))
    pair = two_sided_factorization(x, B=40, tol=1e-9)
    assert len(calls) == 1
    assert pair.minus_first.B_used == 1
    reflected = CircleSamples(x.n, x.M, np.concatenate([x.values[:1], x.values[:0:-1]]))
    want = wiener_hopf(reflected, B=40, tol=1e-9)
    assert pair.plus_first.B_used == want.B_used <= 40
    for got, ref in ((pair.plus_first.T_minus, want.T_minus), (pair.plus_first.T_plus, want.T_plus)):
        lo, hi = min(got.lo, ref.lo), max(got.hi, ref.hi)
        assert max(np.max(np.abs(got.block(k) - ref.block(k))) for k in range(lo, hi + 1)) < 1e-15


def test_two_sided_orders_both_reconstruct():
    x = _samples()
    pair = two_sided_factorization(x, B=40, tol=1e-9)
    z = x.grid()[::97]
    want = gd_symbol_values(RSPEC, TV, z)
    rec_pf = np.einsum("lab,lbc->lac", pair.gamma_plus(z), pair.gamma_minus(z))
    rec_mf = np.einsum("lab,lbc->lac", pair.theta_minus(z), pair.theta_plus(z))
    assert np.max(np.abs(rec_pf - want)) < 1e-8
    assert np.max(np.abs(rec_mf - want)) < 1e-8


def test_unit_determinant_is_on_theta_plus_and_gamma_plus():
    # R_plus = gamma_minus(1/z) carries det g(1/z), so the plus-first
    # det_plus_dev reads sup |det g - 1| (0.48 here) and certifies nothing;
    # the unit determinant of that order is gamma_plus = R_minus(1/z)'s
    x = _samples()
    pair = two_sided_factorization(x, B=40, tol=1e-9)
    mf, pf = pair.minus_first, pair.plus_first
    assert mf.B_used == 1 and pf.B_used <= 40
    gamma_dev = np.max(np.abs(np.linalg.det(pair.gamma_plus(x.grid())) - 1.0))
    assert max(mf.residual, mf.det_plus_dev, pf.residual, gamma_dev) <= 1e-9
    det_g_dev = np.max(np.abs(np.linalg.det(x.values) - 1.0))
    assert det_g_dev > 0.4
    assert pf.det_plus_dev == pytest.approx(det_g_dev, rel=1e-12)


def test_determinant_bookkeeping():
    # det T_+ is identically 1; det T_- carries det of the symbol
    fact = wiener_hopf(_samples(), B=40, tol=1e-9)
    z = np.exp(2j * np.pi * (np.arange(32) + 0.21) / 32)
    det_plus = np.linalg.det(fact.T_plus(z))
    det_minus = np.linalg.det(fact.T_minus(z))
    det_sym = np.linalg.det(gd_symbol_values(RSPEC, TV, z))
    assert np.max(np.abs(det_plus - 1.0)) < 1e-8
    assert np.max(np.abs(det_minus - det_sym)) < 1e-8


def test_covering_family_factorizes():
    fact = wiener_hopf(_samples(CSPEC, CTV), B=48, tol=1e-9)
    assert fact.residual < 1e-9
    assert fact.det_plus_dev < 1e-8


def test_banded_route_agrees():
    lm = gd_symbol(RSPEC, TV, (-30, 30))
    fact = wiener_hopf(inverse_transform(lm, 512))
    rng = np.random.default_rng(7)
    z = np.exp(2j * np.pi * rng.random(16))
    rec = np.einsum("lab,lbc->lac", fact.T_minus(z), fact.T_plus(z))
    assert np.max(np.abs(rec - lm(z))) < 1e-8


@pytest.mark.parametrize("spec, tv", [(RSPEC, TV), (CSPEC, CTV)], ids=["rational", "covering"])
def test_derived_depth_matches_deep_solve(spec, tv):
    # the depth read off g holds the whole minus factor of a 128-block solve
    x = _samples(spec, tv)
    fact, deep = wiener_hopf(x), minus_factor_at_depth(x, 128)
    assert fact.B_used <= 64
    # both factors end at mode 0: compare modes -B_used..0
    tail = deep.coeffs[-fact.B_used - 1 :]
    assert np.max(np.abs(fact.T_minus.coeffs - tail)) < 1e-14
    assert np.max(np.abs(deep.coeffs[: -fact.B_used - 1])) < 1e-14


def test_derived_depth_stops_at_the_round_off_floor():
    # g = I + A/z + E/z^100 with |E| at the FFT's round-off level: the modes
    # of g^{-1} decay like 0.3^k to that level by k ~ 31, and the far mode
    # near -100 must not pull the depth past it
    A = np.array([[0.3, 0.1], [0.0, 0.2]])
    E = 5e-16 * np.eye(2)

    def g(z):
        zz = z[:, None, None]
        return np.eye(2) + A / zz + E / zz**100

    x = sample_function(g, 2, 1024)
    fact, deep = wiener_hopf(x), minus_factor_at_depth(x, 128)
    assert fact.B_used < 64
    tail = deep.coeffs[-fact.B_used - 1 :]
    assert np.max(np.abs(fact.T_minus.coeffs - tail)) < 1e-14


def _widom_inverse_samples():
    # the inverse of (1 - x z)(1 - b/z) at b = 0.35, x = 0.4: the symbol that
    # the registry row toeplitz.widom_derivative factors
    c = np.array([-0.35, 1 + 0.4 * 0.35, -0.4], dtype=complex).reshape(3, 1, 1)
    return inverse_transform(lm_invert(LaurentMatrix(1, -1, 1, c)), 1024)


@pytest.mark.parametrize(
    "make_x, depth",
    [
        (_samples, 1),
        (lambda: _samples(CSPEC, CTV), -base_symbol(CSPEC).lo),
        (_widom_inverse_samples, 32),
    ],
    ids=["rational", "covering", "widom"],
)
def test_derived_depth_is_the_depth_of_g(make_x, depth):
    # T_minus = g T_plus^{-1} has no mode below the lowest mode of g, so one
    # solve at g's depth meets a tight tol and holds the deep solve's factor;
    # an explicit B above that depth solves at the same depth
    x = make_x()
    tail = minus_factor_at_depth(x, 128).coeffs[-depth - 1 :]
    for B in (None, 40):
        fact = wiener_hopf(x, B=B, tol=1e-14)
        assert fact.B_used == depth
        assert np.max(np.abs(fact.T_minus.coeffs - tail)) < 1e-14


def test_explicit_depth_below_that_of_g_caps_the_solve():
    # the covering minus factor reaches mode -27, its mode -11 at 3.8e-9: a
    # 10-block solve misses it, a 20-block one meets 1e-9 and reports 20
    x = _samples(CSPEC, CTV)
    with pytest.raises(FactorizationError, match="at depth B=10;"):
        wiener_hopf(x, B=10, tol=1e-9)
    assert wiener_hopf(x, B=20, tol=1e-9).B_used == 20


def test_derived_depth_ignores_the_round_off_of_g_inverse():
    # at s = 2 along (1, 0, 1/2, 0, 1/4) the covering's g^{-1} carries FFT
    # round-off at 1e-15 to 4e-15 of its largest mode out to M//4 = 512,
    # while g ends at mode -27
    x = _samples(CSPEC, time_vector([2.0, 0.0, 1.0, 0.0, 0.5]))
    assert wiener_hopf(x).B_used <= 32


@pytest.mark.parametrize("M", [1024, 2048])
def test_derived_depth_reads_no_round_off_near_the_zero_locus(M):
    # at t1 = 5.05i modes -2 and -3 of g are FFT round-off at ~6e-15: above
    # 1e-16 of the largest mode, below eps max_j ||g(z_j)||_F = 4.3e-14.
    # A solve at depth 2 or 3 misses tol (residual 1.7e-6 or 2.2e-6)
    x = deformed_symbol_samples(RSPEC, time_vector([5.05j, 0.0, 0.0]), M)
    assert wiener_hopf(x, tol=1e-6).B_used == 1


def test_derived_depth_raises_at_the_derived_depth():
    # no depth reaches a residual of 1e-17, and the derived depth is tried once
    with pytest.raises(FactorizationError, match="B=1;"):
        wiener_hopf(_samples(M=512), tol=1e-17)


def test_alias_guard():
    with pytest.raises(AliasError):
        wiener_hopf(_samples(M=64), B=40)


def test_near_singular_symbol_rejected():
    # t1 = i * pi / 0.6 puts the symbol at the tau zero locus
    tv = time_vector([1j * np.pi / 0.6, 0.0, 0.0])
    x = deformed_symbol_samples(RSPEC, tv, 1024)
    with pytest.raises(FactorizationError):
        wiener_hopf(x, B=32, tol=1e-10)


def test_conditioning_grows_toward_zero_locus():
    conds = []
    for frac in (0.2, 0.6, 0.9):
        tv = time_vector([1j * np.pi / 0.6 * frac, 0.0, 0.0])
        x = deformed_symbol_samples(RSPEC, tv, 1024)
        try:
            conds.append(wiener_hopf(x, B=32, tol=1e-6).cond)
        except FactorizationError:
            conds.append(np.inf)
    assert conds[0] < conds[1] < conds[2]


# -- wave matrix and the ratio corollary -------------------------------------


def test_wave_matrix_mode_support():
    # the rational wave matrix has Fourier modes >= -1 only, and it
    # multiplies against its returned inverse to the identity on samples
    psi, psi_inv = wave_matrix(RSPEC, TV)
    tail = sum(float(np.max(np.abs(psi.block(q)))) for q in range(psi.lo, -1))
    assert tail < 1e-12
    z = np.exp(2j * np.pi * (np.arange(24) + 0.31) / 24)
    prod = np.einsum("lab,lbc->lac", psi(z), psi_inv(z))
    assert np.max(np.abs(prod - np.eye(2)[None])) < 1e-8


@pytest.mark.parametrize(
    "spec, tv",
    [
        (RSPEC, TV),
        (RSPEC, time_vector([0.1, 0.0, -0.2])),
        (CSPEC, CTV),
        (CSPEC, time_vector([-0.15, 0.0, 0.1])),
    ],
    ids=["rational-TV", "rational-t2", "covering-CTV", "covering-t2"],
)
def test_wave_matrix_inverse_matches_inverting_the_minus_factor(spec, tv):
    # reference: Psi^-1 = T_minus^-1 exp(xi(t,L)), with T_minus inverted on samples
    psi_inv = wave_matrix(spec, tv)[1]
    tm_inv = lm_invert(wiener_hopf(deformed_symbol_samples(spec, tv, 2048)).T_minus)
    e_hi = 40 + 2 * len(tv.values)
    e_plus = exp_xi_lambda(tv, spec.n, (0, e_hi))
    want = lm_mul(tm_inv, e_plus, (tm_inv.lo, e_hi))
    lo, hi = max(want.lo, psi_inv.lo), min(want.hi, psi_inv.hi)
    assert hi - lo > 30
    assert max(np.max(np.abs(psi_inv.block(k) - want.block(k))) for k in range(lo, hi + 1)) < 1e-13
    # neither route holds a mode above 1e-13 past the common band
    for a in (want, psi_inv):
        assert all(np.max(np.abs(a.block(k))) < 1e-13 for k in range(a.lo, a.hi + 1) if not lo <= k <= hi)


def test_tau_ratio_corrected_identity():
    for spec, tv in ((RSPEC, TV), (CSPEC, CTV), (RSPEC3, TV)):
        psi, psi_inv = wave_matrix(spec, tv)
        for N in (1, 2):
            tr = tau_ratio_check(spec, tv, N)
            assert tr.residual < 1e-10
            # the bare single-block display misses the coupling stripes: its
            # deviation is genuinely nonzero, which is why the correction exists
            assert 1e-12 < tr.block_residual < 1e-4
            # rows of the kernel past Psi.hi vanish, so this window is exact
            assert tr.window == max(psi.hi - N, 1)
            # Schur complement: D_N = D_inf det(I - K_N) gives
            # D_N / D_{N+1} = det(I - K_N) / det(I - K_{N+1})
            schur = (
                correction_det(psi, psi_inv, N).det_correction
                / correction_det(psi, psi_inv, N + 1).det_correction
            )
            assert abs(tr.corrected_det - schur) < 1e-13


def test_registry_rows_build_the_wave_matrix_once(monkeypatch, tmp_path):
    # ratio_block_determinant and wave_matrix_correction read the wave matrix
    # of one (spec, t) at N = 1, 2: one minus factor serves all four
    cfg = cli.load_config(None)
    ctx = checks.Context(cfg, str(tmp_path))
    calls = []
    real = factorization.wiener_hopf
    monkeypatch.setattr(
        factorization, "wiener_hopf", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    factorization._wave_matrix.cache_clear()
    for entry in checks.CHECKS:
        if entry.name in ("ratio_block_determinant", "wave_matrix_correction"):
            assert entry.fn(ctx, entry.tol)[1]
    assert len(calls) == 1
    psi, psi_inv = wave_matrix(ctx.rspec, checks.TV)
    assert not psi.coeffs.flags.writeable and not psi_inv.coeffs.flags.writeable
    assert len(calls) == 1


def test_bo_consistency_via_wave_matrix():
    for N in (1, 2):
        assert bo_consistency_check(RSPEC, TV, N) < 1e-8


@pytest.mark.parametrize(
    "spec, tv",
    [(RSPEC, TV), (CSPEC, CTV), (RSPEC3, TV)],
    ids=["rational", "covering", "rational3"],
)
def test_correction_det_window_is_exact(spec, tv):
    # rows i >= u.hi of the kernel vanish: twice the window adds nothing
    pair = two_sided_factorization(_samples(spec, tv), B=40, tol=1e-9)
    bo_kernel = tuple(lm_trim(s, 1e-12) for s in pair.bo_symbols)
    for u, v in (bo_kernel, wave_matrix(spec, tv)):
        for N in (1, 2, 3, 4):
            cd = correction_det(u, v, N)
            assert cd.window_used == max(u.hi - N, 1)
            idx = range(N, N + 2 * cd.window_used)
            K = hankel_product_matrix(u, v, idx, idx)
            assert abs(cd.det_correction - np.linalg.det(np.eye(len(K)) - K)) <= 1e-15


def test_bo_symbols_are_built_once_per_pair(monkeypatch):
    pair = two_sided_factorization(_samples(), B=40, tol=1e-9)
    fresh = dataclasses.replace(pair)  # the same factors, nothing cached
    calls = []
    real = factorization.lm_invert
    monkeypatch.setattr(factorization, "lm_invert", lambda a: calls.append(a) or real(a))
    got = [borodin_okounkov(pair, N, tol=1e-12) for N in (1, 2, 3, 4)]
    assert len(calls) == 2
    for N, bo in zip((1, 2, 3, 4), got):
        want = correction_det(*(lm_trim(s, 1e-12) for s in fresh.bo_symbols), N)
        assert np.array_equal(bo.K_matrix, want.K_matrix)
        assert bo.det_correction == want.det_correction
