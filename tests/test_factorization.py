"""Numerical Wiener-Hopf factorization and its determinant bookkeeping."""

import numpy as np
import pytest

from blocktau.errors import AliasError, ConvergenceError, FactorizationError
from blocktau.laurent import lm_trim
from blocktau.symbols import (
    covering_spec,
    gd_symbol,
    gd_symbol_values,
    rational_spec,
    time_vector,
)
from blocktau.factorization import (
    bo_consistency_check,
    deformed_symbol_samples,
    tau_ratio_check,
    two_sided_factorization,
    wave_matrix,
    wiener_hopf,
    wiener_hopf_banded,
)

RSPEC = rational_spec([0.3, 0.6])
CSPEC = covering_spec([0.3, -0.25, 0.35j], 2)
TV = time_vector([0.2, 0.0, -0.15, 0.0, 0.08])


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


def test_minus_factor_band_doubling_is_stable():
    x = _samples()
    f1 = wiener_hopf(x, B=32, tol=1e-9)
    f2 = wiener_hopf(x, B=64, tol=1e-9)
    worst = max(
        float(np.max(np.abs(f1.T_minus.block(q) - f2.T_minus.block(q))))
        for q in range(-32, 1)
    )
    assert worst < 1e-9


def test_product_reconstructs_symbol_minus_first():
    fact = wiener_hopf(_samples(), B=40, tol=1e-9)
    z = np.exp(2j * np.pi * (np.arange(64) + 0.13) / 64)
    rec = np.einsum("lab,lbc->lac", fact.T_minus(z), fact.T_plus(z))
    assert np.max(np.abs(rec - gd_symbol_values(RSPEC, TV, z))) < 1e-8


def test_two_sided_orders_both_reconstruct():
    x = _samples()
    pair = two_sided_factorization(x, B=40, tol=1e-9)
    z = x.grid()[::97]
    want = gd_symbol_values(RSPEC, TV, z)
    rec_pf = np.einsum("lab,lbc->lac", pair.gamma_plus(z), pair.gamma_minus(z))
    rec_mf = np.einsum("lab,lbc->lac", pair.theta_minus(z), pair.theta_plus(z))
    assert np.max(np.abs(rec_pf - want)) < 1e-8
    assert np.max(np.abs(rec_mf - want)) < 1e-8


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
    tv = time_vector([0.1, 0.0, 0.05, 0.0, 0.02])
    fact = wiener_hopf(_samples(CSPEC, tv), B=48, tol=1e-9)
    assert fact.residual < 1e-9
    assert fact.det_plus_dev < 1e-8


def test_banded_route_agrees():
    lm = gd_symbol(RSPEC, TV, (-30, 30))
    tm, tp = wiener_hopf_banded(lm, tol=1e-9)
    rng = np.random.default_rng(7)
    z = np.exp(2j * np.pi * rng.random(16))
    rec = np.einsum("lab,lbc->lac", tm(z), tp(z))
    assert np.max(np.abs(rec - lm(z))) < 1e-8


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


def test_tau_ratio_corrected_identity():
    for N in (1, 2):
        tr = tau_ratio_check(RSPEC, TV, N)
        assert tr.residual < 1e-10
        # the bare single-block display misses the coupling stripes: its
        # deviation is genuinely nonzero, which is why the correction exists
        assert 1e-12 < tr.block_residual < 1e-4


def test_tau_ratio_unsettled_window_raises():
    # one window leaves no Cauchy pair to compare, so the check cannot settle
    with pytest.raises(ConvergenceError):
        tau_ratio_check(RSPEC, TV, 1, window=40, max_window=40)


def test_bo_consistency_via_wave_matrix():
    for N in (1, 2):
        assert bo_consistency_check(RSPEC, TV, N) < 1e-8
