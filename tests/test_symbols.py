"""Symbol families, shift matrix calculus, time deformations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blocktau import laurent, symbols
from blocktau.errors import DegenerateInput, SpecError, TruncationError
from blocktau.gradedpoly import schur_sequence
from blocktau.laurent import LaurentMatrix, lm_mul
from blocktau.symbols import (
    INVERSE_CUT,
    _base_power,
    base_inverse,
    base_symbol,
    base_symbol_values,
    big_cell_check,
    covering_spec,
    exp_xi_lambda,
    exp_xi_values,
    fold,
    gd_symbol,
    gd_symbol_graded,
    gd_symbol_values,
    lambda_power,
    rational_spec,
    root_grid,
    schur_numeric,
    time_vector,
)
from blocktau.tau import generator_modes
from oracles import (
    binomial_series_mpmath,
    exp_xi_mpmath,
    schur_mpmath,
    schur_recurrence,
    transform_adaptive,
)

RSPEC = rational_spec([0.3, 0.6])
CSPEC = covering_spec([0.3, -0.25, 0.35j], 2)


# -- spec validation ---------------------------------------------------------


def test_rational_spec_fields():
    assert RSPEC.family == "rational" and RSPEC.n == 2
    assert RSPEC.rho == pytest.approx(0.36)


def test_covering_spec_needs_full_root_count():
    with pytest.raises(SpecError):
        covering_spec([0.3, -0.25], 2)  # needs n*k+1 roots


def test_spec_rejects_bad_moduli():
    with pytest.raises(DegenerateInput):
        rational_spec([0.3, 1.2])
    with pytest.raises(DegenerateInput):
        covering_spec([0.3, 0.3, 0.2], 2)  # repeated root


def test_time_vector_gd_reduction():
    tv = time_vector([1.0, 2.0, 3.0, 4.0], gd_reduced=True)
    eff = tv.effective(2)
    assert list(eff) == [1.0, 0.0, 3.0, 0.0]
    full = time_vector([1.0, 2.0, 3.0, 4.0], gd_reduced=False)
    assert list(full.effective(2)) == [1.0, 2.0, 3.0, 4.0]


# -- shift matrix calculus ---------------------------------------------------


def test_lambda_nth_power_is_z():
    for n in (2, 3, 4):
        ln = lambda_power(n, n)
        assert ln.lo == 1 and ln.hi == 1
        assert np.max(np.abs(ln.block(1) - np.eye(n))) == 0.0


@given(st.integers(2, 4), st.integers(0, 6), st.integers(0, 6))
def test_lambda_power_additive(n, a, b):
    prod = lm_mul(lambda_power(n, a), lambda_power(n, b), (-1, 8))
    want = lambda_power(n, a + b)
    for q in range(prod.lo, prod.hi + 1):
        wb = want.block(q) if want.lo <= q <= want.hi else np.zeros((n, n))
        assert np.max(np.abs(prod.block(q) - wb)) == 0.0


def test_lambda_negative_power():
    n = 3
    prod = lm_mul(lambda_power(n, -2), lambda_power(n, 2), (-2, 2))
    assert np.linalg.norm(prod.coeffs) > 0
    for q in range(prod.lo, prod.hi + 1):
        want = np.eye(n) if q == 0 else np.zeros((n, n))
        assert np.max(np.abs(prod.block(q) - want)) < 1e-15


def test_lambda_matrix_entries():
    lam = lambda_power(2, 1)
    assert np.max(np.abs(lam.block(0) - np.array([[0, 0], [1, 0]]))) == 0.0
    assert np.max(np.abs(lam.block(1) - np.array([[0, 1], [0, 0]]))) == 0.0


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(-9, 3), st.integers(-4, 1))
def test_fold_matches_entry_loop(seed, n, lo, qlo):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    band = (qlo, qlo + 4)
    got = fold(s, lo, n, band)
    assert got.shape == (5, n, n, 2)
    for q in range(band[0], band[1] + 1):
        for i in range(n):
            for j in range(n):
                k = n * q + i - j - lo
                want = s[k] if 0 <= k < len(s) else np.zeros(2)
                assert np.array_equal(got[q - band[0], i, j], want)


# -- time deformation --------------------------------------------------------


def _miwa_times(count, K, seed):
    """t_k = sum_j x_j^k / k for count points x_j inside the disk of radius 0.9."""
    rng = np.random.default_rng(seed)
    x = 0.9 * rng.random(count) * np.exp(2j * np.pi * rng.random(count))
    return [np.sum(x**k) / k for k in range(1, K + 1)]


def _assert_matches_recurrence(t, kmax, scale):
    got = schur_numeric(t, kmax)
    assert got.shape == (kmax + 1,)
    assert np.max(np.abs(got - schur_recurrence(t, kmax))) <= 1e-15 * scale


@given(
    st.integers(0, 10**6),
    st.integers(2, 3),
    st.integers(1, 48),
    st.floats(0.05, 3.0),
    st.integers(0, 300),
    st.booleans(),
)
def test_schur_numeric_matches_recurrence(seed, n, K, scale, kmax, complex_times):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=K) + (1j * rng.normal(size=K) if complex_times else 0.0)
    teff = time_vector(scale * t / np.arange(1, K + 1)).effective(n)
    # the factors exp(t_i zeta^i) carry coefficients of size p(|t|), and
    # times of mixed phase cancel below that: it is the scale of the round-off
    _assert_matches_recurrence(teff, kmax, np.max(np.abs(schur_recurrence(np.abs(teff), kmax))))


@pytest.mark.parametrize(
    "t, kmax",
    [((11, 0, 5.5, 0, 2.75), 8300), (_miwa_times(20, 48, 5), 400)],
    ids=["long-real", "miwa-48"],
)
def test_schur_numeric_matches_recurrence_on_its_own_scale(t, kmax):
    _assert_matches_recurrence(t, kmax, np.max(np.abs(schur_recurrence(t, kmax))))


@pytest.mark.parametrize(
    "t, kmax",
    [
        ((11, 0, 5.5, 0, 2.75), 8300),
        ((0.4 + 0.3j, 0, -0.2j, 0, 0.1), 200),
        (_miwa_times(20, 48, 11), 200),
        # real times of mixed sign, in long double: in doubles p_k cancels
        # to 1.7e-14 of max|p|
        ((-11, 0, 5.5, 0, -2.75), 200),
        # one phase, omega = -1: t_i = |t_i| (-1)^i
        ((-4, 1, -2, 0.5, -1), 181),
        # a lone time: its factor is written into p with no convolution
        ((0, 0, 2.0, 0, 0), 60),
        # small times: each factor is cut at working precision, well short
        # of kmax
        ((0.2, 0, 0.1, 0, 0.05), 181),
    ],
    ids=[
        "long-real",
        "complex",
        "miwa-48",
        "mixed-sign-real",
        "omega-minus-one",
        "lone-t3",
        "small-0.2",
    ],
)
def test_schur_numeric_matches_mpmath(t, kmax):
    got, want = schur_numeric(t, kmax), schur_mpmath(t, kmax)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# the four arithmetic paths of schur_numeric along the covering route's
# directions, at its kmax = 181 for n = 2: real times of one phase (float),
# of mixed sign (long double), complex times of one phase w = e^0.3i
# (complex) and of mixed phase (complex long double)
_W = np.exp(0.3j)
SCHUR_PATHS = {
    "float": (1, 0, 0.5, 0, 0.25),
    "long-double": (-1, 0, 0.5, 0, -0.25),
    "complex": (_W, 0, 0.5 * _W**3, 0, 0.25 * _W**5),
    "mixed-phase": (1, 0, 0.5j, 0, 0.25),
}


@pytest.mark.parametrize("s", [0.2, 7.5])
@pytest.mark.parametrize("path", list(SCHUR_PATHS))
def test_schur_numeric_cut_at_working_precision_meets_mpmath(path, s):
    # each factor is cut at its last entry >= eps / (kmax + 1) of its
    # largest, eps the working precision's: what the cut drops stays below
    # the round-off of the product
    t = [s * d for d in SCHUR_PATHS[path]]
    got, want = schur_numeric(t, 181), schur_mpmath(t, 181)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("s", [0.2, 1.0, 2.5])
@pytest.mark.parametrize("path", ["float", "complex"])
def test_schur_numeric_ends_short_of_kmax_at_small_times(path, s):
    # in double precision the running product stays at its live length,
    # short of kmax + 1 = 182 up to s = 2.5, and is padded with zeros
    p = schur_numeric([s * d for d in SCHUR_PATHS[path]], 181)
    assert len(p) == 182
    assert np.flatnonzero(p)[-1] < 181


def test_schur_numeric_of_one_time_is_its_exponential_series():
    p = schur_numeric([0.0, 0.5, 0.0], 9)
    want = [0.5**m / np.prod(np.arange(1, m + 1)) for m in range(5)]
    assert np.array_equal(p[::2], want)
    assert not np.any(p[1::2])


def test_exp_xi_block_entries_are_schur_values():
    tv = time_vector([0.21, 0.0, -0.13, 0.0, 0.08])
    n = 2
    e = exp_xi_lambda(tv, n, 12)
    p = schur_recurrence(tv.effective(n), 2 * 12 + n)
    for q in range(0, 13):
        blk = e.block(q)
        for i in range(n):
            for j in range(n):
                k = n * q + i - j
                want = p[k] if k >= 0 else 0.0
                assert abs(blk[i, j] - want) < 1e-14


def test_exp_xi_values_match_scalar_exponential():
    tv = time_vector([0.2, 0.0, -0.1])
    n = 2
    z = np.exp(2j * np.pi * (np.arange(16) + 0.37) / 16)
    vals = exp_xi_values(tv, n, z)
    # diagonalize via the fiber: eigenvalues exp(xi(t, zeta_i))
    for li, zv in enumerate(z):
        zetas = root_grid(np.array([zv]), n)[0]
        t = tv.effective(n)
        eigs = [np.exp(sum(t[k - 1] * ze**k for k in range(1, 4))) for ze in zetas]
        got = np.linalg.eigvals(vals[li])
        assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(eigs))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("radius", [1.0, 0.8])
def test_exp_xi_values_closed_form_vs_40_digits(n, radius):
    # times of mixed sign and phase; 1e-15 of the largest entry is met by
    # the Vandermonde solve V^-1 diag(e^xi) V as well (9.8e-16 at worst here)
    tv = time_vector([0.4, -0.3, 0.25j, 0.2, -0.1, 0.05])
    z = radius * np.exp(2j * np.pi * (np.arange(64) + 0.37) / 64)
    want = exp_xi_mpmath(tv.effective(n), n, z)
    gap = np.max(np.abs(exp_xi_values(tv, n, z) - want))
    assert gap <= 1e-15 * np.max(np.abs(want))


def test_exp_xi_inverse_is_reversed_times():
    tv = time_vector([0.3, 0.0, -0.2, 0.0, 0.12])
    neg = time_vector([-v for v in tv.values])
    ep = exp_xi_lambda(tv, 2, 24)
    em = exp_xi_lambda(neg, 2, 24)
    prod = lm_mul(ep, em, (0, 16))
    for q in range(0, 17):
        want = np.eye(2) if q == 0 else np.zeros((2, 2))
        assert np.max(np.abs(prod.block(q) - want)) < 1e-10


@pytest.mark.parametrize("spec", [RSPEC, CSPEC], ids=["full-rational", "full-covering"])
def test_gd_symbol_graded_matches_layer_sum(spec):
    # sum over k of (L^k W) times the Schur layer p_k, one layer at a time
    Q, band = 7, (-3, 3)
    ps = schur_sequence(Q, Q)
    want = 0.0
    for k in range(Q + 1):
        blocks = lm_mul(lambda_power(spec.n, k), base_symbol(spec), band).coeffs
        blocks = np.where(np.abs(blocks) > 1e-300, blocks, 0.0)
        want = want + blocks[..., None] * ps[k].coeffs
    got = gd_symbol_graded(spec, band, Q)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15


def test_base_inverse_of_a_slow_decay_is_cut_on_the_sample_scale():
    # 1/(1 - 0.9801/z) decays slowly; round-off modes of positive index and
    # beyond ~1,650 negative modes sit below 1e-16 of the largest sample
    spec = rational_spec([0.99, 0.2])
    w, w_inv = base_symbol(spec), base_inverse(spec)
    assert w_inv.hi == 0 and w_inv.width <= 1700
    z = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    gap = np.max(np.abs(np.einsum("lab,lbc->lac", w(z), w_inv(z)) - np.eye(2)[None]))
    assert gap <= 1e-13


# -- base and deformed symbols -----------------------------------------------


def test_base_symbols_live_in_big_cell():
    for spec in (RSPEC, CSPEC):
        assert big_cell_check(base_symbol(spec))


@pytest.mark.parametrize(
    "plants",  # {(mode, row, col): value}, over the covering W whose z^0 block is I
    [
        {(1, 1, 0): 1e-9},
        {(0, 1, 1): 1.0 + 1e-9},
        {(0, 0, 1): 1e-9},
        {(1, 0, 0): np.nan, (1, 1, 0): 5.0},  # a NaN must not hide the 5
        {(0, 1, 1): np.nan},
    ],
    ids=[
        "positive-mode",
        "diagonal-not-one",
        "entry-above-diagonal",
        "nan-in-positive-mode",
        "nan-on-diagonal",
    ],
)
def test_big_cell_check_fails_each_condition(plants):
    w = base_symbol(CSPEC)
    coeffs = np.concatenate([w.coeffs, np.zeros((1 - w.hi, 2, 2))])  # room for mode 1
    for (mode, row, col), value in plants.items():
        coeffs[mode - w.lo, row, col] = value
    assert not big_cell_check(LaurentMatrix(2, w.lo, 1, coeffs))


# the closed-form base pair against its references: the two shipped families,
# a 4-root n = 3 covering and a rational pair whose W^-1 decays slowly
C3SPEC = covering_spec([0.3, -0.25, 0.35j, -0.2 + 0.1j], 3)
BASE_SPECS = [RSPEC, CSPEC, C3SPEC, rational_spec([0.99, 0.2])]
BASE_IDS = ["rational", "covering", "covering3", "rational99"]


def _exact_table(spec):
    """Roots b_j and exact exponents E_ij of w_i = prod_j (1 - b_j/z)^E_ij.

    W of a rational family stores the double c^2 as its mode -1, so W^-1
    is the series of that double.
    """
    if spec.family == "rational":
        E = [[Fraction(int(i == j)) for j in range(spec.n)] for i in range(spec.n)]
        return [c**2 for c in spec.params], E
    roots = range(len(spec.params))
    E = [[Fraction(i, spec.n) - (j < i * spec.k) for j in roots] for i in range(spec.n)]
    return list(spec.params), E


@pytest.mark.parametrize("spec", BASE_SPECS, ids=BASE_IDS)
def test_closed_form_base_pair_matches_sampled_oracle(spec):
    w, w_inv = base_symbol(spec), base_inverse(spec)
    got = transform_adaptive(lambda z: base_symbol_values(spec, z), spec.n, (w.lo, w.hi))
    assert np.max(np.abs(w.coeffs - got.coeffs)) <= 1e-15

    def inverse_values(z):
        return np.linalg.inv(base_symbol_values(spec, z))

    got = transform_adaptive(inverse_values, spec.n, (w_inv.lo, w_inv.hi))
    # the oracle's FFT round-off is eps times the scale of its samples:
    # ~50 for (0.99, 0.2), whose sampled W^-1 is 2.5e-15 off the 40-digit modes
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    top = max(1.0, float(np.max(np.abs(inverse_values(circle)))))
    assert np.max(np.abs(w_inv.coeffs - got.coeffs)) <= 1e-15 * top


@pytest.mark.parametrize("spec", BASE_SPECS, ids=BASE_IDS)
def test_closed_form_base_pair_matches_40_digit_series(spec):
    b, E = _exact_table(spec)
    E_inv = [[-e for e in row] for row in E]
    for lm, exps in ((base_symbol(spec), E), (base_inverse(spec), E_inv)):
        assert lm.hi == 0
        # the recurrence is quadratic in the depth at 40 digits; 200 modes pass
        # the largest terms of every series here
        depth = min(-lm.lo, 200)
        want = binomial_series_mpmath(b, exps, depth)[::-1, :, None] * np.eye(spec.n)
        assert np.max(np.abs(lm.coeffs[-depth - lm.lo :] - want)) <= 1e-16


@pytest.mark.parametrize("spec", BASE_SPECS, ids=BASE_IDS)
def test_base_pair_is_inverse_off_grid(spec):
    w, w_inv = base_symbol(spec), base_inverse(spec)
    for r in (1.0, 1.3):
        z = r * np.exp(2j * np.pi * (np.arange(61) + 0.29) / 61)
        vals = base_symbol_values(spec, z)
        assert np.max(np.abs(w(z) - vals)) <= 1e-14
        assert np.max(np.abs(vals @ w_inv(z) - np.eye(spec.n))) <= 1e-14
        assert np.max(np.abs(w(z) @ w_inv(z) - np.eye(spec.n))) <= 1e-14


# three nearby roots whose W^-1 exponents add up to -3/2: modes ~ sqrt(m) rho^m
CLUSTER = covering_spec([0.1, -0.1j, 0.6, 0.6 * np.exp(0.01j), 0.6 * np.exp(-0.01j)], 2)


@pytest.mark.parametrize("spec", BASE_SPECS + [CLUSTER], ids=BASE_IDS + ["cluster"])
def test_base_series_stop_where_the_majorant_bounds_the_rest(spec, monkeypatch):
    # W and W^-1 end at their last mode above INVERSE_CUT ||.||_W: a run of
    # the builder stopped and cut far deeper holds nothing past it above that
    for sign in (1, -1):
        cut = _base_power(spec, sign)
        with monkeypatch.context() as m:
            m.setattr(symbols, "INVERSE_CUT", 1e-24)
            deep = _base_power(spec, sign)
        assert deep.lo <= cut.lo and deep.hi == cut.hi == 0
        norms = np.linalg.norm(deep.coeffs, axis=(1, 2))
        bar = INVERSE_CUT * norms.sum()
        assert norms[cut.lo - deep.lo] > bar
        assert np.all(norms[: cut.lo - deep.lo] <= bar)
        assert np.array_equal(cut.coeffs, deep.coeffs[cut.lo - deep.lo :])


def test_base_pair_samples_no_circle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the base pair is built without circle samples")

    for name in ("sample_function", "transform", "inverse_transform", "lm_invert"):
        monkeypatch.setattr(laurent, name, refuse)
    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)
    spec = covering_spec([0.31, -0.27, 0.33j], 2)  # built nowhere else: no cache hit
    w, w_inv = base_symbol(spec), base_inverse(spec)
    assert w.lo < 0 and w.hi == w_inv.hi == 0


def test_gd_symbol_band_guard_reads_the_dropped_modes():
    # g = exp(xi) W past band[1] comes from the modes of exp(xi) past band[1]:
    # at s = 5.8 the modes of g past 32 reach 1.2e-4 of its largest
    tv = time_vector([5.8 * d for d in (1, 0, 0.5, 0, 0.25)])
    with pytest.raises(TruncationError):
        gd_symbol(CSPEC, tv, (-32, 32))
    gd_symbol(CSPEC, tv, (-32, 32), exact_only=True)


def test_rational_base_symbol_values():
    z = np.array([1.7 - 0.4j, 0.9 + 0.8j])
    vals = base_symbol_values(RSPEC, z)
    for li, zv in enumerate(z):
        want = np.diag([1 - 0.3**2 / zv, 1 - 0.6**2 / zv])
        assert np.max(np.abs(vals[li] - want)) < 1e-15


@pytest.mark.parametrize(
    "spec",
    [RSPEC, CSPEC, rational_spec([0.3, 0.6, 0.9]), covering_spec([0.3, -0.25, 0.35j, 0.1], 3)],
    ids=["rational", "covering", "rational3", "covering3"],
)
def test_base_symbol_values_are_diagonal(spec):
    # gd_symbol_values scales the columns of exp(xi) by the diagonal of W,
    # which is the product exp(xi) W only while W is diagonal
    tv = time_vector([0.4, -0.3, 0.25j, 0.2, -0.1, 0.05])
    for radius in (1.0, 0.8):
        z = radius * np.exp(2j * np.pi * (np.arange(64) + 0.37) / 64)
        w = base_symbol_values(spec, z)
        off = w.copy()
        off[:, np.arange(spec.n), np.arange(spec.n)] = 0.0
        assert not np.any(off)
        want = exp_xi_values(tv, spec.n, z) @ w
        gap = np.max(np.abs(gd_symbol_values(spec, tv, z) - want))
        assert gap <= 4 * np.finfo(float).eps * np.max(np.abs(want))


def test_covering_base_symbol_is_diagonal_unit_det():
    z = np.exp(2j * np.pi * (np.arange(32) + 0.19) / 32)
    vals = base_symbol_values(CSPEC, z)
    off = vals.copy()
    off[:, np.arange(2), np.arange(2)] = 0.0
    assert np.max(np.abs(off)) == 0.0
    assert np.max(np.abs(vals[:, 0, 0] - 1.0)) == 0.0


def test_gd_symbol_det_equals_base_det():
    tv = time_vector([0.15, 0.0, -0.1, 0.0, 0.07])
    z = np.exp(2j * np.pi * (np.arange(48) + 0.3) / 48)
    for spec in (RSPEC, CSPEC):
        da = np.linalg.det(gd_symbol_values(spec, tv, z))
        db = np.linalg.det(base_symbol_values(spec, z))
        assert np.max(np.abs(da - db)) < 1e-10


def test_gd_symbol_band_matches_values():
    tv = time_vector([0.2, 0.0, -0.15, 0.0, 0.08])
    lm = gd_symbol(RSPEC, tv, (-30, 30))
    z = np.exp(2j * np.pi * (np.arange(64) + 0.41) / 64)
    gap = np.max(np.abs(lm(z) - gd_symbol_values(RSPEC, tv, z)))
    assert gap < 1e-12


def test_column_series_covering_first_column_is_one():
    # generator 1, the first column of the covering symbol read as one
    # zeta-series: identically 1
    w = base_symbol(CSPEC)
    modes = np.arange(2 * w.lo - 2, 2 * w.hi + 4)  # the whole series and two modes past each end
    got = generator_modes(CSPEC, 1, modes)[0]
    assert np.max(np.abs(got - (modes == 0))) < 1e-12


def test_root_grid_principal_roots():
    z = np.array([4.0 + 0.0j])
    got = root_grid(z, 2)[0]
    assert abs(got[0] - 2.0) < 1e-14 and abs(got[1] + 2.0) < 1e-14
