"""Banded matrix Laurent series, circle grids, norms, CSV interchange."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blocktau import laurent
from blocktau.errors import AliasError, BranchError, NearSingularSymbol, WindingUndefined
from blocktau.symbols import base_symbol, rational_spec
from blocktau.laurent import (
    COND_LIMIT,
    CSV_HEADER,
    CircleSamples,
    LaurentMatrix,
    ScalarSeries,
    VectorSeries,
    gather_modes,
    geometric_mean,
    half_norm,
    inverse_transform,
    invert_symbol,
    lm_add,
    lm_column,
    lm_invert,
    lm_mul,
    lm_project,
    lm_reflect,
    lm_scale,
    lm_trim,
    sample_function,
    samples_mul,
    stacked_solve,
    transform,
    winding_number,
    write_csv,
)
from oracles import read_csv, transform_adaptive


def _random_lm(rng, n=2, lo=-3, hi=4):
    w = hi - lo + 1
    co = rng.normal(size=(w, n, n)) + 1j * rng.normal(size=(w, n, n))
    return LaurentMatrix(n, lo, hi, co)


# -- transforms --------------------------------------------------------------


@given(st.integers(0, 10**6), st.integers(1, 3), st.integers(-6, 0), st.integers(0, 6))
def test_transform_roundtrip(seed, n, lo, hi):
    rng = np.random.default_rng(seed)
    lm = _random_lm(rng, n, lo, hi)
    back = transform(inverse_transform(lm, 64), (lo, hi))
    assert np.max(np.abs(back.coeffs - lm.coeffs)) < 1e-12


@pytest.mark.parametrize("radius", [0.5, 1.3])
def test_inverse_transform_off_the_unit_circle(radius):
    lm = _random_lm(np.random.default_rng(3), 2, -5, 6)
    x = inverse_transform(lm, 64, radius)
    assert x.radius == radius
    assert np.max(np.abs(x.values - lm(x.grid()))) < 1e-12 * np.max(np.abs(x.values))
    assert np.max(np.abs(transform(x, (-5, 6)).coeffs - lm.coeffs)) < 1e-12


def _samples_with_condition(cond):
    """Eight well-conditioned 2 x 2 samples and, at sample 5, one of the given cond_2."""
    rng = np.random.default_rng(11)
    values = np.eye(2) + 0.3 * rng.normal(size=(8, 2, 2))
    u, _, vh = np.linalg.svd(rng.normal(size=(2, 2)))
    values[5] = u @ np.diag([1.0, 1.0 / cond]) @ vh
    return CircleSamples(2, 8, values)


@pytest.mark.parametrize("cond", [1e3, 0.2e12, 0.7e12, 1.1e12, np.inf])
def test_invert_symbol_screen_keeps_the_svd_decision(monkeypatch, cond):
    x = _samples_with_condition(cond)
    conds = np.linalg.cond(x.values)
    svd_calls, svd_cond = [], np.linalg.cond
    monkeypatch.setattr(laurent.np.linalg, "cond", lambda a: svd_calls.append(1) or svd_cond(a))
    if not conds.max() <= COND_LIMIT:
        with pytest.raises(NearSingularSymbol) as exc:
            invert_symbol(x)
        worst = conds.max()
        assert str(exc.value) == f"condition number {worst:.3g} at sample 5 exceeds 1e+12"
    else:
        inv = invert_symbol(x)
        assert np.array_equal(inv.values, stacked_solve(x.values)[0])
    # the Frobenius screen clears samples below half the limit without an SVD
    assert len(svd_calls) == (0 if cond < 0.5 * COND_LIMIT else 1)
    if conds.max() <= COND_LIMIT:
        _assert_near_lapack(x.values, inv.values, np.linalg.inv(x.values))


# -- the stacked elimination kernel ------------------------------------------


def _assert_near_lapack(a, got, want):
    """Two backward stable solves of one stack differ by at most ~n eps cond(a_m) |x_m|."""
    n = a.shape[-1]
    scale = np.linalg.cond(a) * np.linalg.norm(want.reshape(len(a), -1), axis=1)
    gap = np.linalg.norm((got - want).reshape(len(a), -1), axis=1)
    assert np.all(gap <= 8 * n * np.finfo(float).eps * scale)


def _random_stack(rng, M, n, k=None):
    shape = (M, n, n if k is None else k)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_solve_matches_lapack(n):
    rng = np.random.default_rng(40 + n)
    a = _random_stack(rng, 256, n)
    b = _random_stack(rng, 256, n, 3)
    x, det = stacked_solve(a, b)
    _assert_near_lapack(a, x, np.linalg.solve(a, b))
    inv, det_inv = stacked_solve(a)
    _assert_near_lapack(a, inv, np.linalg.inv(a))
    det_only = stacked_solve(a, a[:, :, :0])[1]
    assert np.array_equal(det, det_inv) and np.array_equal(det, det_only)
    want = np.linalg.det(a)
    bound = 8 * n * np.finfo(float).eps * np.linalg.cond(a) * np.abs(want)
    assert np.all(np.abs(det - want) <= bound)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_solve_swaps_a_row_at_every_step(n):
    # the shift L(z) with a small diagonal: column c's pivot is the
    # subdiagonal one, one row below, at every elimination step
    rng = np.random.default_rng(50 + n)
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    a = np.zeros((64, n, n), dtype=complex)
    a[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    a[:, 0, n - 1] = z
    a += 1e-3 * _random_stack(rng, 64, n)
    x, det = stacked_solve(a)
    _assert_near_lapack(a, x, np.linalg.inv(a))
    want = np.linalg.det(a)
    assert np.max(np.abs(det - want)) <= 1e-14
    # n - 1 swaps: det ~ (-1)^(n-1) z
    assert np.max(np.abs(det - (-1) ** (n - 1) * z)) < 1e-2


def test_stacked_solve_singular_sample():
    # an exactly singular sample gives det 0 and a non-finite inverse there,
    # and leaves its neighbours alone
    rng = np.random.default_rng(60)
    a = _random_stack(rng, 8, 2)
    a[3] = [[1.0, 2.0], [2.0, 4.0]]
    a[6] = 0.0
    inv, det = stacked_solve(a)
    assert det[3] == 0 and det[6] == 0
    assert not np.isfinite(inv[3]).all() and not np.isfinite(inv[6]).all()
    ok = np.array([0, 1, 2, 4, 5, 7])
    _assert_near_lapack(a[ok], inv[ok], np.linalg.inv(a[ok]))


def test_singular_sample_keeps_the_errors():
    values = np.eye(2) + 0.1 * _random_stack(np.random.default_rng(61), 16, 2)
    values[9] = [[1.0, 2.0], [2.0, 4.0]]
    x = CircleSamples(2, 16, values)
    conds = np.linalg.cond(values)
    worst = float(np.max(conds))
    j = int(np.argmax(np.where(np.isfinite(conds), conds, np.inf)))
    with pytest.raises(NearSingularSymbol) as exc:
        invert_symbol(x)
    assert str(exc.value) == f"condition number {worst:.3g} at sample {j} exceeds 1e+12"
    with pytest.raises(WindingUndefined) as exc:
        winding_number(x)
    assert str(exc.value) == "det of the symbol is ~0 at sample 9 (|det|=0)"


def test_transform_alias_guard():
    rng = np.random.default_rng(0)
    lm = _random_lm(rng, 2, -8, 8)
    with pytest.raises(AliasError):
        transform(inverse_transform(lm, 64), (-40, 40))


def test_transform_adaptive_finds_band():
    rng = np.random.default_rng(1)
    lm = _random_lm(rng, 2, -2, 3)
    got = transform_adaptive(lm, 2, (-2, 3))
    for q in range(got.lo, got.hi + 1):
        assert np.max(np.abs(got.block(q) - lm.block(q))) < 1e-11


def test_evaluation_matches_direct_power_sum():
    rng = np.random.default_rng(2)
    lm = _random_lm(rng, 2, -3, 2)
    z = np.array([0.7 + 0.3j, 1.1 - 0.2j])
    direct = sum(
        lm.block(k)[None] * (z ** k)[:, None, None] for k in range(lm.lo, lm.hi + 1)
    )
    assert np.max(np.abs(lm(z) - direct)) < 1e-12


# -- arithmetic --------------------------------------------------------------


def test_mul_matches_pointwise():
    rng = np.random.default_rng(3)
    a = _random_lm(rng, 2, -2, 3)
    b = _random_lm(rng, 2, -3, 1)
    prod = lm_mul(a, b, (a.lo + b.lo, a.hi + b.hi))
    z = np.exp(2j * np.pi * (np.arange(32) + 0.4) / 32)
    gap = np.max(np.abs(prod(z) - np.einsum("lab,lbc->lac", a(z), b(z))))
    assert gap < 1e-12


def _lm_mul_loop(a, b, band):
    """Reference product: one block GEMM per mode of a."""
    lo, hi = band
    coeffs = np.zeros((hi - lo + 1, a.n, a.n), dtype=complex)
    for m in range(a.lo, a.hi + 1):
        k0, k1 = max(lo, m + b.lo), min(hi, m + b.hi)
        if k0 <= k1:
            coeffs[k0 - lo : k1 - lo + 1] += (
                a.block(m) @ b.coeffs[k0 - m - b.lo : k1 - m - b.lo + 1]
            )
    return coeffs


@given(
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.integers(-6, 6),
    st.integers(0, 9),
    st.integers(-6, 6),
    st.integers(0, 9),
    st.integers(-14, 14),
    st.integers(0, 12),
)
def test_lm_mul_matches_mode_loop(seed, n, alo, aw, blo, bw, lo, w):
    # output bands that overlap, touch or miss the product band, with the
    # wider operand on either side
    rng = np.random.default_rng(seed)
    a = _random_lm(rng, n, alo, alo + aw)
    b = _random_lm(rng, n, blo, blo + bw)
    got = lm_mul(a, b, (lo, lo + w))
    assert (got.lo, got.hi) == (lo, lo + w)
    assert np.max(np.abs(got.coeffs - _lm_mul_loop(a, b, (lo, lo + w)))) < 1e-12


def test_gather_modes_with_a_trailing_axis():
    rng = np.random.default_rng(8)
    coeffs = rng.normal(size=(5, 2, 3)) + 1j * rng.normal(size=(5, 2, 3))
    modes = np.array([[-4, -2, 0], [2, 3, 7]])
    got = gather_modes(coeffs, -2, modes)
    assert got.shape == (2, 3, 2, 3)
    for r in range(2):
        for c in range(3):
            k = modes[r, c] + 2
            want = coeffs[k] if 0 <= k < 5 else np.zeros((2, 3))
            assert np.array_equal(got[r, c], want)


def test_identity_add_scale_project():
    rng = np.random.default_rng(4)
    a = _random_lm(rng)
    ident = LaurentMatrix(2, 0, 0, np.eye(2)[None])
    prod = lm_mul(ident, a, (a.lo, a.hi))
    assert np.max(np.abs(prod.coeffs - a.coeffs)) < 1e-14
    s = lm_add(a, lm_scale(a, -1.0))
    assert np.linalg.norm(s.coeffs) == 0.0
    p = lm_project(a, 0, a.hi)
    assert p.lo == 0 and np.max(np.abs(p.block(0) - a.block(0))) == 0.0


def test_trim():
    co = np.zeros((5, 1, 1), dtype=complex)
    co[2, 0, 0] = 1.0
    co[0, 0, 0] = 1e-20
    lm = LaurentMatrix(1, -2, 2, co)
    t = lm_trim(lm, 1e-15)
    assert t.lo == 0 and t.hi == 0


def test_reflect_involution_and_norms():
    rng = np.random.default_rng(5)
    a = _random_lm(rng, 2, -3, 4)
    r = lm_reflect(a)
    rr = lm_reflect(r)
    assert r.lo == -a.hi and r.hi == -a.lo
    assert np.max(np.abs(rr.coeffs - a.coeffs)) == 0.0
    na, nr = half_norm(a), half_norm(r)
    assert abs(na - nr) < 1e-10 * max(1.0, na)


def test_lm_invert_pointwise():
    rng = np.random.default_rng(6)
    base = LaurentMatrix(2, 0, 0, np.eye(2)[None])
    pert = lm_scale(_random_lm(rng, 2, -2, 2), 0.05)
    a = lm_add(base, pert)
    inv = lm_invert(a)
    z = np.exp(2j * np.pi * (np.arange(24) + 0.1) / 24)
    gap = np.max(np.abs(np.einsum("lab,lbc->lac", a(z), inv(z)) - np.eye(2)[None]))
    assert gap < 1e-12


def test_lm_invert_tail_bounds_amplitude():
    # diag(1 - c^2/z): an energy cut kept modes of amplitude ~1e-8 (2.9e-8 here)
    w = base_symbol(rational_spec([0.3, 0.6]))
    inv = lm_invert(w)
    z = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    gap = np.max(np.abs(np.einsum("lab,lbc->lac", w(z), inv(z)) - np.eye(2)[None]))
    assert gap <= 1e-13


def test_lm_invert_past_half_width_128():
    # 1/(1 - 0.95/z) needs a band past 128 modes; the grid must hold 2*128+1
    a = LaurentMatrix(1, -1, 0, np.array([[[-0.95]], [[1.0]]]))
    inv = lm_invert(a)
    assert inv.width > 257
    got = np.array([inv.block(-k)[0, 0] for k in range(200)])
    assert np.max(np.abs(got - 0.95 ** np.arange(200))) < 1e-13


# -- winding and geometric mean ----------------------------------------------


def test_winding_of_pure_power():
    for k in (-2, -1, 0, 1, 3):
        co = np.ones((1, 1, 1), dtype=complex)
        lm = LaurentMatrix(1, k, k, co)
        assert winding_number(inverse_transform(lm, 256)) == k


def test_geometric_mean_outer_factor():
    # G(1 - a/z) = 1: the continuous log integrates to zero
    co = np.array([[[-0.45]], [[1.0]]], dtype=complex)
    x = inverse_transform(LaurentMatrix(1, -1, 0, co), 512)
    assert abs(geometric_mean(x) - 1.0) < 1e-12


def test_geometric_mean_multiplicative():
    a = LaurentMatrix(1, -1, 1, np.array([[[-0.3]], [[1.0]], [[0.12]]], dtype=complex))
    b = LaurentMatrix(1, -1, 1, np.array([[[0.2]], [[1.0]], [[-0.15]]], dtype=complex))
    xa, xb = inverse_transform(a, 512), inverse_transform(b, 512)
    ga, gb = geometric_mean(xa), geometric_mean(xb)
    gab = geometric_mean(samples_mul(xa, xb))
    assert abs(gab - ga * gb) < 1e-12


def test_geometric_mean_rejects_winding():
    co = np.ones((1, 1, 1), dtype=complex)
    x = inverse_transform(LaurentMatrix(1, 1, 1, co), 128)
    with pytest.raises(BranchError):
        geometric_mean(x)


def test_admissibility_winding_and_norms():
    rng = np.random.default_rng(7)
    a = lm_add(LaurentMatrix(2, 0, 0, np.eye(2)[None]), lm_scale(_random_lm(rng, 2, -2, 2), 0.05))
    # half norm: sum over modes of sqrt|k| * HS norm, checked directly
    expect = sum(
        np.sqrt(abs(k)) * np.linalg.norm(a.block(k)) for k in range(a.lo, a.hi + 1)
    )
    assert half_norm(a) == pytest.approx(expect, rel=1e-10)


def test_winding_undefined_on_circle_zero():
    # det vanishes on the circle: z - 1 at z = 1
    co = np.array([[[-1.0]], [[1.0]]], dtype=complex)
    x = inverse_transform(LaurentMatrix(1, 0, 1, co), 256)
    with pytest.raises((WindingUndefined, BranchError)):
        winding_number(x)


# -- series helpers ----------------------------------------------------------


def test_scalar_series_evaluate():
    s = ScalarSeries(-1, np.array([2.0, 0.0, 3.0]))
    z = 0.5 + 0.1j
    assert abs(s(np.array([z]))[0] - (2.0 / z + 3.0 * z)) < 1e-14
    assert s.coeff(-1) == 2.0 and s.coeff(1) == 3.0 and s.coeff(5) == 0.0


def test_vector_series_and_column():
    rng = np.random.default_rng(8)
    lm = _random_lm(rng, 3, -2, 2)
    v = lm_column(lm, 1)
    assert isinstance(v, VectorSeries)
    for k in range(-2, 3):
        assert np.max(np.abs(v.coeff(k) - lm.block(k)[:, 1])) == 0.0


# -- CSV interchange ---------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    lm = _random_lm(rng, 2, -3, 2)
    path = tmp_path / "lm.csv"
    write_csv(lm, path)
    first = path.read_text().splitlines()[0]
    assert first == CSV_HEADER
    back = read_csv(path)
    assert back.n == 2
    for k in range(lm.lo, lm.hi + 1):
        assert np.max(np.abs(back.block(k) - lm.block(k))) < 1e-15


def test_csv_skips_exact_zeros(tmp_path):
    co = np.zeros((3, 2, 2), dtype=complex)
    co[1] = np.eye(2)
    lm = LaurentMatrix(2, -1, 1, co)
    path = tmp_path / "sparse.csv"
    write_csv(lm, path)
    rows = path.read_text().splitlines()
    assert len(rows) == 1 + 2  # header + two diagonal entries
    back = read_csv(path)
    assert np.max(np.abs(back.block(0) - np.eye(2))) == 0.0


def test_csv_17_digit_fidelity(tmp_path):
    value = 1.0 / 3.0 + 1e-16
    co = np.array([[[value]]], dtype=complex)
    lm = LaurentMatrix(1, 0, 0, co)
    path = tmp_path / "digits.csv"
    write_csv(lm, path)
    back = read_csv(path)
    assert back.block(0)[0, 0].real == value


def _write_csv_loop(lm, path):
    """One block, row and column at a time, skipping entries equal to 0."""
    lines = [CSV_HEADER]
    for k in range(lm.lo, lm.hi + 1):
        for r in range(lm.n):
            for c in range(lm.n):
                v = lm.block(k)[r, c]
                if v != 0.0:
                    lines.append(f"{k},{r},{c},{v.real:.17g},{v.imag:.17g}")
    path.write_text("\n".join(lines) + "\n")


def test_csv_gather_matches_the_loop(tmp_path):
    rng = np.random.default_rng(12)
    lm = _random_lm(rng, 3, -4, 2)
    co = lm.coeffs
    co[0] = 0.0                       # an all-zero block
    co[1, 0, 1] = -0.0                # negative zeros are zeros
    co[1, 2, 0] = complex(-0.0, -0.0)
    co[2, 1, 1] = complex(0.0, -2.5)  # purely imaginary, negative
    co[3, 0, 0] = 7.0                 # purely real
    co[4, 2, 2] = complex(-1e-300, 0.0)
    co[5, 1, 0] = complex(3.0, -0.0)  # a signed zero in a nonzero entry is kept
    for name, a in (("mixed", lm), ("zero", LaurentMatrix(2, 0, 1, np.zeros((2, 2, 2), dtype=complex)))):
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_loop.csv"
        write_csv(a, got)
        _write_csv_loop(a, want)
        assert got.read_bytes() == want.read_bytes()
    assert len(got.read_text().splitlines()) == 1


def test_sample_function_radius():
    fn = lambda z: z[:, None, None] * np.eye(1)[None]
    x = sample_function(fn, 1, 64, radius=0.5)
    assert x.radius == 0.5
    assert np.max(np.abs(np.abs(x.grid()) - 0.5)) < 1e-14
