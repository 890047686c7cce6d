"""Graded ring of time polynomials: arithmetic, Schur family, characters."""

import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blocktau import gradedpoly
from blocktau.errors import DegenerateInput, SingularVandermonde
from blocktau.gradedpoly import (
    GradedPoly,
    character,
    evaluate,
    gp_const,
    gp_det,
    gp_from_terms,
    gp_time,
    gp_zero,
    hirota_kdv_residual,
    jacobi_trudi,
    miwa_times,
    monomial_weight,
    negate_times,
    normalize_partition,
    partitions_upto,
    sato_shift,
    schur_sequence,
)
from blocktau.tau import coefficient_gap, max_abs_coeff, random_graded


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# -- reference ring: dicts of exponent tuples ----------------------------------
#
# An independent oracle for the dense ring.  It keeps {exponent tuple:
# coefficient} and multiplies term by term; the inverse is the geometric
# series in the non-constant part, which is nilpotent under the cutoff.


def _ref_mul(a, b, Q):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if monomial_weight(e) <= Q:
                out[e] = out.get(e, 0.0) + ca * cb
    return out


def _ref_derivative(a, i):
    out = {}
    for e, c in a.items():
        if e[i - 1]:
            d = e[: i - 1] + (e[i - 1] - 1,) + e[i:]
            out[d] = out.get(d, 0.0) + c * e[i - 1]
    return out


def _ref_inverse(a, K, Q):
    zero = (0,) * K
    a0 = a[zero]
    minus_x = {e: -c / a0 for e, c in a.items() if e != zero}
    total, term = {zero: 1.0 / a0}, {zero: 1.0 / a0}
    for _ in range(Q):
        term = _ref_mul(term, minus_x, Q)
        for e, c in term.items():
            total[e] = total.get(e, 0.0) + c
    return total


def _ref_random(K, Q, rng, unit=False):
    """Random dict over every monomial of weight <= Q, about a third zero."""
    exps = [
        e
        for e in itertools.product(*(range(Q // i + 1) for i in range(1, K + 1)))
        if monomial_weight(e) <= Q
    ]
    out = {}
    for e in exps:
        if rng.random() < 0.67:
            out[e] = complex(rng.normal(), rng.normal()) * 0.5 ** monomial_weight(e)
    if unit:
        out[(0,) * K] = 1.0 + rng.random()
    return out


def _gap_to_ref(p, ref):
    terms = p.terms()
    return max(
        (abs(terms.get(e, 0.0) - ref.get(e, 0.0)) for e in set(terms) | set(ref)),
        default=0.0,
    )


ring_sizes = st.tuples(st.integers(1, 7), st.integers(0, 8))  # K < Q and K >= Q


@given(ring_sizes, st.integers(0, 8), st.integers(0, 10**6))
def test_product_matches_reference(KQ, Qb, seed):
    K, Q = KQ
    rng = _rng(seed)
    a, b = _ref_random(K, Q, rng), _ref_random(K, Qb, rng)
    got = gp_from_terms(K, Q, a) * gp_from_terms(K, Qb, b)
    assert got.Q == min(Q, Qb)
    assert _gap_to_ref(got, _ref_mul(a, b, min(Q, Qb))) < 1e-13


@given(ring_sizes, st.integers(0, 10**6))
def test_derivative_matches_reference(KQ, seed):
    K, Q = KQ
    a = _ref_random(K, Q, _rng(seed))
    p = gp_from_terms(K, Q, a)
    for i in range(1, K + 1):
        assert _gap_to_ref(p.derivative(i), _ref_derivative(a, i)) < 1e-13


@given(ring_sizes, st.integers(0, 10**6))
def test_inverse_matches_reference(KQ, seed):
    K, Q = KQ
    a = _ref_random(K, Q, _rng(seed), unit=True)
    assert _gap_to_ref(gp_from_terms(K, Q, a).invert(), _ref_inverse(a, K, Q)) < 1e-12


@given(ring_sizes, st.integers(0, 9), st.integers(0, 9), st.integers(0, 10**6))
def test_window_product_drops_only_zero_pairs(KQ, va, vb, seed):
    # operands that vanish below weights va and vb: the pairs the window
    # leaves out are exact zeros, so it is the full window's product bit for bit
    K, Q = KQ
    rng = _rng(seed)
    a = {e: c for e, c in _ref_random(K, Q, rng).items() if monomial_weight(e) >= va}
    b = {e: c for e, c in _ref_random(K, Q, rng).items() if monomial_weight(e) >= vb}
    pa, pb = gp_from_terms(K, Q, a).coeffs, gp_from_terms(K, Q, b).coeffs
    got = gradedpoly._window_mul(pa, pb, K, Q, va, vb)
    assert np.array_equal(got, gradedpoly._window_mul(pa, pb, K, Q, 0, 0))
    assert _gap_to_ref(GradedPoly(K, Q, got), _ref_mul(a, b, Q)) < 1e-13


@given(ring_sizes, st.integers(0, 10**6))
def test_inverse_at_a_lower_cutoff_is_the_bitwise_prefix(KQ, seed):
    K, Q = KQ
    a = gp_from_terms(K, Q, _ref_random(K, Q, _rng(seed), unit=True)).coeffs
    full = gradedpoly._inverse(a, K, Q)
    basis = gradedpoly._basis(K, Q)
    for q in range(Q):
        assert np.array_equal(gradedpoly._inverse(a, K, q), full[: basis.end(q)])


@given(ring_sizes, st.integers(0, 8), st.integers(0, 10**6))
def test_truncation_is_a_ring_map_against_reference(KQ, q, seed):
    K, Q = KQ
    rng = _rng(seed)
    a, b = _ref_random(K, Q, rng), _ref_random(K, Q, rng)
    pa, pb = gp_from_terms(K, Q, a), gp_from_terms(K, Q, b)
    q = min(q, Q)
    lhs = (pa * pb).truncate(q)
    rhs = pa.truncate(q) * pb.truncate(q)
    ref = _ref_mul(a, b, q)
    assert lhs.Q == rhs.Q == q
    assert _gap_to_ref(lhs, ref) < 1e-13
    assert _gap_to_ref(rhs, ref) < 1e-13


def test_untouched_coefficients_stay_exactly_zero():
    # t1 * t3 and its powers never reach a monomial with t2; nothing is
    # rounded away either, however small next to the constant term
    K, Q = 6, 12
    x = gp_time(K, Q, 1) * gp_time(K, Q, 3) * 1e-5 + 1.0
    y = x.invert() * x * x.derivative(1)
    assert all(e[1] == 0 for e in y.terms())
    assert abs(x.invert().terms()[(3, 0, 3, 0, 0, 0)] + 1e-15) < 1e-30


# -- ring axioms (property-based) --------------------------------------------


@given(st.integers(0, 10**6))
def test_ring_associativity_distributivity(seed):
    rng = _rng(seed)
    a = random_graded(5, 5, rng)
    b = random_graded(5, 5, rng)
    c = random_graded(5, 5, rng)
    assert coefficient_gap((a * b) * c, a * (b * c)) < 1e-12
    assert coefficient_gap(a * (b + c), a * b + a * c) < 1e-12
    assert coefficient_gap(a * b, b * a) < 1e-12


@given(st.integers(0, 10**6))
def test_unit_inverse_roundtrip(seed):
    rng = _rng(seed)
    a = random_graded(6, 6, rng, unit=True)
    one = gp_const(6, 6, 1.0)
    assert coefficient_gap(a * a.invert(), one) < 1e-12
    assert coefficient_gap(a.invert().invert(), a) < 1e-10


def test_truncation_is_a_ring_map():
    rng = _rng(3)
    a = random_graded(8, 8, rng)
    b = random_graded(8, 8, rng)
    lhs = (a * b).truncate(5)
    rhs = a.truncate(5) * b.truncate(5)
    assert coefficient_gap(lhs.truncate(5), rhs.truncate(5)) < 1e-13


def test_nonunit_inverse_rejected():
    p = gp_time(4, 4, 1)  # constant term 0
    with pytest.raises(DegenerateInput):
        p.invert()


def test_monomial_weight():
    assert monomial_weight((2, 0, 1)) == 2 * 1 + 1 * 3
    assert monomial_weight((0, 0, 0, 0)) == 0


# -- Schur family ------------------------------------------------------------


def test_schur_derivative_ladder():
    ps = schur_sequence(8, 8)
    for k in range(1, 9):
        for i in range(1, k + 1):
            assert coefficient_gap(ps[k].derivative(i), ps[k - i]) < 1e-14


def test_schur_generating_identity_numeric():
    # sum_k p_k(t) z^k should equal exp(sum_i t_i z^i) at a small point
    rng = _rng(11)
    tv = 0.3 * rng.normal(size=6)
    ps = schur_sequence(6, 18)
    z = 0.15
    lhs = sum(evaluate(p, tv) * z**k for k, p in enumerate(ps))
    rhs = np.exp(sum(tv[i] * z ** (i + 1) for i in range(6)))
    assert abs(lhs - rhs) < 1e-13  # tail beyond weight 18 is ~1e-15


def test_sato_shift_worked_values():
    ps = schur_sequence(4, 4)
    c0, c1, c2 = sato_shift(ps[2], 2)
    assert coefficient_gap(c0, ps[2]) < 1e-14
    assert coefficient_gap(c1, -gp_time(4, 4, 1)) < 1e-14
    assert max_abs_coeff(c2) < 1e-14


def test_sato_shift_generating_function():
    # tau(t - [1/z]) is a polynomial in 1/z of degree <= max weight, so
    # taking as many orders as the weight cap makes the identity exact
    rng = _rng(5)
    tau = random_graded(6, 6, rng)
    cs = sato_shift(tau, 6)
    z0 = 1.7 - 0.7j
    tv = 0.2 * (rng.normal(size=6) + 1j * rng.normal(size=6))
    shifted = [tv[k - 1] - 1.0 / (k * z0**k) for k in range(1, 7)]
    direct = evaluate(tau, shifted)
    series = sum(evaluate(c, tv) * z0 ** (-m) for m, c in enumerate(cs))
    assert abs(direct - series) < 1e-12


# -- characters and partitions -----------------------------------------------


def test_partitions_upto_counts():
    # partition numbers: 1, 1, 2, 3, 5, 7, 11 for weights 0..6
    by_weight = {}
    for lam in partitions_upto(6):
        by_weight.setdefault(sum(lam), []).append(lam)
    assert [len(by_weight.get(w, [])) for w in range(7)] == [1, 1, 2, 3, 5, 7, 11]


def test_normalize_partition():
    assert normalize_partition([3, 2, 1, 0, 0]) == (3, 2, 1)
    assert normalize_partition([]) == ()
    with pytest.raises(ValueError):
        normalize_partition([2, 3, 1])
    with pytest.raises(ValueError):
        normalize_partition([1, -2])


def _table_rows(Q: int) -> np.ndarray:
    """s_lam over the (Q, Q) basis, row k for basis partition k, from the table."""
    blocks = gradedpoly._character_table(Q)
    size = sum(len(X) for X in blocks)
    rows = np.zeros((size, size))
    start = 0
    for X in blocks:
        rows[start : start + len(X), start : start + len(X)] = X
        start += len(X)
    return rows


def test_character_vs_jacobi_trudi():
    # seven points: the characters of the six-row partitions are nonzero
    rng = _rng(21)
    X = 0.9 * (rng.random(7) + 1j * rng.random(7) - 0.5 - 0.5j)
    tv = miwa_times(X, 6)
    rows = _table_rows(6)
    for k, lam in enumerate(partitions_upto(6)):  # basis order
        chi = character(lam, X)
        assert abs(chi - evaluate(jacobi_trudi(lam, 6, 6), tv)) < 1e-10
        assert abs(chi - evaluate(GradedPoly(6, 6, rows[k]), tv)) < 1e-10


def test_character_table_rows_match_jacobi_trudi():
    rows = _table_rows(10)
    for k, lam in enumerate(partitions_upto(10)):
        assert np.max(np.abs(jacobi_trudi(lam, 10, 10).coeffs - rows[k])) <= 1e-15


def test_character_table_column_orthogonality():
    # chi = X prod_k e_k! is the integer character table of S_w, whose
    # columns are orthogonal: sum_lam chi^lam(mu) chi^lam(nu) = z_mu delta_mu,nu
    Q = 12
    exps = gradedpoly._basis(Q, Q).exps
    fact = np.array([factorial(e) for e in range(Q + 1)], dtype=np.int64)
    start = 0
    for X in gradedpoly._character_table(Q):
        e = exps[start : start + len(X)]
        start += len(X)
        chi = X * np.prod(fact[e], axis=1)
        ints = np.rint(chi).astype(np.int64)
        assert np.max(np.abs(chi - ints)) <= 1e-9
        z = np.prod(fact[e] * np.arange(1, Q + 1) ** e, axis=1)
        assert np.array_equal(ints.T @ ints, np.diag(z))


def test_character_table_is_read_only():
    for X in gradedpoly._character_table(6):
        assert not X.flags.writeable
    with pytest.raises(ValueError):
        gradedpoly._character_table(6)[2][0, 0] = 0.0
    assert not gradedpoly._basis_parts(6).flags.writeable


def test_character_more_rows_than_points():
    assert character((1, 1, 1), np.array([0.5, 0.2])) == 0.0


def test_character_singular_configuration():
    with pytest.raises(SingularVandermonde):
        character((1,), np.array([0.3, 0.3]))


def test_miwa_times():
    X = np.array([0.5, -0.25])
    tv = miwa_times(X, 3)
    for k in range(1, 4):
        assert abs(tv[k - 1] - np.sum(X**k) / k) < 1e-15


# -- graded determinants -----------------------------------------------------


def test_gp_det_matches_numeric():
    # entries of weight <= 4 in a weight-12 ring: the 3x3 determinant fits
    # entirely under the cap, so evaluation commutes with the determinant
    rng = _rng(31)
    rows = [
        [GradedPoly(12, 12, random_graded(12, 4, rng).coeffs) for _ in range(3)]
        for _ in range(3)
    ]
    d = gp_det(rows)
    tv = 0.25 * rng.normal(size=12)
    num = np.linalg.det([[evaluate(e, tv) for e in row] for row in rows])
    assert abs(evaluate(d, tv) - num) < 1e-12


def test_negate_times_evaluates_at_minus_t():
    rng = _rng(41)
    p = random_graded(5, 7, rng)
    tv = 0.4 * rng.normal(size=5)
    assert abs(evaluate(negate_times(p), tv) - evaluate(p, -tv)) < 1e-14


def test_gp_det_zero_column():
    K = Q = 3
    z = gp_zero(K, Q)
    one = gp_const(K, Q, 1.0)
    d = gp_det([[one, z], [one, z]])
    assert max_abs_coeff(d) == 0.0


def test_gp_det_nonunit_pivots():
    # Jacobi-Trudi style matrix whose diagonal has zero constant term
    ps = schur_sequence(4, 4)
    rows = [[ps[1], ps[2]], [ps[0], ps[1]]]
    d = gp_det(rows)
    expect = ps[1] * ps[1] - ps[2] * ps[0]
    assert coefficient_gap(d, expect) < 1e-14


def _filtered_matrix(kind, m, Q, rng):
    """An m x m ring matrix over (Q, Q) for the valuation skip of gp_det.

    "col" and "row": I plus entries whose lowest weight rises with the
    column (row) index, in a seeded order and past Q for some; "none": dense
    with random constant terms; "nonunit": dense, but column 1 has no
    constant term, so elimination finds no unit pivot there and finishes
    division-free.
    """
    weights = gp_zero(Q, Q).weights
    shape = (m, m, len(weights))
    coeffs = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 0.5**weights
    vals = rng.integers(1, Q + 2, size=m)
    if kind == "col":
        coeffs *= weights >= vals[:, None]
    elif kind == "row":
        coeffs *= weights >= vals[:, None, None]
    elif kind == "nonunit":
        coeffs[:, 1, 0] = 0.0
    if kind in ("col", "row"):
        coeffs[np.arange(m), np.arange(m), 0] += 1.0
    return [[GradedPoly(Q, Q, c) for c in row] for row in coeffs]


@given(
    st.sampled_from(["col", "row", "none", "nonunit"]),
    st.integers(4, 7),
    st.integers(5, 8),
    st.integers(0, 10**6),
)
# a pivot with a small constant term and heavy higher weights (in the first,
# 0.19 against 2.8 at weight 1, so its inverse reaches 5e6 at weight 5):
# elimination by it was 1.1e-11, 6.2e-10 and 1.0e-12 off the division-free
# determinant, relative to its largest coefficient
@example("none", 5, 5, 385)
@example("none", 7, 7, 227229)
@example("none", 5, 8, 968748)
def test_gp_det_valuation_skip(kind, m, Q, seed):
    rng = _rng(seed)
    rows = _filtered_matrix(kind, m, Q, rng)
    got = gp_det(rows)
    with pytest.MonkeyPatch.context() as mp:
        # every valuation 0: no product is skipped
        mp.setattr(gradedpoly, "_valuations", lambda c, w, Q: np.zeros(c.shape[:-1], int))
        unskipped = gp_det(rows)
    assert np.array_equal(got.coeffs, unskipped.coeffs)
    free = gradedpoly._gp_det_free(rows, Q, Q)
    assert coefficient_gap(got, free) <= 1e-12 * max(max_abs_coeff(free), 1.0)
    # numeric check: at t_k = u_k z^k every entry is a polynomial in z of
    # degree <= Q and the numeric determinant one of degree <= mQ < 64, so
    # 64 points on |z| = 1 give its z^w coefficients exactly, and the one
    # of z^w is the weight-w layer of the ring determinant at u
    u = rng.normal(size=Q)
    basis = gradedpoly._basis(Q, Q)
    mono = np.prod(u**basis.exps, axis=1)
    z = np.exp(2j * np.pi * np.arange(64) / 64)
    entries = np.array([[e.coeffs for e in row] for row in rows])
    dets = np.linalg.det(np.moveaxis(entries @ (mono[:, None] * z ** basis.weights[:, None]), -1, 0))
    layers = np.fft.fft(dets)[: Q + 1] / 64
    want = np.array([np.sum((got.coeffs * mono)[basis.weights == w]) for w in range(Q + 1)])
    # roundoff of the FFT scales with the largest determinant on the circle
    assert np.max(np.abs(layers - want)) <= 1e-12 * max(np.max(np.abs(dets)), 1.0)


@pytest.mark.parametrize("m", range(1, 8))
def test_gp_det_free_signs_a_permutation_matrix(m):
    # rows of the identity in reversed order: det = (-1)^(m(m-1)/2)
    one, zero = gp_const(2, 2, 1.0), gp_zero(2, 2)
    rows = [[one if i + j == m - 1 else zero for j in range(m)] for i in range(m)]
    assert gradedpoly._gp_det_free(rows, 2, 2).constant_term() == (-1) ** (m * (m - 1) // 2)
    rows = [[one if i == j else zero for j in range(m)] for i in range(m)]
    assert gradedpoly._gp_det_free(rows, 2, 2).constant_term() == 1.0


# -- Hirota residual ---------------------------------------------------------


def test_hirota_zero_for_vacuum():
    res = hirota_kdv_residual(gp_const(8, 8, 1.0))
    assert max_abs_coeff(res) == 0.0


def test_hirota_flags_non_tau():
    # 1 + t1^2 is not a KdV tau function; the residual must be visibly nonzero
    t1 = gp_time(8, 8, 1)
    res = hirota_kdv_residual(gp_const(8, 8, 1.0) + t1 * t1)
    assert max_abs_coeff(res) > 1e-2


def test_evaluate_short_time_vector():
    p = gp_time(5, 5, 4)
    assert evaluate(p, [1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0


def test_graded_poly_repr_roundtrip_constant():
    p = gp_from_terms(3, 3, {(0, 0, 0): 2.5})
    assert p.constant_term() == 2.5
    assert p.terms() == {(0, 0, 0): 2.5}
