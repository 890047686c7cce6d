"""The check registry behind ``blocktau verify`` and the acceptance suite.

``CHECKS`` lists every numerical identity the package stands behind, once.
Each entry is ``Check(module, name, tol, fn, criterion)``.  ``fn(ctx, tol)``
returns ``(value, ok, detail)``; ``ok is None`` marks an INFO row, which
reports a value without judging it, and only an INFO row has ``tol`` None
(``blocktau verify`` prints it as "-").  ``criterion`` is the number of the
headline acceptance criterion the entry proves, or None.  ``blocktau
verify`` prints the list as a table and ``tests/test_acceptance.py`` runs
each entry as one test, so both read the same bodies and tolerances.

The tolerances are the contract: they do not move to fit a result.  When a
check fails, the code or the claim is wrong; the fix goes into the code,
never into ``tol``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import algebro, factorization, gradedpoly, laurent, symbols, tau, toeplitz
from .errors import BlocktauError

if TYPE_CHECKING:
    from .cli import RunConfig

# Fixed deformation times of the rational and covering checks.
TV = symbols.time_vector([0.2, 0.0, -0.15, 0.0, 0.08])
CTV = symbols.time_vector([0.1, 0.0, 0.05, 0.0, 0.02])


@dataclass
class Context:
    """Run state the checks share: run config, output directory, cache."""

    cfg: RunConfig
    out: str
    rspec: symbols.SymbolSpec = field(init=False)
    cspec: symbols.SymbolSpec = field(init=False)
    _cache: dict = field(init=False, default_factory=dict)

    def __post_init__(self):
        self.rspec = symbols.rational_spec([0.3, 0.6])
        self.cspec = symbols.covering_spec([0.3, -0.25, 0.35j], 2)

    def rng(self, salt: int) -> np.random.Generator:
        return np.random.default_rng(self.cfg.verify_seed * 1000 + salt)

    def rational_setup(self):
        """Deformed rational symbol shared by several checks."""
        if "rat" not in self._cache:
            x = factorization.deformed_symbol_samples(self.rspec, TV, 2048)
            lm = symbols.gd_symbol(self.rspec, TV, (-30, 30))
            self._cache["rat"] = (TV, x, lm)
        return self._cache["rat"]

    def szego(self):
        if "sw" not in self._cache:
            tv, x, lm = self.rational_setup()
            self._cache["sw"] = toeplitz.szego_widom(lm, x, tol=1e-12)
        return self._cache["sw"]

    def corrections(self):
        """(D_N, Borodin-Okounkov det_correction) of the rational setup, N <= 4."""
        if "bo" not in self._cache:
            tv, x, lm = self.rational_setup()
            pair = factorization.two_sided_factorization(x, B=40, tol=1e-9)
            self._cache["bo"] = [
                (d, toeplitz.borodin_okounkov(pair, N, tol=1e-12).det_correction)
                for N, d in zip((1, 2, 3, 4), toeplitz.truncation_dets(lm))
            ]
        return self._cache["bo"]

    def spectral(self):
        if "spectral" not in self._cache:
            self._cache["spectral"] = algebro.spectral_check(self.cspec)
        return self._cache["spectral"]


class Check(NamedTuple):
    module: str
    name: str
    tol: float | None
    fn: Callable
    criterion: int | None = None


def _check_ring_axioms(ctx, tol):
    rng = ctx.rng(1)
    worst = 0.0
    for _ in range(3):
        a = tau.random_graded(6, 6, rng)
        b = tau.random_graded(6, 6, rng)
        c = tau.random_graded(6, 6, rng)
        worst = max(worst, tau.coefficient_gap((a * b) * c, a * (b * c)))
        worst = max(worst, tau.coefficient_gap(a * (b + c), a * b + a * c))
    return worst, worst <= tol, "associativity and distributivity on random triples"


def _check_schur_derivative(ctx, tol):
    ps = gradedpoly.schur_sequence(8, 8)
    worst = 0.0
    for k in range(1, 9):
        for i in range(1, k + 1):
            worst = max(worst, tau.coefficient_gap(ps[k].derivative(i), ps[k - i]))
    return worst, worst <= tol, "d/dt_i p_k = p_(k-i), all 1 <= i <= k <= 8"


def _check_character(ctx, tol):
    rng = ctx.rng(2)
    # four points, then seven, at which the six-row characters are nonzero
    point_sets = [0.8 * (rng.random(4) + 1j * rng.random(4) - 0.5 - 0.5j)]
    point_sets.append(0.9 * (rng.random(7) + 1j * rng.random(7) - 0.5 - 0.5j))
    unit = np.eye(gradedpoly.gp_zero(6, 6).coeffs.size)
    worst = 0.0
    for X in point_sets:
        tv = gradedpoly.miwa_times(X, 6)
        for k, lam in enumerate(gradedpoly.partitions_upto(6)):  # basis order
            chi = gradedpoly.character(lam, X)
            for s in (gradedpoly.jacobi_trudi(lam, 6, 6), tau.character_assembly(unit[k], 6)):
                worst = max(worst, abs(chi - gradedpoly.evaluate(s, tv)))
    return worst, worst <= tol, (
        "Weyl determinant vs Jacobi-Trudi and character-table rows, weight <= 6"
    )


def _check_series_inverse(ctx, tol):
    rng = ctx.rng(3)
    worst = 0.0
    for _ in range(3):
        a = tau.random_graded(6, 6, rng, unit=True)
        one = gradedpoly.gp_const(6, 6, 1.0)
        worst = max(worst, tau.coefficient_gap(a * a.invert(), one))
    return worst, worst <= tol, "a * invert(a) = 1 through the cutoff"


def _check_transform_roundtrip(ctx, tol):
    rng = ctx.rng(4)
    co = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    lm = laurent.LaurentMatrix(2, -4, 5, co)
    back = laurent.transform(laurent.inverse_transform(lm, 64), (-4, 5))
    worst = float(np.max(np.abs(back.coeffs - lm.coeffs)))
    return worst, worst <= tol, "transform of inverse_transform on band-limited data"


def _check_reflection_norm(ctx, tol):
    rng = ctx.rng(5)
    co = rng.normal(size=(8, 2, 2)) + 1j * rng.normal(size=(8, 2, 2))
    lm = laurent.LaurentMatrix(2, -3, 4, co)
    a = laurent.half_norm(lm)
    b = laurent.half_norm(laurent.lm_reflect(lm))
    worst = abs(a - b) / max(1.0, abs(a))
    return worst, worst <= tol, "Besov half-norm invariant under coefficient reflection"


def _check_geometric_mean(ctx, tol):
    a = laurent.LaurentMatrix(
        1, -1, 1, np.array([[[-0.3]], [[1.0]], [[0.12]]], dtype=complex)
    )
    b = laurent.LaurentMatrix(
        1, -1, 1, np.array([[[0.2]], [[1.0]], [[-0.15]]], dtype=complex)
    )
    xa = laurent.inverse_transform(a, 512)
    xb = laurent.inverse_transform(b, 512)
    xab = laurent.samples_mul(xa, xb)
    ga, gb, gab = map(laurent.geometric_mean, (xa, xb, xab))
    worst = abs(gab - ga * gb)
    return worst, worst <= tol, "geometric mean is multiplicative at winding zero"


def _check_shift_powers(ctx, tol):
    n = 2
    worst = 0.0
    for a in range(0, 2 * n + 1):
        for b in range(0, 2 * n + 1):
            prod = laurent.lm_mul(
                symbols.lambda_power(n, a), symbols.lambda_power(n, b), (-1, 2 * n + 2)
            )
            want = symbols.lambda_power(n, a + b)
            for q in range(prod.lo, prod.hi + 1):
                worst = max(
                    worst, float(np.max(np.abs(prod.block(q) - want.block(q))))
                )
    return worst, worst <= tol, "shift symbol powers compose additively"


def _check_exp_xi_inverse(ctx, tol):
    tv = symbols.time_vector([0.3, 0.0, -0.2, 0.0, 0.12])
    ep = symbols.exp_xi_lambda(tv, 2, 24)
    em = symbols.exp_xi_lambda(tv.negated(), 2, 24)
    prod = laurent.lm_mul(ep, em, (0, 16))
    worst = 0.0
    for q in range(0, 17):
        want = np.eye(2) if q == 0 else np.zeros((2, 2))
        worst = max(worst, float(np.max(np.abs(prod.block(q) - want))))
    return worst, worst <= tol, "time flow times its reverse is the identity"


def _check_unimodular_det(ctx, tol):
    z = np.exp(2j * np.pi * (np.arange(64) + 0.3) / 64)
    worst = 0.0
    for spec in (ctx.rspec, ctx.cspec):
        tv = symbols.time_vector([0.15, 0.0, -0.1, 0.0, 0.07])
        da = np.linalg.det(symbols.gd_symbol_values(spec, tv, z))
        db = np.linalg.det(symbols.base_symbol_values(spec, z))
        worst = max(worst, float(np.max(np.abs(da - db))))
    return worst, worst <= tol, "reduced time flow leaves the determinant alone"


def _check_generator_interleaving(ctx, tol):
    zeta = np.exp(2j * np.pi * (np.arange(32) + 0.11) / 32)
    worst = 0.0
    for spec in (ctx.rspec, ctx.cspec):
        n, N, w = spec.n, 2, symbols.base_symbol(spec)
        gens = tau.generator_modes(spec, N, np.arange(n * w.lo, n * (w.hi + N)))
        got = laurent.power_sum(gens.T, n * w.lo, zeta).T
        # generator q*n + b + 1 at zeta is zeta^(nq) sum_a zeta^a W_ab(zeta^n)
        wv = symbols.base_symbol_values(spec, zeta**n)
        cols = np.einsum("pa,pab->bp", zeta[:, None] ** np.arange(n), wv)
        want = (zeta ** (n * np.arange(N)[:, None]))[:, None] * cols  # (N, n, points)
        worst = max(worst, float(np.max(np.abs(got - want.reshape(n * N, -1)))))
    return worst, worst <= tol, (
        "generator q*n+b+1 is zeta^(nq) sum_a zeta^a W_ab(zeta^n), both families"
    )


def _check_hankel_product(ctx, tol):
    worst = 0.0
    for spec, tv in ((ctx.rspec, TV), (ctx.cspec, CTV)):
        e = symbols.exp_xi_lambda(tv, spec.n, 24)
        worst = max(worst, toeplitz.hankel_identity_check(e, symbols.base_symbol(spec), 8))
    return (
        worst,
        worst <= tol,
        "T_8(eW) - T_8(e) T_8(W) is the Hankel product, e = exp(xi(t,L)), both families",
    )


def _operator_det(lm):
    """Operator determinant det(I - H(g)H(g^-1)) on its exact window, g.hi blocks."""
    return toeplitz.fredholm_det(
        toeplitz.plemelj_fourier(lm, laurent.lm_invert(lm), lm.hi)
    ).value


def _projector_gap(spec, tv, blocks):
    """Entrywise gap between the Fourier and quadrature projector sections."""
    lm = symbols.gd_symbol(spec, tv, (-30, 30))
    pf = toeplitz.plemelj_fourier(lm, laurent.lm_invert(lm), blocks)
    x = factorization.deformed_symbol_samples(spec, tv, 1024)
    r_in = (1 + spec.rho) / 2
    x_inv = laurent.sample_function(
        lambda zz: np.linalg.inv(symbols.gd_symbol_values(spec, tv, zz)),
        spec.n,
        1024,
        radius=r_in,
    )
    pq = toeplitz.plemelj_quadrature(x, x_inv, blocks)
    return float(np.max(np.abs(pf.matrix - pq.matrix)))


def _check_plemelj(ctx, tol):
    worst = 0.0
    for spec in (ctx.rspec, ctx.cspec):
        tv = symbols.time_vector([0.2, 0.0, -0.1, 0.0, 0.05])
        worst = max(worst, _projector_gap(spec, tv, 8))
    return worst, worst <= tol, "Fourier and contour forms of the projector agree"


def _check_plemelj_random(ctx, tol):
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    worst = 0.0
    for spec, scale in ((ctx.rspec, 0.3), (ctx.cspec, 0.2)):
        for _ in range(3):
            tv = symbols.random_times(spec, rng, scale)
            worst = max(worst, _projector_gap(spec, tv, 12))
    elapsed = time.perf_counter() - start
    return (
        worst,
        worst <= tol and elapsed <= 30.0,
        f"Fourier vs quadrature operator entries, 12-block sections, 3 draws "
        f"[{elapsed:.1f}s <= 30s]",
    )


def _check_cauchy_decay(ctx, tol):
    sw = ctx.szego()
    deltas = [abs(b - a) for (_, a), (_, b) in zip(sw.history, sw.history[1:])]
    fit = toeplitz.fit_decay([d for d in deltas if d > 1e-17])
    return fit, fit < tol, "fitted geometric decay of the ratio differences"


def _check_truncation_limit(ctx, tol):
    worst_gap, worst_fit = 0.0, 0.0
    for spec, tv in ((ctx.rspec, TV), (ctx.cspec, CTV)):
        lm = symbols.gd_symbol(spec, tv, (-30, 30))
        d_inf = _operator_det(lm)
        G = laurent.geometric_mean(factorization.deformed_symbol_samples(spec, tv, 1024))
        ratios = [d / G**N for N, d in zip(range(1, 25), toeplitz.truncation_dets(lm))]
        deltas = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
        worst_gap = max(worst_gap, abs(ratios[-1] - d_inf))
        worst_fit = max(worst_fit, toeplitz.fit_decay(deltas, floor=1e-14))
    return (
        worst_gap,
        worst_gap <= tol and worst_fit < 0.9,
        f"determinant ratios vs operator determinant by N=24, both families "
        f"[fitted decay ratio {worst_fit:.3f} < 0.9]",
    )


def _correction_gap(ctx, d_inf, G):
    """Worst |D_N / G^N - d_inf * (finite-section correction)|, N <= 4."""
    worst = 0.0
    for N, (d, correction) in enumerate(ctx.corrections(), start=1):
        worst = max(worst, abs(d / G**N - d_inf * correction))
    return worst


def _check_borodin_okounkov(ctx, tol):
    sw = ctx.szego()
    worst = _correction_gap(ctx, sw.D_inf, sw.G)
    return worst, worst <= tol, "determinant equals limit times a correction, N <= 4"


def _check_finite_section_correction(ctx, tol):
    # D_inf from the operator determinant, not from the Szego-Widom limit
    # that determinant_identity uses
    tv, x, lm = ctx.rational_setup()
    worst = _correction_gap(ctx, _operator_det(lm), laurent.geometric_mean(x))
    return (
        worst,
        worst <= tol,
        "exact finite-N correction, N=1..4, numerically produced factors",
    )


def _check_fredholm_invariance(ctx, tol):
    tv, x, lm = ctx.rational_setup()
    lm2 = symbols.gd_symbol(ctx.rspec, tv, (-60, 60))
    worst = abs(_operator_det(lm) - _operator_det(lm2))
    return worst, worst <= tol, "value invariant under doubling the band and its window"


def _check_half_truncated(ctx, tol):
    # negative modes down to -2 take the negative-tail branch; down to -20
    # they pass Day's 16-mode limit, and z -> 1/z leaves one negative mode
    gaps, sides = [], []
    for neg in ([0.3, -0.2], 0.4 * 0.5 ** np.arange(20, 0, -1)):
        c = np.concatenate([neg, [1.0, 0.45]]).astype(complex).reshape(-1, 1, 1)
        lm = laurent.LaurentMatrix(1, -len(neg), 1, c)
        side, work = "negative-tail", lm
        if -lm.lo > toeplitz.HALF_TRUNCATED_J_MAX:
            side, work = "reflected", laurent.lm_reflect(lm)
        G = laurent.geometric_mean(laurent.inverse_transform(work, 1024))
        d_inf = toeplitz.half_truncated_shortcut(laurent.lm_invert(work), G, -work.lo)
        sw = toeplitz.szego_widom(lm, laurent.inverse_transform(lm, 1024), tol=1e-12)
        gaps.append(abs(d_inf - sw.D_inf))
        sides.append(side)
    worst = max(gaps)
    ok = worst <= tol and sides == ["negative-tail", "reflected"]
    detail = ", ".join(f"{s} {g:.1e}" for s, g in zip(sides, gaps))
    return worst, ok, f"closed-form D_inf of a one-sided band vs D_N/G^N [{detail}]"


def _check_widom_derivative(ctx, tol):
    # the symbol (1 - x z)(1 - b/z) has log D_inf = -log(1 - x b)
    b, x0 = 0.35, 0.4

    def symbol(x):
        c = np.array([-b, 1 + x * b, -x], dtype=complex).reshape(3, 1, 1)
        return laurent.LaurentMatrix(1, -1, 1, c)

    wd = factorization.widom_derivative_check(symbol, x0)
    worst = abs(wd.contour - b / (1 - x0 * b))
    return (
        worst,
        worst <= tol and wd.abs_err <= 1e-6,
        f"contour formula for d/dx log D_inf vs b/(1 - x b) "
        f"[difference quotient off by {wd.abs_err:.1e} <= 1e-6]",
    )


def _check_tau_normalization(ctx, tol):
    worst = 0.0
    for spec in (ctx.rspec, ctx.cspec):
        tv = symbols.time_vector([0.0] * (2 * spec.n + 1))
        for N in range(1, 5):
            worst = max(worst, abs(tau.tau_numeric(spec, tv, N) - 1.0))
    return worst, worst <= tol, "undeformed determinant is 1 for N <= 4"


def _check_triple_route(ctx, tol):
    # the Wronskian route needs weight headroom: products of derivative
    # towers lose cross terms within n*N of a hard cap, so build higher
    # and compare on the clean region
    worst = 0.0
    for spec, Q, head in ((ctx.rspec, 6, 0), (ctx.cspec, 3, 4)):
        routes = [
            tau.tau_series(spec, 2, Q + head, representation=r, gd_reduced=False).series
            for r in ("graded", "character", "wronskian")
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, tau.coefficient_gap(routes[i], routes[j], upto=Q))
    return worst, worst <= tol, "graded, character and Wronskian routes agree"


def _check_stabilization(ctx, tol):
    reps = [
        tau.stability_check(spec, N, 3) for spec in (ctx.rspec, ctx.cspec) for N in (2, 3)
    ]
    worst = max(rep.max_gap for rep in reps)
    return worst, worst <= tol, "low-weight coefficients stop moving with N"


def _check_kdv(ctx, tol):
    res = gradedpoly.hirota_kdv_residual(tau.stable_tau_graded(ctx.rspec, 8))
    worst = tau.max_abs_coeff(res)
    return worst, worst <= tol, "bilinear KdV residual of the stable series at Q=8"


def _check_two_soliton(ctx, tol):
    d, c = 0.3, 0.6
    spec = symbols.rational_spec([d, c])
    start = time.perf_counter()
    worst = 0.0
    for t1 in np.linspace(-0.5, 0.5, 5):
        for t3 in np.linspace(-0.5, 0.5, 5):
            got = tau.tau_stable(spec, symbols.time_vector([t1, 0.0, t3]))
            td, tc = t1 * d + t3 * d**3, t1 * c + t3 * c**3
            want = np.cosh(td) * np.cosh(tc) - (d / c) * np.sinh(td) * np.sinh(tc)
            worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - start
    return (
        worst,
        worst <= tol and elapsed <= 60.0,
        f"closed-form oracle on the 5x5 grid [{elapsed:.1f}s <= 60s]",
    )


def _check_finite_rank_identity(ctx, tol):
    # 40-digit values at s = 2, 4, 5.8, 7; regenerate with tests/oracles.py:
    # [rational_tau_mpmath(c, [s * x for x in d]) for s in (2.0, 4.0, 5.8, 7.0)]
    worst = 0.0
    for c, d, values in (
        ((0.3, 0.6), (1, 0, 0.5, 0, 0.25),
         (2.040424109129635, 10.09151810579296, 56.694925414636266, 190.1397494414592)),
        ((0.3, 0.6, 0.9), (1, 0.5, 0, 0.25, 0.1),
         (3.314597657784578, 12.341499031239195, -183.3552376653612, -1869.1506199368202)),
    ):
        for s, want in zip((2.0, 4.0, 5.8, 7.0), values):
            tv = symbols.time_vector([s * x for x in d])
            got = tau.tau_stable(symbols.rational_spec(c), tv)
            worst = max(worst, abs(got - want) / abs(want))
    return (
        worst,
        worst <= tol,
        "stable tau vs 40-digit values, rational n = 2 and 3, s <= 7 along two directions",
    )


def _check_covering_stable_value(ctx, tol):
    # det(I - K) of the band pair g, g^-1 on the window g.hi, g^-1 inverted
    # on the circle: g is lm_mul's product, not the route's convolutions
    # with W's diagonal, and neither g^-1 nor the corner is shared
    spec3 = symbols.covering_spec([0.3, -0.25, 0.35j, 0.2 + 0.2j], 3)
    worst = 0.0
    for spec, d in ((ctx.cspec, (1, 0, 0.5, 0, 0.25)), (spec3, (1, 0.5, 0, 0.25, 0.1))):
        for s in (0.5, 1.0, 2.0):
            tv = symbols.time_vector([s * x for x in d])
            want = _operator_det(symbols.gd_symbol(spec, tv, (-160, 160)))
            got = tau.tau_stable(spec, tv)
            worst = max(worst, abs(got - want) / abs(want))
    return (
        worst,
        worst <= tol,
        "covering stable tau vs det(I - K) of the band pair on +-160, n = 2 and 3, s <= 2",
    )


def _check_kernel_recursion(ctx, tol):
    # the split is not read off zero operators: Delta_N(1) and every v_j stay above tol
    kf = tau.kernel_facts_check(ctx.rspec, 2, 6)
    return (
        kf.max_residual,
        kf.max_residual <= tol
        and kf.unit_action_magnitude > tol
        and kf.kernel_images_magnitude > tol,
        "ker of the N=2 annihilator is D^n-closed; it factors through N=1, Q=6",
    )


def _generic_unit_member(K, Q, rng):
    """Random element whose Wronskian ladders stay units: full jet in t_1."""
    t1 = gradedpoly.gp_time(K, Q, 1)
    out = 1.0 + tau.random_graded(K, Q, rng, unit=False) * 0.3
    power = 1.0
    for w in range(1, min(Q, 4) + 1):
        power = power * t1
        out = out + power * (complex(rng.normal(), rng.normal()) * 0.4**w)
    return out


def _check_frobenius_lemma(ctx, tol):
    # symbol-free: three generic functions at K = Q = 10, read up to weight 6
    rng = np.random.default_rng(7)
    gs = [_generic_unit_member(10, 10, rng) for _ in range(3)]
    worst = tau.lemma_wronsky_check(gs, upto=6)
    return worst, worst <= tol, "Frobenius factors annihilate their Wronskian ladder"


def _check_wave_miwa_shift(ctx, tol):
    # tau at t - [1/z0] through Miwa times against the series in 1/z0
    consts = [w.constant_term() for w in tau.wave_function(ctx.rspec, 1, 6, 4)]
    z0 = 2.5 + 1.1j
    shifted = symbols.time_vector([-1.0 / (k * z0**k) for k in range(1, 49)])
    series = sum(c * z0 ** (-m) for m, c in enumerate(consts))
    worst = abs(tau.tau_numeric(ctx.rspec, shifted, 1) - series)
    return worst, worst <= tol, "level-1 wave coefficients vs tau at Miwa-shifted times"


def _random_factorizations(spec, rng):
    """Wiener-Hopf factors of the deformed symbol at 3 random reduced times."""
    facts = []
    for _ in range(3):
        tv = symbols.random_times(spec, rng, 0.3)
        x = factorization.deformed_symbol_samples(spec, tv, 2048)
        facts.append(factorization.wiener_hopf(x, B=40, tol=1e-9))
    return facts


def _check_wh_reconstruction(ctx, tol):
    worst = max(f.residual for f in _random_factorizations(ctx.rspec, ctx.rng(7)))
    return worst, worst <= tol, "symbol minus the factor product on samples"


def _check_wh_grid_uniqueness(ctx, tol):
    tv, x, lm = ctx.rational_setup()
    fine = factorization.wiener_hopf(x, tol=1e-9)
    x_coarse = factorization.deformed_symbol_samples(ctx.rspec, tv, x.M // 2)
    coarse = factorization.wiener_hopf(x_coarse, tol=1e-9)
    worst = 0.0
    for a, b in ((fine.T_minus, coarse.T_minus), (fine.T_plus, coarse.T_plus)):
        for q in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
            worst = max(worst, float(np.max(np.abs(a.block(q) - b.block(q)))))
    return worst, worst <= tol, "both factors stable when the sample grid doubles"


def _check_wh_determinants(ctx, tol):
    tv, x, lm = ctx.rational_setup()
    fact = factorization.wiener_hopf(x, B=40, tol=1e-9)
    z = x.grid()[::8]
    det_minus = np.linalg.det(fact.T_minus(z))
    det_sym = np.linalg.det(symbols.gd_symbol_values(ctx.rspec, tv, z))
    worst = max(fact.det_plus_dev, float(np.max(np.abs(det_minus - det_sym))))
    return worst, worst <= tol, "plus factor unimodular, minus factor carries det"


def _check_zero_locus(ctx, tol):
    # cond of the depth-1 system T_1(g^-1), which Day's formula makes
    # singular exactly where tau vanishes
    conds, taus = [], []
    for s in np.linspace(1.0, 5.05, 6):
        tv = symbols.time_vector([1j * s, 0.0, 0.0])
        taus.append(abs(tau.tau_stable(ctx.rspec, tv)))
        try:
            x = factorization.deformed_symbol_samples(ctx.rspec, tv, 1024)
            conds.append(factorization.wiener_hopf(x, B=1, tol=1e-6).cond)
        except BlocktauError:
            conds.append(np.inf)
    mono = all(b >= a for a, b in zip(conds, conds[1:]))
    detail = (
        f"|tau| {taus[0]:.2e}->{taus[-1]:.2e}, cond {conds[0]:.2e}->{conds[-1]:.2e}, "
        f"monotone={mono}"
    )
    return conds[-1] / conds[0], None, detail


def _check_wh_certificates(ctx, tol):
    # its own draws, judged on the plus-determinant as well
    facts = _random_factorizations(ctx.rspec, np.random.default_rng(20260823))
    worst_res = max(f.residual for f in facts)
    worst_det = max(f.det_plus_dev for f in facts)
    worst = max(worst_res, worst_det)
    return (
        worst,
        worst <= tol,
        f"symbol minus product residual and unit plus-determinant, 3 draws "
        f"[residual {worst_res:.1e}, det dev {worst_det:.1e}]",
    )


def _check_ratio_block_det(ctx, tol):
    worst, blocks = 0.0, []
    for N in (1, 2):
        tr = factorization.tau_ratio_check(ctx.rspec, TV, N)
        worst = max(worst, tr.residual)
        blocks.append(tr.block_residual)
    return (
        worst,
        worst <= tol,
        f"ratio of consecutive truncations as a plain block determinant, N=1,2 "
        f"[single-block deviations {blocks[0]:.1e}, {blocks[1]:.1e}]",
    )


def _check_wave_matrix_correction(ctx, tol):
    worst = max(factorization.bo_consistency_check(ctx.rspec, TV, N) for N in (1, 2))
    return worst, worst <= tol, "D_N/G^N = D_inf det(I - K_N), K from the wave matrix, N=1,2"


def _check_branch_residual(ctx, tol):
    worst = ctx.spectral().branch_residual
    return worst, worst <= tol, "curve residual of the branch on the unit circle"


def _check_match_stability(ctx, tol):
    margin = ctx.spectral().match_margin
    return margin, margin < tol, "eigenvalue-branch distance over quarter separation"


def _check_spectral_roundtrip(ctx, tol):
    worst = max(ctx.spectral().roundtrip_residual, ctx.spectral().symbol_residual)
    return worst, worst <= tol, "rebuild the symbol from C and conjugate back"


def _check_conjugated_polynomial(ctx, tol):
    rep = ctx.spectral()
    return (
        rep.neg_band_energy,
        rep.neg_band_energy <= tol and rep.passed,
        f"negative-band energy of the conjugated matrix, elliptic covering "
        f"[roundtrip {rep.roundtrip_residual:.1e}; every certificate passed: {rep.passed}]",
    )


def _check_rerun_determinism(ctx, tol):
    from .cli import cmd_tau

    sub_cfg = dataclasses.replace(
        ctx.cfg, tau_grids={1: np.linspace(-0.2, 0.2, 2), 3: np.array([0.1])}
    )
    bytes_ = []
    for name in ("rerun_a", "rerun_b"):
        sub = os.path.join(ctx.out, name)
        os.makedirs(sub, exist_ok=True)
        cmd_tau(sub_cfg, sub)
        with open(os.path.join(sub, "tau.csv"), "rb") as fh:
            bytes_.append(fh.read())
    differ = float(bytes_[0] != bytes_[1])
    detail = "tau CSV identical byte for byte on rerun at one BLAS thread count"
    return differ, differ <= tol, detail


CHECKS = [
    Check("gradedpoly", "ring_axioms", 1e-12, _check_ring_axioms),
    Check("gradedpoly", "schur_derivative", 1e-12, _check_schur_derivative),
    Check("gradedpoly", "character_vs_polynomial", 1e-10, _check_character),
    Check("gradedpoly", "series_inverse", 1e-12, _check_series_inverse),
    Check("laurent", "transform_roundtrip", 1e-12, _check_transform_roundtrip),
    Check("laurent", "reflection_half_norm", 1e-10, _check_reflection_norm),
    Check("laurent", "geometric_mean_product", 1e-10, _check_geometric_mean),
    Check("symbols", "shift_power_product", 1e-14, _check_shift_powers),
    Check("symbols", "time_flow_inverse", 1e-10, _check_exp_xi_inverse),
    Check("symbols", "unimodular_time_flow", 1e-10, _check_unimodular_det),
    Check("symbols", "generator_interleaving", 1e-12, _check_generator_interleaving),
    Check("toeplitz", "hankel_product_identity", 1e-12, _check_hankel_product),
    Check("toeplitz", "projector_two_forms", 1e-8, _check_plemelj),
    Check("toeplitz", "projector_random_times", 1e-8, _check_plemelj_random, 2),
    Check("toeplitz", "ratio_cauchy_decay", 1.0, _check_cauchy_decay),
    Check("toeplitz", "truncation_ratio_limit", 1e-6, _check_truncation_limit, 3),
    Check("toeplitz", "determinant_identity", 1e-8, _check_borodin_okounkov),
    Check(
        "toeplitz", "finite_section_correction", 1e-8, _check_finite_section_correction, 4
    ),
    Check("toeplitz", "fredholm_grid_invariance", 1e-9, _check_fredholm_invariance),
    Check("toeplitz", "half_truncated_limit", 1e-9, _check_half_truncated),
    Check("toeplitz", "widom_derivative", 1e-8, _check_widom_derivative),
    Check("tau", "normalization_at_zero", 1e-12, _check_tau_normalization),
    Check("tau", "triple_route_equality", 1e-10, _check_triple_route, 6),
    Check("tau", "coefficient_stabilization", 1e-12, _check_stabilization, 5),
    Check("tau", "stable_kdv_residual", 1e-8, _check_kdv, 8),
    Check("tau", "two_soliton_oracle", 1e-6, _check_two_soliton, 1),
    Check("tau", "finite_rank_identity", 1e-8, _check_finite_rank_identity),
    Check("tau", "covering_stable_value", 1e-12, _check_covering_stable_value),
    Check("tau", "kernel_and_recursion", 1e-9, _check_kernel_recursion, 7),
    Check("tau", "frobenius_lemma", 1e-9, _check_frobenius_lemma),
    Check("tau", "wave_miwa_shift", 1e-12, _check_wave_miwa_shift),
    Check("factorization", "sample_reconstruction", 1e-8, _check_wh_reconstruction),
    Check("factorization", "grid_doubling_uniqueness", 1e-9, _check_wh_grid_uniqueness),
    Check("factorization", "determinant_bookkeeping", 1e-8, _check_wh_determinants),
    Check("factorization", "zero_locus_conditioning", None, _check_zero_locus),
    Check("factorization", "certificates_random_times", 1e-8, _check_wh_certificates, 9),
    Check("factorization", "ratio_block_determinant", 1e-7, _check_ratio_block_det, 11),
    Check("factorization", "wave_matrix_correction", 1e-8, _check_wave_matrix_correction),
    Check("algebro", "branch_curve_residual", 1e-8, _check_branch_residual),
    Check("algebro", "branch_match_stability", 1.0, _check_match_stability),
    Check("algebro", "reconstruction_roundtrip", 1e-8, _check_spectral_roundtrip),
    Check("algebro", "conjugated_polynomial", 1e-9, _check_conjugated_polynomial, 10),
    Check("cli", "rerun_determinism", 0.0, _check_rerun_determinism),
]

