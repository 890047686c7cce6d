"""Numerical Wiener-Hopf (Riemann-Hilbert) factorization on the circle.

Splits an invertible matrix symbol g on the unit circle as g = T_minus *
T_plus with T_minus analytic outside (modes <= 0, normalized to I at
infinity) and T_plus analytic inside (modes >= 0).  The minus factor is
found from a finite linear system expressing that g^{-1} T_minus has no
negative modes; the plus factor is recovered pointwise as T_minus^{-1} g
and projected onto non-negative modes.  Residual, leakage and conditioning
certificates quantify how well the truncated factors multiply back.

The depth of the minus factor comes from the data.  T_minus = g T_plus^{-1}
and T_plus^{-1} has no negative modes, so T_minus is no deeper than g, and
the B-block projection system (Gohberg and Feldman) is exact once B reaches
the deepest negative mode of g.  The solver reads that depth off the
samples of g and solves once.  The nB x nB projection system is one
numpy.linalg solve; the pointwise plus factor and its determinant run in
the stacked sample kernel (laurent.stacked_solve).

The opposite factor order g = g_plus * g_minus is obtained from the same
solver applied to g(1/z): reflection exchanges inside and outside without
changing any block Toeplitz determinant.

The factorization of a deformed symbol encodes the wave matrix of the
hierarchy: the minus factor at times t equals exp(xi(t, L)) times the wave
matrix at -t, which turns the finite-N determinant ratio into an ordinary
n x n determinant (checked by tau_ratio_check).  The wave matrix is built
once per (spec, t) and shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import AliasError, FactorizationError
from .laurent import (
    CircleSamples,
    LaurentMatrix,
    inverse_transform,
    invert_symbol,
    lm_invert,
    lm_mul,
    lm_project,
    lm_reflect,
    lm_trim,
    sample_function,
    stacked_solve,
    transform,
)
from .symbols import (
    SymbolSpec,
    TimeVector,
    base_inverse,
    exp_xi_lambda,
    gd_symbol,
    gd_symbol_values,
)


@dataclass
class FactorizationResult:
    """One-sided factorization g = T_minus T_plus with certificates."""

    T_minus: LaurentMatrix
    T_plus: LaurentMatrix
    residual: float       # sup |g - T_minus T_plus| / sup |g|
    leakage: float        # relative energy of discarded negative modes of T_plus
    cond: float           # condition number of the linear system
    det_plus_dev: float   # sup |det T_plus - 1| over the sample grid
    B_used: int


def wiener_hopf(
    x: CircleSamples, B: int | None = None, tol: float = 1e-10
) -> FactorizationResult:
    """Factor the sampled symbol with minus-factor band depth B, in one solve.

    With B=None the depth is read off the Fourier coefficients of g itself:
    the negative modes from -1 outward up to the first whose norm is not
    above 1e-16 of the largest mode norm (at least 1, at most a quarter of
    the grid).  The scan stops there because the FFT's round-off sits at
    that level: a far mode just above it is noise, not a deeper band.  That
    depth is exact, since T_minus = g T_plus^{-1} and T_plus^{-1} has no
    negative modes, so T_minus has no mode below the lowest mode of g; any
    deeper B gives the same factor at a larger size.  Raises
    FactorizationError when the system is singular or the residual exceeds
    tol at depth B.
    """
    cap = x.M // 4
    if B is not None and B > cap:
        raise AliasError(f"grid M={x.M} too coarse for factor depth B={B}")
    if B is None:
        norms = np.linalg.norm(transform(x, (-cap, cap - 1)).coeffs, axis=(1, 2))
        # modes -1, -2, ..., -cap
        below = np.flatnonzero(norms[cap - 1 :: -1] <= 1e-16 * norms.max())
        B = max(int(below[0]) if len(below) else cap, 1)
    n = x.n
    ginv = transform(invert_symbol(x), (-cap, cap - 1))
    scale = float(np.max(np.abs(x.values)))
    # block system: sum_{k=1..B} (g^{-1})^(k-m) T_minus^(-k) = -(g^{-1})^(-m)
    ms = np.arange(1, B + 1)
    A = ginv.block_matrix(ms[None, :] - ms[:, None])
    rhs = -ginv.block_matrix(-ms[:, None])
    try:
        X = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise FactorizationError(
            f"factorization system is numerically singular (solve failed at B={B})"
        ) from None
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > 1e13:
        raise FactorizationError(
            f"factorization system is numerically singular (cond={cond:.3g})"
        )
    coeffs = np.zeros((B + 1, n, n), dtype=complex)
    coeffs[B] = np.eye(n)  # mode 0
    coeffs[:B] = X.reshape(B, n, n)[::-1]  # modes -B..-1
    T_minus = LaurentMatrix(n, -B, 0, coeffs)

    tm_vals = inverse_transform(T_minus, x.M, x.radius).values
    plus_vals = stacked_solve(tm_vals, x.values)[0]
    full = transform(CircleSamples(n, x.M, plus_vals, x.radius), (-cap, cap - 1))
    T_plus = lm_trim(lm_project(full, 0, full.hi), 1e-16)
    plus_samples = inverse_transform(T_plus, x.M, x.radius).values
    recon = np.einsum("lab,lbc->lac", tm_vals, plus_samples)
    residual = float(np.max(np.abs(x.values - recon))) / max(scale, 1e-300)
    if residual > tol:
        raise FactorizationError(
            f"residual {residual:.3g} exceeds tol {tol:g} at depth B={B}; "
            "increase the depth or the sample grid"
        )
    # energy bookkeeping before projection onto non-negative modes
    neg_energy = float(np.linalg.norm(full.coeffs[: -full.lo]) ** 2)
    tot_energy = float(np.linalg.norm(full.coeffs) ** 2)
    det_plus = stacked_solve(plus_samples, plus_samples[:, :, :0])[1]
    return FactorizationResult(
        T_minus=T_minus,
        T_plus=T_plus,
        residual=residual,
        leakage=neg_energy / tot_energy if tot_energy > 0 else 0.0,
        cond=cond,
        det_plus_dev=float(np.max(np.abs(det_plus - 1.0))),
        B_used=B,
    )


@dataclass
class FactorizationPair:
    """Both factorization orders of one symbol, with certificates."""

    gamma_plus: LaurentMatrix    # symbol = gamma_plus * gamma_minus
    gamma_minus: LaurentMatrix
    theta_minus: LaurentMatrix   # symbol = theta_minus * theta_plus
    theta_plus: LaurentMatrix
    minus_first: FactorizationResult
    plus_first: FactorizationResult

    @cached_property
    def bo_symbols(self) -> tuple[LaurentMatrix, LaurentMatrix]:
        """phi = gamma_minus theta_plus^{-1} and its inverse, uncut on one wide band.

        Built once per pair: the Borodin-Okounkov kernel of every N reads them.
        """
        gm, gp = self.gamma_minus, self.gamma_plus
        tp_inv, tm_inv = lm_invert(self.theta_plus), lm_invert(self.theta_minus)
        span = max(gm.width, gp.width, tp_inv.width, tm_inv.width) + 8
        band = (-span, span)
        return lm_mul(gm, tp_inv, band), lm_mul(tm_inv, gp, band)


def two_sided_factorization(
    x: CircleSamples, B: int | None = None, tol: float = 1e-10
) -> FactorizationPair:
    """Factor the sampled symbol in both orders.

    The plus-first order comes from factoring the reflected symbol
    g(1/z) = R_minus R_plus and mapping back: g_plus(z) = R_minus(1/z),
    g_minus(z) = R_plus(1/z); g_plus is normalized to I at z = 0.
    """
    if abs(x.radius - 1.0) > 1e-14:
        raise AliasError("two-sided factorization requires unit-circle samples")
    minus_first = wiener_hopf(x, B, tol)
    reflected = CircleSamples(
        x.n, x.M, np.concatenate([x.values[:1], x.values[:0:-1]]), x.radius
    )
    plus_first = wiener_hopf(reflected, B, tol)
    return FactorizationPair(
        gamma_plus=lm_reflect(plus_first.T_minus),
        gamma_minus=lm_reflect(plus_first.T_plus),
        theta_minus=minus_first.T_minus,
        theta_plus=minus_first.T_plus,
        minus_first=minus_first,
        plus_first=plus_first,
    )


# -- wave matrix and the finite-N determinant ratio ---------------------------


def deformed_symbol_samples(
    spec: SymbolSpec, t: TimeVector, M: int
) -> CircleSamples:
    """Unit-circle samples of the deformed symbol (pointwise route)."""
    return sample_function(lambda z: gd_symbol_values(spec, t, z), spec.n, M)


def wave_matrix(spec: SymbolSpec, t: TimeVector) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Wave matrix at time -t and its inverse, from the minus factor at t.

    The minus factor of the deformed symbol (2048 samples, depth derived
    from the data, default residual tol) factors as exp(xi(t,L)) times the
    wave matrix at -t, so the wave matrix is exp(-xi(t,L)) T_minus.  Its
    inverse T_minus^{-1} exp(xi(t,L)) is read off the same factorization:
    g = exp(xi(t,L)) W = T_minus T_plus gives T_minus^{-1} exp(xi(t,L)) =
    T_plus W^{-1}.  Built once per (spec, t) and shared (bounded cache);
    the coefficient arrays are read-only.
    """
    return _wave_matrix(spec, t.values, t.gd_reduced)


@lru_cache(maxsize=16)
def _wave_matrix(spec: SymbolSpec, values: tuple, gd_reduced: bool):
    t = TimeVector(values, gd_reduced)
    fact = wiener_hopf(deformed_symbol_samples(spec, t, 2048))
    T_minus, T_plus, w_inv = fact.T_minus, fact.T_plus, base_inverse(spec)
    e_hi = 40 + 2 * len(t.values)
    e_minus = exp_xi_lambda(t.negated(), spec.n, (0, e_hi), exact_only=True)
    # exp(-xi) has no negative modes: the product starts where T_minus does
    psi = lm_trim(lm_mul(e_minus, T_minus, (T_minus.lo, e_hi)), 1e-16)
    psi_inv = lm_trim(lm_mul(T_plus, w_inv, (w_inv.lo, T_plus.hi + w_inv.hi)), 1e-16)
    for lm in (psi, psi_inv):
        lm.coeffs.flags.writeable = False
    return psi, psi_inv


@dataclass
class TauRatioReport:
    lhs: complex             # D_N / D_{N+1} of the deformed symbol
    block_det: complex       # det(I_n - M_NN): single-block determinant
    corrected_det: complex   # block det including the resolvent cross term
    residual: float          # |lhs - corrected_det|, the identity actually checked
    block_residual: float    # |lhs - block_det|, deviation of the bare block det
    window: int


def tau_ratio_check(spec: SymbolSpec, t: TimeVector, N: int) -> TauRatioReport:
    """Consecutive determinant ratio against an ordinary n x n determinant.

    lhs: D_N / D_{N+1} for the deformed symbol.  With M the Hankel-product
    kernel of the wave matrix, M_ij = sum_{k>=1} Psi^(i+k) (Psi^{-1})^(-j-k),
    eliminating all block indices > N from the pair of Fredholm determinants
    gives exactly

        D_N / D_{N+1} = det( I_n - M_NN - r (I - Mtail)^{-1} c )

    where r, c are the row and column coupling block N to deeper indices and
    Mtail is M restricted to indices > N.  The bare single-block determinant
    det(I_n - M_NN) drops the second-order resolvent term; its deviation is
    reported separately (it is small but genuinely nonzero).

    M and its window w = max(Psi.hi - N, 1) come from
    toeplitz.correction_det, whose cut is exact: rows i >= Psi.hi of M
    vanish, so the resolvent couples r to c only through the window.
    """
    from .toeplitz import build_TN, correction_det, det_DN

    n = spec.n
    lm = gd_symbol(spec, t, (-(N + 1), N + 1), exact_only=True)
    D_N = det_DN(build_TN(lm, N))
    D_N1 = det_DN(build_TN(lm, N + 1))
    if abs(D_N1) < 1e-300:
        raise FactorizationError("consecutive determinant vanishes; ratio undefined")
    lhs = D_N / D_N1

    psi, psi_inv = wave_matrix(spec, t)
    kernel = correction_det(psi, psi_inv, N)
    M = kernel.K_matrix
    MNN = M[:n, :n]
    r, c, Mtail = M[:n, n:], M[n:, :n], M[n:, n:]
    cross = r @ np.linalg.solve(np.eye(len(Mtail)) - Mtail, c)
    corrected = complex(np.linalg.det(np.eye(n) - MNN - cross))
    block_det = complex(np.linalg.det(np.eye(n) - MNN))
    return TauRatioReport(
        lhs=lhs,
        block_det=block_det,
        corrected_det=corrected,
        residual=float(abs(lhs - corrected)),
        block_residual=float(abs(lhs - block_det)),
        window=kernel.window_used,
    )


def bo_consistency_check(spec: SymbolSpec, t: TimeVector, N: int) -> float:
    """Residual of D_N = D_inf * det(I - K_N) with K built from the wave matrix.

    Uses the wave-matrix pair (Psi, Psi^{-1}) directly as the kernel symbols;
    D_inf comes from the strong limit of the deformed symbol (its geometric
    mean is 1 for these families).  det(I - K_N) is read on its exact window
    (toeplitz.correction_det).
    """
    from .toeplitz import build_TN, correction_det, det_DN, szego_widom

    lm = gd_symbol(spec, t, (-28, 28), exact_only=True)
    x = deformed_symbol_samples(spec, t, 1024)
    sw = szego_widom(lm, x, tol=1e-12)
    psi, psi_inv = wave_matrix(spec, t)
    d = correction_det(psi, psi_inv, N).det_correction
    lhs = det_DN(build_TN(lm, N)) / sw.G**N
    return float(abs(lhs - sw.D_inf * d))
