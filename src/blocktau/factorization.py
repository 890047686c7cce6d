"""Numerical Wiener-Hopf (Riemann-Hilbert) factorization on the circle.

Splits an invertible matrix symbol g on the unit circle as g = T_minus *
T_plus with T_minus analytic outside (modes <= 0, normalized to I at
infinity) and T_plus analytic inside (modes >= 0).  The minus factor is
found from a finite linear system expressing that g^{-1} T_minus has no
negative modes; the plus factor is recovered pointwise as T_minus^{-1} g
and projected onto non-negative modes.  Residual, leakage and conditioning
certificates quantify how well the truncated factors multiply back.

The opposite factor order g = g_plus * g_minus is obtained from the same
solver applied to g(1/z): reflection exchanges inside and outside without
changing any block Toeplitz determinant.

The factorization of a deformed symbol encodes the wave matrix of the
hierarchy: the minus factor at times t equals exp(xi(t, L)) times the wave
matrix at -t, which turns the finite-N determinant ratio into an ordinary
n x n determinant (checked by tau_ratio_check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasError, ConvergenceError, FactorizationError
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
    next_pow2,
    sample_function,
    transform,
)
from .symbols import SymbolSpec, TimeVector, exp_xi_lambda, gd_symbol, gd_symbol_values

DEFAULT_EXTRA_BAND = 16   # minus-factor depth beyond the symbol band


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
    """Factor the sampled symbol with minus-factor band depth B.

    With B=None the depth starts at a quarter of the grid and the solve is
    attempted once; callers wanting automatic refinement should supply a
    finer grid (wiener_hopf_banded does this from coefficients).  Raises
    FactorizationError when the system is singular or the residual exceeds
    tol.
    """
    if B is None:
        B = x.M // 4
    if 4 * B > x.M:
        raise AliasError(f"grid M={x.M} too coarse for factor depth B={B}")
    n = x.n
    inv = invert_symbol(x)
    ginv = transform(inv, (-B, B - 1))
    # block system: sum_{k=1..B} (g^{-1})^(k-m) T_minus^(-k) = -(g^{-1})^(-m)
    ms = np.arange(1, B + 1)
    A = ginv.block_matrix(ms[None, :] - ms[:, None])
    rhs = -ginv.block_matrix(-ms[:, None])
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > 1e13:
        raise FactorizationError(
            f"factorization system is numerically singular (cond={cond:.3g})"
        )
    X = np.linalg.solve(A, rhs)
    coeffs = np.zeros((B + 1, n, n), dtype=complex)
    coeffs[B] = np.eye(n)  # mode 0
    coeffs[:B] = X.reshape(B, n, n)[::-1]  # modes -B..-1
    T_minus = LaurentMatrix(n, -B, 0, coeffs)

    z = x.grid()
    tm_vals = T_minus(z)
    plus_vals = np.linalg.solve(tm_vals, x.values)
    plus_samples = CircleSamples(n, x.M, plus_vals, x.radius)
    half = x.M // 4
    full = transform(plus_samples, (-half, half - 1))
    # energy bookkeeping before projection onto non-negative modes
    neg_energy = float(np.linalg.norm(full.coeffs[: -full.lo]) ** 2)
    tot_energy = float(np.linalg.norm(full.coeffs) ** 2)
    leakage = neg_energy / tot_energy if tot_energy > 0 else 0.0
    T_plus = lm_trim(lm_project(full, 0, full.hi), 1e-16)

    recon = np.einsum("lab,lbc->lac", tm_vals, T_plus(z))
    scale = float(np.max(np.abs(x.values)))
    residual = float(np.max(np.abs(x.values - recon))) / max(scale, 1e-300)
    det_plus_dev = float(np.max(np.abs(np.linalg.det(T_plus(z)) - 1.0)))
    if residual > tol:
        raise FactorizationError(
            f"residual {residual:.3g} exceeds tol {tol:g} at depth B={B}; "
            "increase the depth or the sample grid"
        )
    return FactorizationResult(
        T_minus=T_minus,
        T_plus=T_plus,
        residual=residual,
        leakage=leakage,
        cond=cond,
        det_plus_dev=det_plus_dev,
        B_used=B,
    )


def wiener_hopf_banded(
    lm: LaurentMatrix,
    B: int | None = None,
    tol: float = 1e-10,
    max_B: int = 1 << 10,
) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Factor a banded symbol, doubling the depth until the residual passes."""
    if B is None:
        B = lm.width + DEFAULT_EXTRA_BAND
    while True:
        M = max(512, next_pow2(4 * (B + lm.width)))
        x = sample_function(lambda z: lm(z), lm.n, M)
        try:
            res = wiener_hopf(x, B, tol)
            return res.T_minus, res.T_plus
        except FactorizationError:
            if B >= max_B:
                raise
            B *= 2


@dataclass
class FactorizationPair:
    """Both factorization orders of one symbol, with certificates."""

    gamma_plus: LaurentMatrix    # symbol = gamma_plus * gamma_minus
    gamma_minus: LaurentMatrix
    theta_minus: LaurentMatrix   # symbol = theta_minus * theta_plus
    theta_plus: LaurentMatrix
    minus_first: FactorizationResult
    plus_first: FactorizationResult


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


def wave_matrix(
    spec: SymbolSpec,
    t: TimeVector,
    fact: FactorizationResult | None = None,
    B: int | None = None,
    tol: float = 1e-10,
) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Wave matrix at time -t and its inverse, from the minus factor at t.

    The minus factor of the deformed symbol factors as exp(xi(t,L)) times
    the wave matrix at -t, so the wave matrix is exp(-xi(t,L)) T_minus and
    its inverse is T_minus^{-1} exp(xi(t,L)).
    """
    if fact is None:
        M = 2048
        fact = wiener_hopf(deformed_symbol_samples(spec, t, M), B, tol)
    T_minus = fact.T_minus
    depth = T_minus.width + 8
    e_hi = 40 + 2 * len(t.values)
    e_minus = exp_xi_lambda(t.negated(), spec.n, (0, e_hi), exact_only=True)
    e_plus = exp_xi_lambda(t, spec.n, (0, e_hi), exact_only=True)
    band = (-depth, e_hi)
    psi = lm_trim(lm_mul(e_minus, T_minus, band), 1e-16)
    tm_inv = lm_invert(T_minus)
    psi_inv = lm_trim(lm_mul(tm_inv, e_plus, (-tm_inv.width - 4, e_hi)), 1e-16)
    return psi, psi_inv


@dataclass
class TauRatioReport:
    lhs: complex             # D_N / D_{N+1} of the deformed symbol
    block_det: complex       # det(I_n - M_NN): single-block determinant
    corrected_det: complex   # block det including the resolvent cross term
    residual: float          # |lhs - corrected_det|, the identity actually checked
    block_residual: float    # |lhs - block_det|, deviation of the bare block det
    window: int


def tau_ratio_check(
    spec: SymbolSpec,
    t: TimeVector,
    N: int,
    tol: float = 1e-10,
    window: int = 40,
    max_window: int = 512,
) -> TauRatioReport:
    """Consecutive determinant ratio against an ordinary n x n determinant.

    lhs: D_N / D_{N+1} for the deformed symbol.  With M the Hankel-product
    kernel of the wave matrix, M_ij = sum_{k>=1} Psi^(i+k) (Psi^{-1})^(-j-k),
    eliminating all block indices > N from the pair of Fredholm determinants
    gives exactly

        D_N / D_{N+1} = det( I_n - M_NN - r (I - Mtail)^{-1} c )

    where r, c are the row and column coupling block N to deeper indices and
    Mtail is M restricted to indices > N.  The bare single-block determinant
    det(I_n - M_NN) drops the second-order resolvent term; its deviation is
    reported separately (it is small but genuinely nonzero).  The window of
    tail indices is doubled until the corrected value settles; past
    max_window ConvergenceError is raised.
    """
    from .toeplitz import build_TN, det_DN, hankel_product_matrix

    n = spec.n
    lm = gd_symbol(spec, t, (-(N + 1), N + 1), exact_only=True)
    D_N = det_DN(build_TN(lm, N))
    D_N1 = det_DN(build_TN(lm, N + 1))
    if abs(D_N1) < 1e-300:
        raise FactorizationError("consecutive determinant vanishes; ratio undefined")
    lhs = D_N / D_N1

    psi, psi_inv = wave_matrix(spec, t, tol=tol)
    w = window
    prev = None
    while True:
        idx = range(N, N + w)
        M = hankel_product_matrix(psi, psi_inv, idx, idx)
        MNN = M[:n, :n]
        r, c, Mtail = M[:n, n:], M[n:, :n], M[n:, n:]
        block_det = complex(np.linalg.det(np.eye(n) - MNN))
        cross = r @ np.linalg.solve(np.eye(len(Mtail)) - Mtail, c)
        corrected = complex(np.linalg.det(np.eye(n) - MNN - cross))
        if prev is not None and abs(corrected - prev) < 0.1 * tol:
            break
        if w >= max_window:
            raise ConvergenceError(
                f"ratio determinant not Cauchy below {0.1 * tol:g} by window {w}"
            )
        prev = corrected
        w *= 2
    return TauRatioReport(
        lhs=lhs,
        block_det=block_det,
        corrected_det=corrected,
        residual=float(abs(lhs - corrected)),
        block_residual=float(abs(lhs - block_det)),
        window=w,
    )


def bo_consistency_check(
    spec: SymbolSpec,
    t: TimeVector,
    N: int,
    tol: float = 1e-10,
) -> float:
    """Residual of D_N = D_inf * det(I - K_N) with K built from the wave matrix.

    Uses the wave-matrix pair (Psi, Psi^{-1}) directly as the kernel symbols;
    D_inf comes from the strong limit of the deformed symbol (its geometric
    mean is 1 for these families).  The kernel window is doubled from 32
    until det(I - K_N) settles; past 512 ConvergenceError is raised.
    """
    from .toeplitz import build_TN, det_DN, hankel_product_matrix, szego_widom

    depth = 28
    lm = gd_symbol(spec, t, (-depth, depth), exact_only=True)
    x = deformed_symbol_samples(spec, t, 1024)
    sw = szego_widom(lm, x, tol=0.01 * tol)
    psi, psi_inv = wave_matrix(spec, t, tol=tol)
    w = 32
    prev = None
    while True:
        idx = range(N, N + w)
        K = hankel_product_matrix(psi, psi_inv, idx, idx)
        d = complex(np.linalg.det(np.eye(len(K)) - K))
        if prev is not None and abs(d - prev) < 0.1 * tol:
            break
        if w >= 512:
            raise ConvergenceError(
                f"correction determinant not Cauchy below {0.1 * tol:g} by window {w}"
            )
        prev = d
        w *= 2
    lm_small = gd_symbol(spec, t, (-N, N), exact_only=True)
    lhs = det_DN(build_TN(lm_small, N)) / sw.G**N
    return float(abs(lhs - sw.D_inf * d))
