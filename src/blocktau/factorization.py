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
the deepest negative mode of g.  The solver reads that depth off the modes
of g and solves once; an explicit B only caps it.  One spectral pass
(symbol_spectra: the modes of g, invert_symbol and the modes of g^{-1})
feeds the solve and the certificates.  The nB x nB projection system is
one numpy.linalg solve; the pointwise plus factor and its determinant run
in the stacked sample kernel (laurent.stacked_solve).

The opposite factor order g = g_plus * g_minus is obtained from the same
solver applied to g(1/z): reflection exchanges inside and outside without
changing any block Toeplitz determinant.  Mode k of g(1/z) is mode -k of
g, so both orders read one spectral pass.

The factorization of a deformed symbol encodes the wave matrix of the
hierarchy: the minus factor at times t equals exp(xi(t, L)) times the wave
matrix at -t, which turns the finite-N determinant ratio into an ordinary
n x n determinant (checked by tau_ratio_check).  The wave matrix is built
once per (spec, t) and shared.  The two factorization orders of g^-1 also
give Widom's contour formula for d/dx log D_inf (widom_derivative_check).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import AliasError, FactorizationError
from .laurent import (
    CircleSamples,
    LaurentMatrix,
    inverse_transform,
    invert_symbol,
    lm_add,
    lm_invert,
    lm_mul,
    lm_project,
    lm_reflect,
    lm_scale,
    lm_trim,
    sample_function,
    stacked_mul,
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
from .toeplitz import build_TN, correction_det, det_DN, szego_widom


@dataclass
class FactorizationResult:
    """One-sided factorization g = T_minus T_plus with certificates.

    det_plus_dev certifies a unit det T_plus, which the deformed symbols
    have in this order.  On FactorizationPair.plus_first it is no
    certificate: T_plus = R_plus carries det g(1/z) there, so it reads
    sup |det g - 1|, and the unit determinant sits on gamma_plus.
    """

    T_minus: LaurentMatrix
    T_plus: LaurentMatrix
    residual: float       # sup |g - T_minus T_plus| / sup |g|
    leakage: float        # relative energy of discarded negative modes of T_plus
    cond: float           # condition number of the linear system
    det_plus_dev: float   # sup |det T_plus - 1| over the sample grid
    B_used: int           # depth solved: the depth of g, capped by an explicit B


@dataclass(frozen=True)
class SymbolSpectra:
    """One spectral pass over samples of g: the modes of g and of g^{-1}.

    Both hold modes -M//4..M//4, the DFT of the samples read as the
    transform reads it (one mode past transform's guard, so that the
    reflected pass holds the same band); the inverse samples are
    invert_symbol's.  Every
    factorization of g reads this one pass: the depth from the modes of g,
    the projection system from those of g^{-1}.  reflected() is the pass
    of g(1/z) on the unit circle, whose mode k is mode -k of g: samples
    and spectra reflected, with no second inversion or transform.
    """

    x: CircleSamples
    g: LaurentMatrix
    g_inv: LaurentMatrix

    def depth(self) -> int:
        """Depth of the minus factor: the lowest mode of g above the round-off.

        The negative modes from -1 outward up to the first whose norm is
        not above eps max_j ||g(z_j)||_F (at least 1, at most M//4): the
        round-off that the FFT of samples on the unit circle, where every
        caller samples, leaves in each mode.  A far mode at that level is
        noise, not a deeper band.
        """
        cap = self.x.M // 4
        norms = np.linalg.norm(self.g.coeffs[:cap], axis=(1, 2))
        floor = np.finfo(float).eps * np.linalg.norm(self.x.values, axis=(1, 2)).max()
        # modes -1, -2, ..., -cap
        below = np.flatnonzero(norms[::-1] <= floor)
        return max(int(below[0]) if len(below) else cap, 1)

    def reflected(self) -> SymbolSpectra:
        x = self.x
        values = np.concatenate([x.values[:1], x.values[:0:-1]])
        return SymbolSpectra(
            CircleSamples(x.n, x.M, values, x.radius), lm_reflect(self.g), lm_reflect(self.g_inv)
        )


def symbol_spectra(x: CircleSamples) -> SymbolSpectra:
    """The spectral pass of the samples: one inversion and two FFTs."""
    ks = np.arange(-(x.M // 4), x.M // 4 + 1)

    def modes(values: np.ndarray) -> LaurentMatrix:
        coeffs = (np.fft.fft(values, axis=0) / x.M)[ks % x.M]
        if x.radius != 1.0:
            coeffs = coeffs * (x.radius ** (-ks))[:, None, None]
        return LaurentMatrix(x.n, int(ks[0]), int(ks[-1]), coeffs)

    return SymbolSpectra(x, modes(x.values), modes(invert_symbol(x).values))


def wiener_hopf(
    x: CircleSamples, B: int | None = None, tol: float = 1e-10
) -> FactorizationResult:
    """Factor the sampled symbol at the depth of g, in one solve.

    The depth is read off the Fourier coefficients of g itself
    (SymbolSpectra.depth).  It is exact, since T_minus = g T_plus^{-1} and
    T_plus^{-1} has no negative modes, so T_minus has no mode below the
    lowest mode of g.  An explicit B caps the depth: the solve runs at
    min(B, depth), and B_used reports it.  Raises AliasError when B exceeds
    a quarter of the grid, and FactorizationError when the system is
    singular or the residual exceeds tol at the depth solved.  A residual
    missed at g's own depth is not a depth problem, since that depth is
    exact: the message then says that g may have no factorization there
    (tau near zero, outside the big cell) or that the grid is too coarse,
    and it advises more depth only when an explicit B capped the solve.
    """
    return _factor(symbol_spectra(x), B, tol)


def _factor(s: SymbolSpectra, B: int | None, tol: float) -> FactorizationResult:
    """wiener_hopf on a spectral pass: the projection solve and the certificates."""
    x, n, cap = s.x, s.x.n, s.x.M // 4
    if B is not None and B > cap:
        raise AliasError(f"grid M={x.M} too coarse for factor depth B={B}")
    depth = s.depth()
    capped = B is not None and B < depth  # an explicit B cut the solve short of g
    B = depth if B is None else min(B, depth)
    scale = float(np.max(np.abs(x.values)))
    # block system: sum_{k=1..B} (g^{-1})^(k-m) T_minus^(-k) = -(g^{-1})^(-m)
    A = s.g_inv.section(B, B, 0, -1, 1)  # block (m, k) is mode k - m
    rhs = -s.g_inv.section(B, 1, -1, -1, 1)  # block m is mode -m - 1
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
    recon = stacked_mul(tm_vals, plus_samples)
    residual = float(np.max(np.abs(x.values - recon))) / max(scale, 1e-300)
    if residual > tol:
        advice = (
            f"g reaches depth {depth}: increase the depth or the sample grid"
            if capped
            else "g may have no factorization here (tau near zero, outside the big cell), "
            "or the sample grid is too coarse"
        )
        raise FactorizationError(
            f"residual {residual:.3g} exceeds tol {tol:g} at depth B={B}; {advice}"
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
    """Both factorization orders of one symbol, with the certificates of each.

    minus_first factors the symbol as theta_minus * theta_plus.  plus_first
    factors the reflected symbol g(1/z) = R_minus R_plus (its B_used is the
    depth of g(1/z)), mapped back as gamma_plus(z) = R_minus(1/z) and
    gamma_minus(z) = R_plus(1/z): the symbol is gamma_plus * gamma_minus.
    The unit determinant is theta_plus's in one order and gamma_plus's in
    the other, so plus_first.det_plus_dev certifies nothing.
    """

    minus_first: FactorizationResult
    plus_first: FactorizationResult

    @property
    def theta_minus(self) -> LaurentMatrix:
        return self.minus_first.T_minus

    @property
    def theta_plus(self) -> LaurentMatrix:
        return self.minus_first.T_plus

    @cached_property
    def gamma_plus(self) -> LaurentMatrix:
        return lm_reflect(self.plus_first.T_minus)

    @cached_property
    def gamma_minus(self) -> LaurentMatrix:
        return lm_reflect(self.plus_first.T_plus)

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
    """Factor the sampled symbol in both orders, from one spectral pass.

    The plus-first order comes from factoring the reflected symbol
    g(1/z) = R_minus R_plus and mapping back: g_plus(z) = R_minus(1/z),
    g_minus(z) = R_plus(1/z); g_plus is normalized to I at z = 0.  Both
    orders read one symbol_spectra pass, the plus-first one through
    SymbolSpectra.reflected, and each solves at its own depth, capped by
    B as in wiener_hopf.
    """
    if abs(x.radius - 1.0) > 1e-14:
        raise AliasError("two-sided factorization requires unit-circle samples")
    spectra = symbol_spectra(x)
    return FactorizationPair(_factor(spectra, B, tol), _factor(spectra.reflected(), B, tol))


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
    e_minus = exp_xi_lambda(t.negated(), spec.n, (0, e_hi))
    # exp(-xi) has no negative modes: the product starts where T_minus does
    psi = lm_trim(lm_mul(e_minus, T_minus, (T_minus.lo, e_hi)), 1e-16)
    psi_inv = lm_trim(lm_mul(T_plus, w_inv, (w_inv.lo, T_plus.hi + w_inv.hi)), 1e-16)
    for lm in (psi, psi_inv):
        lm.coeffs.flags.writeable = False
    return psi, psi_inv


@dataclass
class TauRatioReport:
    corrected_det: complex   # det(I_n - M_NN) with the resolvent cross term
    residual: float          # |D_N / D_{N+1} - corrected_det|, the identity checked
    block_residual: float    # |D_N / D_{N+1} - det(I_n - M_NN)|, the bare block det
    window: int


def tau_ratio_check(spec: SymbolSpec, t: TimeVector, N: int) -> TauRatioReport:
    """Consecutive determinant ratio against an ordinary n x n determinant.

    lhs = D_N / D_{N+1} for the deformed symbol.  With M the Hankel-product
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
    lm = gd_symbol(spec, t, (-28, 28), exact_only=True)
    x = deformed_symbol_samples(spec, t, 1024)
    sw = szego_widom(lm, x, tol=1e-12)
    psi, psi_inv = wave_matrix(spec, t)
    d = correction_det(psi, psi_inv, N).det_correction
    lhs = det_DN(build_TN(lm, N)) / sw.G**N
    return float(abs(lhs - sw.D_inf * d))


# -- derivative of the limit through the factorization ------------------------


def lm_z_derivative(a: LaurentMatrix) -> LaurentMatrix:
    """Coefficient-wise derivative in z: k * a^(k) moves to mode k-1."""
    ks = np.arange(a.lo, a.hi + 1)
    return LaurentMatrix(a.n, a.lo - 1, a.hi - 1, a.coeffs * ks[:, None, None])


@dataclass
class WidomDerivativeReport:
    contour: complex
    abs_err: float


def widom_derivative_check(
    make_symbol: Callable[[float], LaurentMatrix],
    x0: float,
) -> WidomDerivativeReport:
    """Compare d/dx log D_inf with the contour-integral trace formula.

    The formula integrates tr[((d_z g_+) g_- - (d_z h_-) h_+) d_x(symbol)]
    over 1024 points of the circle, where symbol^{-1} = g_+ g_- = h_- h_+
    are the two factorization orders of the inverse symbol (gamma and theta
    of two_sided_factorization, from its samples on that grid).  The
    numeric derivative and d_x(symbol) are central differences, step 1e-5,
    of log D_inf settled to 1e-12 (szego_widom).
    """
    h, M = 1e-5, 1024

    def log_Dinf(x: float) -> complex:
        lm = make_symbol(x)
        samples = inverse_transform(lm, max(512, 4 * lm.width))
        res = szego_widom(lm, samples, tol=1e-12)
        return np.log(res.D_inf)

    numeric = (log_Dinf(x0 + h) - log_Dinf(x0 - h)) / (2 * h)

    pair = two_sided_factorization(inverse_transform(lm_invert(make_symbol(x0)), M))
    dgam = lm_scale(
        lm_add(make_symbol(x0 + h), make_symbol(x0 - h), scale_b=-1.0), 1.0 / (2 * h)
    )

    z = np.exp(2j * np.pi * np.arange(M) / M)
    term = (
        lm_z_derivative(pair.gamma_plus)(z) @ pair.gamma_minus(z)
        - lm_z_derivative(pair.theta_minus)(z) @ pair.theta_plus(z)
    ) @ dgam(z)
    f = np.trace(term, axis1=-2, axis2=-1)
    contour = -np.sum(f * z) / M
    return WidomDerivativeReport(
        contour=complex(contour),
        abs_err=float(abs(numeric - contour)),
    )
