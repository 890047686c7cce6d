"""Block Toeplitz truncations, operator determinants and limit theorems.

Conventions: the N-block truncation of a symbol g places coefficient
g^(i-j) at block (i, j), i, j = 0..N-1.  D_N is its determinant.  The
associated identity-plus-nuclear operator has block entries

    P_ij = delta_ij I - sum_{k>=1} g^(i+k) h^(-j-k),        h = g^{-1},

and its Fredholm determinant equals the limit D_inf = lim D_N / G^N with
G the exponential of the averaged log det of the symbol.  The same Hankel
product with two Wiener-Hopf factorizations gives the finite-N correction
factor det(I - K_N) connecting D_N to D_inf exactly.

Toeplitz and Hankel sections come from LaurentMatrix.block_matrix, which
places g^(modes[r, c]) at block (r, c).  The Hankel product is one GEMM:
the (R*n, k*n) section of u at modes i+k times the (k*n, C*n) section of v
at modes -j-k; its (i a, j d) row-major layout is already the dense
(R*n, C*n) result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    AliasError,
    ConvergenceError,
    HypothesisError,
    QuadratureError,
    SpecError,
)
from .laurent import (
    CircleSamples,
    LaurentMatrix,
    geometric_mean,
    inverse_transform,
    lm_add,
    lm_invert,
    lm_mul,
    lm_reflect,
    lm_scale,
    lm_trim,
    winding_number,
)


@dataclass
class BlockToeplitz:
    """Dense N-block truncation of a banded symbol."""

    n: int
    N: int
    matrix: np.ndarray


def build_TN(lm: LaurentMatrix, N: int) -> BlockToeplitz:
    """Assemble the N-block truncation T_N: block (i,j) = g^(i-j)."""
    if N < 1:
        raise ValueError("need N >= 1")
    idx = np.arange(N)
    out = lm.block_matrix(idx[:, None] - idx[None, :])
    return BlockToeplitz(n=lm.n, N=N, matrix=out)


def det_DN(bt: BlockToeplitz) -> complex:
    """Determinant of the block truncation."""
    return complex(np.linalg.det(bt.matrix))


# -- Hankel products ---------------------------------------------------------


def hankel_product_matrix(u: LaurentMatrix, v: LaurentMatrix, rows, cols) -> np.ndarray:
    """Dense block matrix K with K_ij = sum_{k>=1} u^(i+k) v^(-j-k).

    rows and cols are iterables of non-negative block indices (i and j
    respectively); coefficients outside the stored bands count as zero.
    """
    rows = np.asarray(list(rows), dtype=int)
    cols = np.asarray(list(cols), dtype=int)
    n = u.n
    R, C = len(rows), len(cols)
    if R == 0 or C == 0:
        return np.zeros((R * n, C * n), dtype=complex)
    if rows.min() < 0 or cols.min() < 0:
        raise ValueError("Hankel block indices must be non-negative")
    kmax = min(u.hi - int(rows.min()), -v.lo - int(cols.min()))
    if kmax < 1:
        return np.zeros((R * n, C * n), dtype=complex)
    ks = np.arange(1, kmax + 1)
    # (R*n, k*n) Hankel section of u times (k*n, C*n) Hankel section of v
    return u.block_matrix(rows[:, None] + ks) @ v.block_matrix(-(ks[:, None] + cols))


@dataclass
class HankelIdentityReport:
    max_error: float
    ok: bool


def hankel_identity_check(
    a: LaurentMatrix, b: LaurentMatrix, M: int, tol: float = 1e-12
) -> HankelIdentityReport:
    """Verify T_M(ab) - T_M(a) T_M(b) against its two Hankel corner terms.

    The difference of the truncations equals the ordinary Hankel product
    (top-left corner) plus the reflected one entering at the cut (bottom-
    right corner); the check is exact for banded inputs.
    """
    prod = lm_mul(a, b, (a.lo + b.lo, a.hi + b.hi))
    lhs = build_TN(prod, M).matrix - build_TN(a, M).matrix @ build_TN(b, M).matrix
    corner1 = hankel_product_matrix(a, b, range(M), range(M))
    corner2 = _tail_corner(a, b, M)
    err = float(np.max(np.abs(lhs - (corner1 + corner2))))
    return HankelIdentityReport(max_error=err, ok=err <= tol)


def _tail_corner(a: LaurentMatrix, b: LaurentMatrix, M: int) -> np.ndarray:
    """Tail corner sum_{k>=0} a^(i-M-k) b^(M+k-j).

    With i' = M-1-i and j' = M-1-j this is sum_{k>=1} a^(-i'-k) b^(j'+k):
    the Hankel product of the reflected symbols with block order reversed.
    """
    rev = range(M - 1, -1, -1)
    return hankel_product_matrix(lm_reflect(a), lm_reflect(b), rev, rev)


# -- the identity-plus-nuclear operator --------------------------------------


@dataclass
class PlemeljOperator:
    """Finite block truncation of T(g) T(g^{-1}) in the Fourier basis."""

    n: int
    M: int
    matrix: np.ndarray
    route: str
    rebuild: Callable[[int], "PlemeljOperator"] | None = None


def plemelj_fourier(lm: LaurentMatrix, lm_inv: LaurentMatrix, M: int) -> PlemeljOperator:
    """Operator truncation assembled from Fourier coefficients."""
    n = lm.n
    K = hankel_product_matrix(lm, lm_inv, range(M), range(M))
    P = np.eye(M * n, dtype=complex) - K

    def rebuild(M2: int) -> PlemeljOperator:
        return plemelj_fourier(lm, lm_inv, M2)

    return PlemeljOperator(n=n, M=M, matrix=P, route="fourier", rebuild=rebuild)


def plemelj_quadrature(
    x: CircleSamples, x_inv: CircleSamples, M: int
) -> PlemeljOperator:
    """Operator truncation via the contour-integral (projection) form.

    Acting on a basis mode z^j e_c, the operator is the non-negative-mode
    projection of psi(z) + (1/2 pi i) * contour integral over |zeta| = r of
    (g(z) g^{-1}(zeta) - I) psi(zeta) / (zeta - z), with the inner radius r
    strictly between the symbol's singularity modulus and 1.  The integrand
    is analytic in the closed annulus, so the trapezoid rule converges
    geometrically; output modes are read off with an FFT in z.
    """
    n = x.n
    if x.radius != 1.0:
        raise QuadratureError("outer samples must sit on the unit circle")
    if not 0.0 < x_inv.radius < 1.0:
        raise QuadratureError(
            f"inner radius {x_inv.radius} must lie strictly inside the circle"
        )
    if x.M < 2 * M:
        raise AliasError(f"outer grid M={x.M} too coarse for {M} output modes")
    z = x.grid()
    zeta = x_inv.grid()
    G, H = x.values, x_inv.values
    C = 1.0 / (zeta[None, :] - z[:, None])
    Zpow = zeta[:, None] ** (np.arange(M) + 1)[None, :]
    # g(z_l) does not depend on zeta, so it leaves the zeta-sum:
    # T_lj = G_l W_lj - S_lj I with W = C (H zeta^{j+1}), S = C zeta^{j+1}
    HZ = Zpow[:, :, None, None] * H[:, None]           # (m, j, b, c)
    W = (C @ HZ.reshape(x_inv.M, -1)).reshape(x.M, M, n, n)
    S = C @ Zpow
    T = G[:, None] @ W - S[:, :, None, None] * np.eye(n)
    T /= x_inv.M                                       # (l, j, a, c)
    modes = np.fft.fft(T, axis=0)[:M] / x.M            # output mode index i
    P = modes.transpose(0, 2, 1, 3).reshape(M * n, M * n)
    P += np.eye(M * n)
    return PlemeljOperator(n=n, M=M, matrix=P, route="quadrature", rebuild=None)


@dataclass
class FredholmResult:
    value: complex
    M_used: int
    est_error: float


def fredholm_det(
    p: PlemeljOperator, tol: float = 1e-10, max_M: int = 2048
) -> FredholmResult:
    """Determinant of the operator, section size doubled to a Cauchy stop."""
    cur = p
    d = complex(np.linalg.det(cur.matrix))
    while True:
        if cur.rebuild is None:
            raise ConvergenceError(
                "operator was built at fixed size and cannot be refined"
            )
        nxt = cur.rebuild(2 * cur.M)
        d2 = complex(np.linalg.det(nxt.matrix))
        if abs(d2 - d) < tol:
            return FredholmResult(value=d2, M_used=nxt.M, est_error=abs(d2 - d))
        if nxt.M >= max_M:
            raise ConvergenceError(
                f"finite sections did not settle below {tol:g} by M={nxt.M}"
            )
        cur, d = nxt, d2


# -- strong limit ------------------------------------------------------------


@dataclass
class SzegoWidomResult:
    D_inf: complex
    G: complex
    N_used: int
    est_error: float
    history: list = field(default_factory=list)


def szego_widom(
    lm: LaurentMatrix,
    x: CircleSamples,
    tol: float = 1e-10,
    N_max: int = 256,
) -> SzegoWidomResult:
    """Limit of D_N / G^N by direct finite sections with a Cauchy stop.

    Hypotheses checked: winding number of det(symbol) vanishes (else the
    limit theorem does not apply and HypothesisError is raised).
    """
    if winding_number(x) != 0:
        raise HypothesisError("winding of det(symbol) is nonzero")
    G = geometric_mean(x)
    history: list[tuple[int, complex]] = []
    prev = None
    for N in range(1, N_max + 1):
        r = det_DN(build_TN(lm, N)) / G**N
        history.append((N, r))
        if prev is not None and abs(r - prev) < tol:
            return SzegoWidomResult(
                D_inf=r, G=G, N_used=N, est_error=abs(r - prev), history=history
            )
        prev = r
    raise ConvergenceError(f"D_N/G^N not Cauchy below {tol:g} by N={N_max}")


def fit_decay(deltas, floor: float = 0.0) -> float:
    """Geometric decay ratio of a difference sequence.

    Least-squares line through log(delta_i) against i, over the entries
    above floor, each at its index in deltas; 0.0 when fewer than two remain.
    """
    xs = [i for i, d in enumerate(deltas) if d > floor]
    if len(xs) < 2:
        return 0.0
    ys = [np.log(deltas[i]) for i in xs]
    return float(np.exp(np.polyfit(xs, ys, 1)[0]))


@dataclass
class ShortcutResult:
    D_inf: complex
    G: complex
    side: str
    j: int


def half_truncated_shortcut(
    lm: LaurentMatrix, j_max: int = 16, M: int = 1024
) -> ShortcutResult:
    """Closed-form D_inf for symbols with a one-sided finite band.

    If the symbol has no modes below -j (a finite tail on the negative
    side), then D_inf equals det T_j(symbol^{-1}) * G^j.  A finite tail on
    the positive side reduces to this case by z -> 1/z, which leaves every
    D_N and G invariant.  Symbols unbounded on both sides are rejected.
    """
    core = lm_trim(lm, 1e-14)
    side = None
    if -core.lo <= j_max:
        side, work = "negative-tail", core
    elif core.hi <= j_max:
        side, work = "reflected", lm_reflect(core)
    else:
        raise SpecError(
            f"symbol band [{core.lo}, {core.hi}] is not half-truncated "
            f"within j_max={j_max}"
        )
    j = max(0, -work.lo)
    x = inverse_transform(work, max(M, 4 * work.width))
    G = geometric_mean(x)
    if j == 0:
        return ShortcutResult(D_inf=1.0 + 0.0j, G=G, side=side, j=0)
    inv = lm_invert(work)
    Dj = det_DN(build_TN(inv, j))
    return ShortcutResult(D_inf=Dj * G**j, G=G, side=side, j=j)


# -- exact finite-N correction ----------------------------------------------


@dataclass
class BorodinOkounkovResult:
    K_matrix: np.ndarray
    det_correction: complex
    window_used: int
    est_error: float


def borodin_okounkov(
    fact,
    N: int,
    window: int = 8,
    tol: float = 1e-10,
    max_window: int = 512,
) -> BorodinOkounkovResult:
    """det(I - K_N) from the two factorizations of one symbol.

    fact must provide banded factors gamma_plus, gamma_minus (symbol =
    gamma_plus * gamma_minus) and theta_minus, theta_plus (symbol =
    theta_minus * theta_plus).  The kernel lives on block indices >= N:
    K_ij = sum_{k>=1} phi^(i+k) phi_inv^(-j-k) with phi = gamma_minus *
    theta_plus^{-1}; the window past N is widened until the determinant
    settles.
    """
    phi, phi_inv = bo_symbols(fact)
    w = window
    prev = None
    while True:
        idx = range(N, N + w)
        K = hankel_product_matrix(phi, phi_inv, idx, idx)
        d = complex(np.linalg.det(np.eye(len(K)) - K))
        if prev is not None and abs(d - prev) < tol:
            return BorodinOkounkovResult(
                K_matrix=K, det_correction=d, window_used=w, est_error=abs(d - prev)
            )
        if w >= max_window:
            raise ConvergenceError(
                f"correction determinant not Cauchy below {tol:g} by window {w}"
            )
        prev = d
        w *= 2


def bo_symbols(fact) -> tuple[LaurentMatrix, LaurentMatrix]:
    """phi = gamma_minus theta_plus^{-1} and its inverse, as banded series."""
    gm: LaurentMatrix = fact.gamma_minus
    gp: LaurentMatrix = fact.gamma_plus
    tm: LaurentMatrix = fact.theta_minus
    tp: LaurentMatrix = fact.theta_plus
    tp_inv = lm_invert(tp)
    tm_inv = lm_invert(tm)
    span = max(gm.width, gp.width, tp_inv.width, tm_inv.width) + 8
    band = (-span, span)
    phi = lm_trim(lm_mul(gm, tp_inv, band), 1e-16)
    phi_inv = lm_trim(lm_mul(tm_inv, gp, band), 1e-16)
    return phi, phi_inv


# -- derivative of the limit through the factorization ------------------------


def lm_z_derivative(a: LaurentMatrix) -> LaurentMatrix:
    """Coefficient-wise derivative in z: k * a^(k) moves to mode k-1."""
    ks = np.arange(a.lo, a.hi + 1)
    return LaurentMatrix(a.n, a.lo - 1, a.hi - 1, a.coeffs * ks[:, None, None])


@dataclass
class WidomDerivativeReport:
    numeric: complex
    contour: complex
    abs_err: float


def widom_derivative_check(
    make_symbol: Callable[[float], LaurentMatrix],
    x0: float,
    h: float = 1e-5,
    M: int = 1024,
    tol: float = 1e-10,
) -> WidomDerivativeReport:
    """Compare d/dx log D_inf with the contour-integral trace formula.

    The formula integrates tr[((d_z t_plus) t_minus - (d_z s_minus) s_plus)
    * d_x(symbol)] over the circle, where symbol^{-1} = t_plus t_minus =
    s_minus s_plus are the two factorization orders of the inverse symbol.
    """
    from .factorization import wiener_hopf_banded

    def log_Dinf(x: float) -> complex:
        lm = make_symbol(x)
        samples = inverse_transform(lm, max(512, 4 * lm.width))
        res = szego_widom(lm, samples, tol=tol)
        return np.log(res.D_inf)

    numeric = (log_Dinf(x0 + h) - log_Dinf(x0 - h)) / (2 * h)

    lm = make_symbol(x0)
    inv = lm_invert(lm)
    s_minus, s_plus = wiener_hopf_banded(inv)
    refl = lm_reflect(inv)
    r_minus, r_plus = wiener_hopf_banded(refl)
    t_plus, t_minus = lm_reflect(r_minus), lm_reflect(r_plus)
    dgam = lm_scale(
        lm_add(make_symbol(x0 + h), make_symbol(x0 - h), scale_b=-1.0), 1.0 / (2 * h)
    )

    z = np.exp(2j * np.pi * np.arange(M) / M)
    term = (
        lm_z_derivative(t_plus)(z) @ t_minus(z)
        - lm_z_derivative(s_minus)(z) @ s_plus(z)
    ) @ dgam(z)
    f = np.trace(term, axis1=-2, axis2=-1)
    contour = -np.sum(f * z) / M
    return WidomDerivativeReport(
        numeric=complex(numeric),
        contour=complex(contour),
        abs_err=float(abs(numeric - contour)),
    )
