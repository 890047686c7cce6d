"""Block Toeplitz truncations, operator determinants and limit theorems.

Conventions: the N-block truncation of a symbol g places coefficient
g^(i-j) at block (i, j), i, j = 0..N-1.  D_N is its determinant.  The
associated identity-plus-nuclear operator has block entries

    P_ij = delta_ij I - sum_{k>=1} g^(i+k) h^(-j-k),        h = g^{-1},

and its Fredholm determinant equals the limit D_inf = lim D_N / G^N with
G the exponential of the averaged log det of the symbol.  The same Hankel
product with two Wiener-Hopf factorizations gives the finite-N correction
factor det(I - K_N) connecting D_N to D_inf exactly.

Toeplitz and Hankel sections come from LaurentMatrix.section, whose block
(r, c) is g^(first + dr*r + dc*c): T_N is section(N, N, 0, 1, -1), one
strip of 2N - 1 modes.  The Hankel product on block ranges i, j is one
GEMM: the (R*n, k*n) section of u at modes i+k times the (k*n, C*n)
section of v at modes -j-k, each starting at its range's first block and
stepping as the range does; its (i a, j d) row-major layout is already
the dense (R*n, C*n) result.

No operator determinant here takes a limit: each kernel has no rows, or
no columns, past a known block (the positive band of its first symbol, or
the negative band of its second), so I - K is block triangular past that
window and has the window's determinant (fredholm_det, correction_det).
The one finite-section limit, D_N/G^N, stops through settle, a Cauchy
rule on two consecutive steps, relative to the value once it passes 1;
truncation_dets is the one loop over N of D_N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

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
    continuous_log_det,
    lm_mul,
    lm_trim,
    stacked_mul,
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
    return BlockToeplitz(n=lm.n, N=N, matrix=lm.section(N, N, 0, 1, -1))


def det_DN(bt: BlockToeplitz) -> complex:
    """Determinant of the block truncation."""
    return complex(np.linalg.det(bt.matrix))


def truncation_dets(lm: LaurentMatrix):
    """D_1, D_2, ... of the symbol, one block truncation at a time, lazily."""
    for N in count(1):
        yield det_DN(build_TN(lm, N))


# -- the Cauchy rule of the finite-section limit -----------------------------


def settle(steps, tol: float, what: str):
    """Read (size, value) steps up to the second of two consecutive Cauchy ones.

    A step is Cauchy when its value is within tol * max(1, |value|) of the
    previous one: absolute below |value| = 1 and relative above it, so a
    limit of size 10 stops at the round-off of its own digits.  Returns
    (size, value, est_error, history) at the first Cauchy step whose
    predecessor was Cauchy too; est_error is the larger of the two
    differences, absolute, so at most tol * max(1, |value|), not tol, and
    history lists every (size, value) read.
    One Cauchy step is not enough: D_N/G^N of rational (0.3, 0.6) at t =
    (0.0195, 0, -0.0871, 0, -0.1329) moves by 4.3e-14 from N = 6 to 7 and
    still sits 1.1e-8 off its limit.  Raises ConvergenceError, naming the
    last size, difference and |value|, when the steps run out first.
    """
    history = []
    prev = size = None
    diff = last = np.inf  # the latest difference and the one before it
    for size, value in steps:
        history.append((size, value))
        if prev is not None:
            diff = abs(value - prev)
            if max(diff, last) < tol * max(1.0, abs(value)):
                return size, value, max(diff, last), history
            last = diff
        prev = value
    magnitude = np.nan if prev is None else abs(prev)
    raise ConvergenceError(
        f"{what} not Cauchy below {tol:g} by {size} "
        f"(last difference {diff:.3g}, |value| {magnitude:.3g})"
    )


# -- Hankel products ---------------------------------------------------------


def hankel_product_matrix(
    u: LaurentMatrix, v: LaurentMatrix, rows: range, cols: range
) -> np.ndarray:
    """Dense block matrix K with K_ij = sum_{k>=1} u^(i+k) v^(-j-k).

    rows and cols are ranges of non-negative block indices (i and j
    respectively) with step +1 or -1, in the order K's block rows (columns)
    run; coefficients outside the stored bands count as zero.
    """
    r0, c0 = min(rows, default=0), min(cols, default=0)
    if r0 < 0 or c0 < 0:
        raise ValueError("Hankel block indices must be non-negative")
    k = max(min(u.hi - r0, -v.lo - c0), 0)  # terms past k vanish in every block
    hu = u.section(len(rows), k, rows.start + 1, rows.step, 1)
    hv = v.section(k, len(cols), -1 - cols.start, -1, -cols.step)
    return hu @ hv


def hankel_identity_check(a: LaurentMatrix, b: LaurentMatrix, M: int) -> float:
    """Max error of T_M(ab) - T_M(a) T_M(b) against its two Hankel corner terms.

    The difference of the truncations equals the ordinary Hankel product
    (top-left corner) plus the reflected one entering at the cut (bottom-
    right corner); the identity is exact for banded inputs.
    """
    prod = lm_mul(a, b, (a.lo + b.lo, a.hi + b.hi))
    lhs = build_TN(prod, M).matrix - build_TN(a, M).matrix @ build_TN(b, M).matrix
    corner1 = hankel_product_matrix(a, b, range(M), range(M))
    corner2 = _tail_corner(a, b, M)
    return float(np.max(np.abs(lhs - (corner1 + corner2))))


def _tail_corner(a: LaurentMatrix, b: LaurentMatrix, M: int) -> np.ndarray:
    """Tail corner sum_{k>=0} a^(i-M-k) b^(M+k-j).

    One GEMM of two Toeplitz sections, block (i, k) of the left a^(i-M-k)
    and block (k, j) of the right b^(M+k-j); every term from k =
    min(-a.lo, b.hi) on vanishes.
    """
    k = max(min(-a.lo, b.hi), 0)
    return a.section(M, k, -M, 1, -1) @ b.section(k, M, M, 1, -1)


# -- the identity-plus-nuclear operator --------------------------------------


@dataclass
class PlemeljOperator:
    """Finite block truncation of T(g) T(g^{-1}) in the Fourier basis."""

    n: int
    M: int
    matrix: np.ndarray


def plemelj_fourier(lm: LaurentMatrix, lm_inv: LaurentMatrix, M: int) -> PlemeljOperator:
    """Operator truncation assembled from Fourier coefficients.

    Rows i >= lm.hi of the kernel vanish, so M = lm.hi is the exact window
    of fredholm_det.
    """
    n = lm.n
    K = hankel_product_matrix(lm, lm_inv, range(M), range(M))
    return PlemeljOperator(n=n, M=M, matrix=np.eye(M * n, dtype=complex) - K)


def plemelj_quadrature(
    x: CircleSamples, x_inv: CircleSamples, M: int
) -> PlemeljOperator:
    """Operator truncation via the contour-integral (projection) form.

    Acting on a basis mode z^j e_c, the operator is the non-negative-mode
    projection of psi(z) + (1/2 pi i) * contour integral over |zeta| = r of
    (g(z) g^{-1}(zeta) - I) psi(zeta) / (zeta - z), with the inner radius r
    strictly between the symbol's singularity modulus and 1.  The integrand
    is analytic in the closed annulus, so the trapezoid rule on zeta_m =
    r e^{2 pi i m / M_in} converges geometrically; output modes are read off
    the M_out samples z_l = omega^l, omega = e^{2 pi i / M_out}.

    The trapezoid sum has a closed form (Bornemann 2010; Trefethen and
    Weideman 2014).  Let fhat be the
    M_in-point DFT (/M_in) of the columns f = (entries of g^{-1}(zeta_m), 1),
    s_p = r^p fhat_{-p mod M_in}, S_p and sigma_p its matrix and scalar
    parts.  Expanding 1/(zeta - z) in zeta/z and summing its period-M_in
    wrap gives, at every z_l, the M_out-point DFT B_l of s (folded mod
    M_out) over 1 - (r/z_l)^M_in:

        D_l = B_l / (1 - r^M_in omega^{-M_in l}),   Phi_l = G_l D_l - d_l I,

    G_l = g(z_l) and d the scalar part of D.  With Ghat and Phihat the
    M_out-point DFTs (/M_out) of G and Phi, block (i, j) of the truncation
    is exactly

        delta_ij I - Phihat_{i-j}
            + sum_{p<=j} (Ghat_{i-j+p} S_p - sigma_p [i-j+p = 0] I):

    one FFT per sample column, nothing of size M_out x M.  Only pointwise
    samples of g and g^{-1} are read, never their Fourier coefficients, so
    the route stays independent of plemelj_fourier.
    """
    n, Mo, Mi, r = x.n, x.M, x_inv.M, x_inv.radius
    if x.radius != 1.0:
        raise QuadratureError("outer samples must sit on the unit circle")
    if not 0.0 < r < 1.0:
        raise QuadratureError(f"inner radius {r} must lie strictly inside the circle")
    if Mo < 2 * M:
        raise AliasError(f"outer grid M={Mo} too coarse for {M} output modes")
    F = np.concatenate([x_inv.values.reshape(Mi, n * n), np.ones((Mi, 1))], axis=1)
    Fhat = np.fft.fft(F, axis=0) / Mi
    p = np.arange(max(Mi, M))
    s = (r**p)[:, None] * Fhat[-p % Mi]       # s_p, quasi-periodic past M_in
    folds = -(-Mi // Mo)
    folded = np.zeros((folds * Mo, n * n + 1), dtype=complex)
    folded[:Mi] = s[:Mi]
    B = np.fft.fft(folded.reshape(folds, Mo, n * n + 1).sum(axis=0), axis=0)
    D = B / (1.0 - r**Mi * np.exp(-2j * np.pi * (np.arange(Mo) * Mi % Mo) / Mo))[:, None]
    Phi = stacked_mul(x.values, D[:, : n * n].reshape(Mo, n, n))
    Phi -= D[:, n * n, None, None] * np.eye(n)
    Ghat = np.fft.fft(x.values, axis=0) / Mo
    Phihat = np.fft.fft(Phi, axis=0) / Mo
    # A[d, p] = Ghat_{d+p} S_p at d = i - j in (-M, M); block (i, j) sums p <= j
    d = np.arange(1 - M, M)
    A = stacked_mul(Ghat[(d[:, None] + p[:M]) % Mo], s[:M, : n * n].reshape(M, n, n))
    i, j = np.indices((M, M))
    blocks = np.cumsum(A, axis=1)[i - j + M - 1, j] - Phihat[(i - j) % Mo]
    # sigma_p [d + p = 0] enters block (i, j) once p = j - i >= 0 is summed
    blocks -= np.where(i <= j, s[(j - i) % M, n * n], 0.0)[:, :, None, None] * np.eye(n)
    P = blocks.transpose(0, 2, 1, 3).reshape(M * n, M * n) + np.eye(M * n)
    return PlemeljOperator(n=n, M=M, matrix=P)


@dataclass
class FredholmResult:
    value: complex
    M_used: int


def fredholm_det(p: PlemeljOperator) -> FredholmResult:
    """det(I - K) of an operator given on its exact window.

    p = I - K must be cut where the kernel K has no rows, or no columns,
    past block p.M: the whole operator is then block triangular with p on
    its diagonal and the identity past it, so det p is its determinant and
    no limit is taken.
    """
    return FredholmResult(value=complex(np.linalg.det(p.matrix)), M_used=p.M)


# -- strong limit ------------------------------------------------------------


@dataclass
class SzegoWidomResult:
    D_inf: complex
    G: complex
    N_used: int
    est_error: float
    history: list = field(default_factory=list)


def szego_widom(
    lm: LaurentMatrix, x: CircleSamples, tol: float = 1e-10
) -> SzegoWidomResult:
    """Limit of D_N / G^N by direct finite sections with a Cauchy stop.

    Hypotheses checked: winding number of det(symbol) vanishes (else the
    limit theorem does not apply and HypothesisError is raised).  The
    winding and G come from one continuous log det of the samples.  The
    stop is settle's: two consecutive steps within tol * max(1, |D_N/G^N|),
    so est_error, absolute, is at most tol * max(1, |D_inf|), not tol.
    Past N = 256 ConvergenceError is raised.
    """
    logs, winding = continuous_log_det(x)
    if winding != 0:
        raise HypothesisError("winding of det(symbol) is nonzero")
    G = complex(np.exp(np.mean(logs)))  # laurent.geometric_mean, from the same pass
    steps = ((N, d / G**N) for N, d in zip(range(1, 257), truncation_dets(lm)))
    N, ratio, err, history = settle(steps, tol, "D_N/G^N")
    return SzegoWidomResult(D_inf=ratio, G=G, N_used=N, est_error=err, history=history)


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


# Widest negative band of a symbol that Day's formula is applied to.
HALF_TRUNCATED_J_MAX = 16


def half_truncated_shortcut(inv: LaurentMatrix, G: complex, j: int) -> complex:
    """Day's closed form of D_inf for a symbol with no modes below -j.

    D_inf = lim D_N / G^N then equals G^j det T_j(symbol^{-1}), which reads
    only modes -j+1..j-1 of the inverse symbol; inv must hold them exactly
    (the caller inverts the symbol) and G is the symbol's geometric mean.
    A finite tail on the positive side reduces to this case by z -> 1/z,
    which leaves every D_N and G invariant.  SpecError unless 1 <= j <=
    HALF_TRUNCATED_J_MAX.
    """
    if not 1 <= j <= HALF_TRUNCATED_J_MAX:
        raise SpecError(
            f"negative band {j} is outside 1..{HALF_TRUNCATED_J_MAX} of Day's formula"
        )
    return G**j * det_DN(build_TN(inv, j))


# -- exact finite-N correction ----------------------------------------------


@dataclass
class BorodinOkounkovResult:
    K_matrix: np.ndarray
    det_correction: complex
    window_used: int


def correction_det(u: LaurentMatrix, v: LaurentMatrix, N: int) -> BorodinOkounkovResult:
    """det(I - K) for the Hankel-product kernel of (u, v) on block indices >= N.

    K_ij = sum_{k>=1} u^(i+k) v^(-j-k) is cut to the window i, j in
    [N, N + w), w = max(u.hi - N, 1).  The cut is exact: rows i >= u.hi of K
    vanish, so I - K is block-triangular past the window and has the
    window's determinant.
    """
    w = max(u.hi - N, 1)
    idx = range(N, N + w)
    K = hankel_product_matrix(u, v, idx, idx)
    d = complex(np.linalg.det(np.eye(len(K)) - K))
    return BorodinOkounkovResult(K_matrix=K, det_correction=d, window_used=w)


def borodin_okounkov(fact, N: int, tol: float = 1e-10) -> BorodinOkounkovResult:
    """det(I - K_N) from the two factorizations of one symbol.

    fact is a factorization.FactorizationPair (symbol = gamma_plus *
    gamma_minus = theta_minus * theta_plus).  The kernel lives on block
    indices >= N: K_ij = sum_{k>=1} phi^(i+k) phi_inv^(-j-k) with phi =
    gamma_minus * theta_plus^{-1}, the pair's bo_symbols, built once per
    pair for every N.  phi and phi_inv are cut to their outermost modes
    above tol times their largest mode norm; the kernel window follows
    from the cut band of phi (correction_det).
    """
    phi, phi_inv = (lm_trim(s, tol) for s in fact.bo_symbols)
    return correction_det(phi, phi_inv, N)
