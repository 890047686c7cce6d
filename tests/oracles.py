"""Reference routines the tests compare against.

block_layout lays out any array of modes as a block matrix by one index
gather over every block, the reference for LaurentMatrix.section and the
layout of the corner oracles below; hankel_product_layout is the Hankel
product on any block index lists by that layout;
schur_recurrence is a loop kept independent of the vectorized code, and
schur_mpmath the same recurrence at 40 digits, a reference for values that
cancel below the round-off of a double; exp_xi_mpmath sums those values
into the pointwise exp(xi(t, L(z))) at 40 digits; rational_tau_mpmath is
the stable tau of a rational family at 40 digits, for every block size n;
tau_graded_elimination eliminates the whole nN x nN ring matrix, the
reference for the rank-r route of tau.tau_graded; gd_symbol_inverse is
the banded inverse of the deformed symbol, the wide-band reference for
the Hankel corner of tau.tau_stable; hankel_corner_reference is that
corner as the three-factor product H(e) V T(e^-1), with V from
corner_middle, the reference for the route's rank-r factor;
full_v_corner_tau is the route's determinant with the rank-r factor of
the whole V, zero rows and columns included, the reference for the live
block the route keeps; stable_tau_reference is tau.tau_stable_report by
the Schur-series assembly;
read_csv reads back the coefficient CSVs the command line writes;
minus_factor_at_depth is the Wiener-Hopf minus factor from the projection
system at a fixed depth, assembled block by block, the deep reference for
factorization.wiener_hopf, which solves at the depth of g;
plemelj_quadrature_folded is the contour projector's trapezoid sum as an
FFT per output column over the folded moment tensor, the reference for
its closed form.  transform_adaptive (FFT of circle samples) and
binomial_series_mpmath (the power-sum recurrence at 40 digits) are the two
references for the closed-form base symbols.  COVERING_TAU_32 holds six
covering stable tau values at 32 digits.
"""

import mpmath
import numpy as np

from blocktau.errors import TruncationError
from blocktau.gradedpoly import GradedPoly, gp_det
from blocktau.laurent import (
    CSV_HEADER,
    LaurentMatrix,
    gather_modes,
    invert_symbol,
    lm_mul,
    next_pow2,
    sample_function,
    transform,
    transform_tail,
)
from blocktau.symbols import (
    INVERSE_CUT,
    _check_schur_tail,
    base_inverse,
    base_symbol,
    exp_xi_lambda,
    gd_symbol_graded,
)
from blocktau.tau import StableTauReport


def block_layout(coeffs, lo, modes):
    """Block matrix (R*n, C*n, ...) whose (r, c) block is mode modes[r, c].

    coeffs has shape (modes, n, n, ...) with the modes lo, lo+1, ... first;
    any trailing shape rides along.  modes is a 2-D integer array; modes
    outside the stored band give zero blocks.  One index gather over every
    block: the reference for LaurentMatrix.section, and the oracles' layout.
    """
    modes = np.asarray(modes, dtype=int)
    (R, C), n = modes.shape, coeffs.shape[1]
    blocks = gather_modes(coeffs, lo, modes)
    return blocks.swapaxes(1, 2).reshape(R * n, C * n, *coeffs.shape[3:])


def hankel_product_layout(u, v, rows, cols):
    """K_ij = sum_{k>=1} u^(i+k) v^(-j-k) on any lists of block indices.

    The two factors are laid out by block_layout over the k = 1..kmax
    terms, kmax = min(u.hi - min i, -v.lo - min j), that can be nonzero:
    the depth toeplitz.hankel_product_matrix reads, so on ranges the two
    GEMMs match bit for bit.
    """
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    kmax = min(u.hi - min(rows, default=0), -v.lo - min(cols, default=0))
    k = np.arange(1, max(kmax, 0) + 1)
    hu = block_layout(u.coeffs, u.lo, rows[:, None] + k)
    hv = block_layout(v.coeffs, v.lo, -k[:, None] - cols)
    return hu @ hv


# Stable tau of two covering families at 32 digits, rounded to double, as
# (roots, n, direction over t_1..t_5, s, tau at the times s * direction).
# Each is det(T_j(e) - H(e) V) = det(I - K) with W and W^-1 from the
# binomial recurrence of binomial_series_mpmath, kept as mpmath numbers to
# depth 72 (tail below 1e-30), and the Schur values from _schur_mp; depths
# 60 and 72 agree to every double digit.  One value takes 16-90 s, so the
# values are constants here.
COVERING_TAU_32 = (
    ((0.3, -0.25, 0.35j), 2, (1, 0, 0.5, 0, 0.25), 6.0,
     -19.518475241663747 - 17.298424442977925j),
    ((0.3, -0.25, 0.35j), 2, (1, 0, 0.5, 0, 0.25), 7.0,
     34.62812041909679 - 86.36429041916281j),
    ((0.3, -0.25, 0.35j), 2, (1, 0, 0.5, 0, 0.25), 7.5,
     182.9076014976784 - 167.00269813092186j),
    ((0.3, -0.25, 0.35j, 0.2 + 0.2j), 3, (1, 0.5, 0, 0.25, 0.1), 6.0,
     -681.0760363125236 - 395.9724837313103j),
    ((0.3, -0.25, 0.35j, 0.2 + 0.2j), 3, (1, 0.5, 0, 0.25, 0.1), 7.0,
     -5645.293834588652 - 3697.400770374408j),
    ((0.3, -0.25, 0.35j, 0.2 + 0.2j), 3, (1, 0.5, 0, 0.25, 0.1), 8.0,
     -42476.56272087164 + 32190.805147554925j),
)


def schur_recurrence(tvals, kmax):
    """p_0..p_kmax of exp(sum_i t_i zeta^i) by k p_k = sum_i i t_i p_{k-i}."""
    t = np.asarray(tvals, dtype=complex)
    p = np.zeros(kmax + 1, dtype=complex)
    p[0] = 1.0
    for k in range(1, kmax + 1):
        acc = 0.0 + 0.0j
        for i in range(1, min(k, len(t)) + 1):
            acc += i * t[i - 1] * p[k - i]
        p[k] = acc / k
    return p


def _schur_mp(tvals, kmax):
    """p_0..p_kmax by the recurrence, as mpmath numbers at the working precision."""
    ts = [mpmath.mpc(complex(v)) for v in tvals]
    p = [mpmath.mpc(1)]
    for k in range(1, kmax + 1):
        terms = (i * ts[i - 1] * p[k - i] for i in range(1, min(k, len(ts)) + 1))
        p.append(mpmath.fsum(terms) / k)
    return p


def schur_mpmath(tvals, kmax):
    """The recurrence at 40 digits."""
    with mpmath.workdps(40):
        return np.array([complex(v) for v in _schur_mp(tvals, kmax)])


def exp_xi_mpmath(tvals, n, z, kmax=150):
    """exp(xi(t, L(z))) at each z, at 40 digits, from the series sum_k p_k L^k.

    Entry (a, b) of L^k is z^q when nq + a - b = k, so entry (a, b) is
    sum_q p_(nq+a-b) z^q, summed by Horner's rule: no roots of z and no
    diagonalization.  tvals are the times as applied (TimeVector.effective).
    """
    with mpmath.workdps(40):
        p = _schur_mp(tvals, kmax)
        if abs(p[-1]) > mpmath.mpf(10) ** -38:
            raise TruncationError(f"Schur values reach {float(abs(p[-1])):.3g} at k={kmax}")
        out = np.zeros((len(z), n, n), dtype=complex)
        for m, zv in enumerate(z):
            zm = mpmath.mpc(complex(zv))
            for d in range(1 - n, n):  # d = a - b
                acc = mpmath.mpc(0)
                for k in reversed(range(d % n, kmax + 1, n)):
                    acc = acc * zm + p[k]
                if d < 0:  # the first term, k = n + d, has q = 1
                    acc *= zm
                a = np.arange(max(d, 0), min(n, n + d))
                out[m, a, a - d] = complex(acc)
        return out


def binomial_series_mpmath(b, E, depth):
    """Modes 0..depth in 1/z of prod_j (1 - b_j/z)^E_ij, one column per row i, at 40 digits.

    log of row i is sum_m tau_m z^-m with tau_m = -sum_j E_ij b_j^m / m, so
    its modes p_k follow k p_k = sum_m m tau_m p_(k-m).  b holds complex
    roots, E exact exponents (ints or fractions.Fraction).
    """
    with mpmath.workdps(40):
        bs = [mpmath.mpc(complex(v)) for v in b]
        out = np.zeros((depth + 1, len(E)), dtype=complex)
        for i, row in enumerate(E):
            es = [mpmath.mpf(e.numerator) / e.denominator for e in row]
            tau = [
                mpmath.fsum(-e * bj**m for e, bj in zip(es, bs)) / m for m in range(1, depth + 1)
            ]
            p = [mpmath.mpc(1)]
            for k in range(1, depth + 1):
                p.append(mpmath.fsum(m * tau[m - 1] * p[k - m] for m in range(1, k + 1)) / k)
            out[:, i] = [complex(v) for v in p]
        return out


def transform_adaptive(fn, n: int, band: tuple[int, int]) -> LaurentMatrix:
    """Transform of circle samples, the grid doubled until the out-of-band tail is below 1e-13.

    The grid starts at 2^10 points (more if the band needs them); past 2^16
    the function does not fit the band and TruncationError is raised.
    """
    M = max(1 << 10, next_pow2(2 * (band[1] - band[0] + 1)))
    while True:
        x = sample_function(fn, n, M)
        if transform_tail(x, band) < 1e-13:
            return transform(x, band)
        if M >= 1 << 16:
            raise TruncationError(
                f"band {band} cannot hold the symbol to 1e-13 "
                f"(grid saturated at M={M})"
            )
        M *= 2


def rational_tau_mpmath(c, t):
    """Stable tau of rational_spec(c) at the applied times t_1, t_2, ..., at 40 digits.

    W^-1 = diag(1 / (1 - c_i^2 / z)) sums mode by mode to evaluation at
    z = c_i^2, so det M is the stable tau, with row i of M row i of
    exp(xi(-t, L(z))) at z = c_i^2.  That matrix is V^-1 diag(e^(-xi(t, zeta_k))) V
    over the n roots zeta_k of z, V[k, a] = zeta_k^a.
    """
    n = len(c)
    with mpmath.workdps(40):
        ts = [mpmath.mpc(complex(v)) for v in t]
        rows = []
        for i, ci in enumerate(c):
            z = mpmath.mpc(complex(ci)) ** 2
            zetas = [mpmath.root(z, n, k) for k in range(n)]
            V = mpmath.matrix([[zeta**a for a in range(n)] for zeta in zetas])
            xi = [mpmath.fsum(tm * zeta ** (m + 1) for m, tm in enumerate(ts)) for zeta in zetas]
            E = mpmath.inverse(V) * mpmath.diag([mpmath.exp(-x) for x in xi]) * V
            rows.append([E[i, a] for a in range(n)])
        return complex(mpmath.det(mpmath.matrix(rows)))


def gd_symbol_inverse(spec, t, band, exact_only=False) -> LaurentMatrix:
    """Fourier coefficients of W^-1 * exp(xi(-t, L)), the inverse of gd_symbol.

    In-band coefficients are exact up to the cut of W^-1 (exp(xi(-t, L)) is
    carried on the band (0, band[1] - lo(W^-1)) it needs).  The modes of
    the product past band[1] are dropped; they are fed by the Schur values
    p_k(-t), k > n band[1].  With exact_only=False those must be below
    EXP_TAIL_TOL, else TruncationError, as in symbols.gd_symbol.
    """
    w_inv = base_inverse(spec)
    e = exp_xi_lambda(t.negated(), spec.n, band[1] - w_inv.lo)
    if not exact_only:
        _check_schur_tail(e.coeffs[:, :, 0].ravel(), spec.n * band[1] + 1)
    return lm_mul(w_inv, e, band)


def corner_middle(spec):
    """V = T(W~) H(W~^-1) on R = j' - W.lo block rows and j' = -W^-1.lo block columns.

    Block (k, l) is sum_d W_(d-k) W^-1_(-(d+l+1)), laid out with
    block_layout from base_symbol and base_inverse.
    """
    w, w_inv = base_symbol(spec), base_inverse(spec)
    q = np.arange(-w_inv.lo)
    V = block_layout(w.coeffs, w.lo, q - np.arange(len(q) - w.lo)[:, None])
    return V @ block_layout(w_inv.coeffs, w_inv.lo, -(q[:, None] + q + 1))


def hankel_corner_reference(spec, t):
    """The j'-block corner of K = H(g) H(g~^-1) as H(e) V T(e^-1), V = corner_middle(spec).

    W has no positive modes and e^-1 no negative ones, so K = H(e) T(W~)
    H(W~^-1) T(e^-1) exactly.  H(e) (j' x R blocks) and T(e^-1) (j' x j')
    are laid out with block_layout from exp_xi_lambda: the product with V
    itself, which the route's (H(e) X)(Y T(e^-1)), X Y the rank-r cut of V
    (tau._corner_factors), must meet entrywise.
    """
    n = spec.n
    V = corner_middle(spec)
    R, j = len(V) // n, V.shape[1] // n
    e = exp_xi_lambda(t, n, j + R - 1)
    e_inv = exp_xi_lambda(t.negated(), n, j - 1)
    i = np.arange(j)
    H = block_layout(e.coeffs, e.lo, i[:, None] + np.arange(1, R + 1))
    return H @ V @ block_layout(e_inv.coeffs, e_inv.lo, i[:, None] - i)


def full_v_corner_tau(spec, t):
    """The covering route's det(I_r - F) on the whole of V = corner_middle(spec).

    X Y is the thin SVD of V, zero rows and columns of component 0
    included, cut at its singular values above INVERSE_CUT sigma_1, and F
    = (Y T(e^-1)) (H(e) X) with H(e) (j' x R blocks) and T(e^-1) (j' x j')
    laid out with block_layout from exp_xi_lambda: the layout the route
    had before it kept only V's live rows and columns, whose tau it must
    meet to the conditioning of I - K.  No gate is applied.
    """
    n = spec.n
    V = corner_middle(spec)
    U, s, Vh = np.linalg.svd(V, full_matrices=False)
    r = int(np.count_nonzero(s > INVERSE_CUT * s[0]))
    R, j = len(V) // n, V.shape[1] // n
    i = np.arange(j)
    e = exp_xi_lambda(t, n, j + R - 1)
    e_inv = exp_xi_lambda(t.negated(), n, j - 1)
    H = block_layout(e.coeffs, e.lo, i[:, None] + np.arange(1, R + 1))
    T = block_layout(e_inv.coeffs, e_inv.lo, i[:, None] - i)
    F = (Vh[:r] @ T) @ (H @ (U[:, :r] * s[:r]))
    return complex(np.linalg.det(np.eye(r) - F))


def stable_tau_reference(spec, t):
    """tau.tau_stable_report by the Schur-series assembly, with no gather plan.

    Both routes fold the Schur values into LaurentMatrix bands with
    exp_xi_lambda.  The rational route forms mode 0 of g^-1 = W^-1
    exp(xi(-t,L)) with lm_mul, W^-1 the binomial series cut at INVERSE_CUT:
    an assembly that shares nothing with the residue form of
    tau._finite_rank, whose value it must meet to 1e-12; its est_error is
    not computed (nan).  The covering route takes det(I - K) of
    hankel_corner_reference; route, M_used and est_error must equal the
    plan's, and the value meets it to the conditioning of I - K
    (tests/test_tau.py).  No gate is applied.
    """
    n = spec.n
    if spec.family == "rational":  # T_1(g^-1) is mode 0 of g^-1; G = det W_0 = 1
        w_inv = base_inverse(spec)
        e = exp_xi_lambda(t.negated(), n, -w_inv.lo)
        T = lm_mul(w_inv, e, (0, 0)).block(0)
        return StableTauReport(complex(np.linalg.det(T)), np.nan, "finite_rank", 1)
    K = hankel_corner_reference(spec, t)
    j = len(K) // n
    return StableTauReport(complex(np.linalg.det(np.eye(len(K)) - K)), 0.0, "fredholm", j)


def tau_graded_elimination(spec, N, Q):
    """D_N by Gaussian elimination on the nN x nN ring matrix T_N(exp(xi(t, L)) W)."""
    coeffs = gd_symbol_graded(spec, (-(N - 1), N - 1), Q)
    idx = np.arange(N)
    T = block_layout(coeffs, -(N - 1), idx[:, None] - idx)  # block (I, J) is mode I - J
    return gp_det([[GradedPoly(Q, Q, entry) for entry in row] for row in T])


def plemelj_quadrature_folded(x, x_inv, M):
    """The trapezoid projector of toeplitz.plemelj_quadrature, one output column at a time.

    For every column j the moments r^p fhat_{-p}, p = q + j + 1, of f =
    (g^-1(zeta_m) entries, 1) are folded mod M_out into an (M_out, M, n^2+1)
    tensor and summed over q by one FFT per column, times -1 / (z (1 -
    (r/z)^M_in)); the output modes are an FFT over z.  Returns the dense
    (M n, M n) matrix.
    """
    n, Mo, Mi, r = x.n, x.M, x_inv.M, x_inv.radius
    F = np.concatenate([x_inv.values.reshape(Mi, n * n), np.ones((Mi, 1))], axis=1)
    Fhat = np.fft.fft(F, axis=0) / Mi
    p = np.arange(Mi)[:, None] + np.arange(1, M + 1)
    moments = (r**p)[:, :, None] * Fhat[-p % Mi]  # (q, j, column)
    folds = -(-Mi // Mo)
    folded = np.zeros((folds * Mo, M, n * n + 1), dtype=complex)
    folded[:Mi] = moments
    folded = folded.reshape(folds, Mo, M, n * n + 1).sum(axis=0)
    wrap = r**Mi * np.exp(-2j * np.pi * (np.arange(Mo) * Mi % Mo) / Mo)
    scale = -1.0 / (x.grid() * (1.0 - wrap))
    sums = np.fft.fft(folded, axis=0) * scale[:, None, None]  # (l, j, column)
    W = sums[..., : n * n].reshape(Mo, M, n, n).transpose(0, 2, 1, 3)
    T = (x.values @ W.reshape(Mo, n, M * n)).reshape(Mo, n, M, n)  # (l, a, j, c)
    T -= sums[:, None, :, n * n, None] * np.eye(n)[:, None, :]
    modes = np.fft.fft(T, axis=0)[:M] / Mo  # output mode index i
    return modes.reshape(M * n, M * n) + np.eye(M * n)


def minus_factor_at_depth(x, B) -> LaurentMatrix:
    """T_minus on modes -B..0 from the B-block Gohberg-Feldman system, one block at a time.

    sum_{k=1..B} (g^-1)^(k-m) T_minus^(-k) = -(g^-1)^(-m), m = 1..B, with
    the modes of g^-1 from invert_symbol and transform, in one
    np.linalg.solve; T_minus^(0) = I.  No depth is read off the data.
    """
    n = x.n
    ginv = transform(invert_symbol(x), (-B, B - 1))
    A = np.zeros((B * n, B * n), dtype=complex)
    rhs = np.zeros((B * n, n), dtype=complex)
    for m in range(1, B + 1):
        rhs[(m - 1) * n : m * n] = -ginv.block(-m)
        for k in range(1, B + 1):
            A[(m - 1) * n : m * n, (k - 1) * n : k * n] = ginv.block(k - m)
    coeffs = np.zeros((B + 1, n, n), dtype=complex)
    coeffs[B] = np.eye(n)
    coeffs[:B] = np.linalg.solve(A, rhs).reshape(B, n, n)[::-1]
    return LaurentMatrix(n, -B, 0, coeffs)


def read_csv(path) -> LaurentMatrix:
    """Rebuild a LaurentMatrix from a CSV produced by laurent.write_csv."""
    entries = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            k, r, c, re, im = line.split(",")
            entries.append((int(k), int(r), int(c), float(re), float(im)))
    if not entries:
        raise ValueError("empty coefficient file")
    n = max(max(r, c) for _, r, c, _, _ in entries) + 1
    lo = min(e[0] for e in entries)
    hi = max(e[0] for e in entries)
    coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for k, r, c, re, im in entries:
        coeffs[k - lo, r, c] = re + 1j * im
    return LaurentMatrix(n, lo, hi, coeffs)
