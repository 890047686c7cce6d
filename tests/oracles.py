"""Reference routines the tests compare against.

schur_recurrence is a loop kept independent of the vectorized code, and
schur_mpmath the same recurrence at 40 digits, a reference for values that
cancel below the round-off of a double; exp_xi_mpmath sums those values
into the pointwise exp(xi(t, L(z))) at 40 digits; rational_tau_mpmath is
the stable tau of a rational family at 40 digits, for every block size n;
tau_graded_elimination eliminates the whole nN x nN ring matrix, the
reference for the rank-r route of tau.tau_graded; gd_symbol_inverse is
the banded inverse of the deformed symbol, the wide-band reference for
the Hankel corner of tau.tau_stable; stable_tau_reference is
tau.tau_stable_report by the per-point assembly its gather plan replaced;
read_csv reads back the coefficient CSVs the command line writes;
plemelj_quadrature_folded is the contour projector's trapezoid sum as an
FFT per output column over the folded moment tensor, the reference for
its closed form.  transform_adaptive (FFT of circle samples) and
binomial_series_mpmath (the power-sum recurrence at 40 digits) are the two
references for the closed-form base symbols.
"""

import mpmath
import numpy as np

from blocktau.errors import TruncationError
from blocktau.gradedpoly import GradedPoly, gp_det
from blocktau.laurent import (
    CSV_HEADER,
    LaurentMatrix,
    block_layout,
    lm_mul,
    next_pow2,
    sample_function,
    transform,
    transform_tail,
)
from blocktau.symbols import (
    _check_schur_tail,
    base_inverse,
    base_is_polynomial,
    base_symbol,
    exp_xi_lambda,
    gd_symbol_graded,
)
from blocktau.tau import _TAIL_RADII, StableTauReport
from blocktau.toeplitz import build_TN


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
    e = exp_xi_lambda(t.negated(), spec.n, (0, band[1] - w_inv.lo))
    if not exact_only:
        _check_schur_tail(e.coeffs[:, :, 0].ravel(), spec.n * band[1] + 1)
    return lm_mul(w_inv, e, band)


def stable_tau_reference(spec, t):
    """tau.tau_stable_report by the per-point assembly its gather plan replaced.

    Both routes fold the Schur values into LaurentMatrix bands with
    exp_xi_lambda.  The finite-rank route forms the modes 1-j..j-1 of g^-1
    with lm_mul and takes build_TN's section; its est_error sums the moduli
    the same way.  The covering route lays out H(e) and T(e^-1) with
    block_matrix around V, built here from base_symbol and base_inverse.
    No gate is applied.  The value, est_error, route and M_used of the plan
    must equal these (tests/test_tau.py).
    """
    n = spec.n
    w, w_inv = base_symbol(spec), base_inverse(spec)
    if base_is_polynomial(spec):
        j = max(-w.lo, 1)
        band = (1 - j, j - 1)
        e = exp_xi_lambda(t.negated(), n, (0, band[1] - w_inv.lo))
        G = complex(np.linalg.det(w.block(0)))
        T = build_TN(lm_mul(w_inv, e, band), j).matrix
        value = G**j * complex(np.linalg.det(T))
        moduli = lm_mul(
            LaurentMatrix(n, w_inv.lo, w_inv.hi, np.abs(w_inv.coeffs)),
            LaurentMatrix(n, e.lo, e.hi, np.abs(e.coeffs)),
            band,
        )
        eps = np.finfo(float).eps
        delta = (n * w_inv.width + 2 * n * j) * eps * build_TN(moduli, j).matrix.real
        tail = _exp_tail_reference(e, t)
        delta += eps * np.linalg.norm(w_inv.coeffs, axis=(1, 2)).sum() * tail
        adj = value * np.linalg.inv(T)
        return StableTauReport(value, float(np.sum(np.abs(adj).T * delta)), "finite_rank", j)
    q = np.arange(-w_inv.lo)
    V = w.block_matrix(q - np.arange(len(q) - w.lo)[:, None])
    V = V @ w_inv.block_matrix(-(q[:, None] + q + 1))
    R, j = len(V) // n, V.shape[1] // n
    e = exp_xi_lambda(t, n, (0, j + R - 1))
    e_inv = exp_xi_lambda(t.negated(), n, (0, j - 1))
    i = np.arange(j)
    K = e.block_matrix(i[:, None] + np.arange(1, R + 1)) @ V @ e_inv.block_matrix(i[:, None] - i)
    return StableTauReport(complex(np.linalg.det(np.eye(len(K)) - K)), 0.0, "fredholm", j)


def _exp_tail_reference(e, t):
    """2 sum_k |p_k| over the Schur values column 0 of e's band holds, plus the
    Cauchy bound of the rest (tau._exp_tail at k0 = 0, read off the band)."""
    p = e.coeffs[:, :, 0].ravel()
    t_abs = np.abs(t.effective(e.n))
    log_tail = t_abs @ _TAIL_RADII ** np.arange(1, len(t_abs) + 1)[:, None]
    log_tail -= len(p) * np.log(_TAIL_RADII)
    return 2.0 * (float(np.abs(p).sum()) + float(np.exp(log_tail.min())))


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
