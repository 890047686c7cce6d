"""Reference routines kept independent of the code under test."""

import numpy as np


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
