"""Truncated graded polynomial ring in the time variables t_1..t_K.

A GradedPoly is a polynomial in t_1, ..., t_K with complex coefficients,
where t_i carries weight i and every monomial of total weight > Q is
discarded.  Arithmetic is exact within the grading: products of monomials
whose combined weight exceeds the cutoff are dropped, which is consistent
because they can never influence coefficients of weight <= Q.

Representation: one complex coefficient vector over the monomials of
weight <= Q in t_1..t_K (for K >= Q these are the partitions of w <= Q),
ordered by weight, so the coefficients of weight <= w are a prefix of the
vector: truncation is a slice, and an operand with a larger cutoff is cut
to the smaller one.  Every coefficient is kept, however small; one that no
operation reaches stays exactly zero.  Each (K, Q) has one table set,
built on first use and cached: the basis exponents and weights, the prefix
ends, the product pairs (a product is one gather and one segmented sum),
the index maps of the derivatives d/dt_i, and the weight windows of the
products that determinants form (the pairs whose factors weigh at least
given valuations).

The module also provides the Schur polynomial family p_k(t) defined by
exp(sum_k t_k w^k) = sum_k p_k(t) w^k, numeric Schur characters via the
Weyl quotient of Vandermonde-type determinants, the Schur functions s_lam
over the basis from a cached Murnaghan-Nakayama character table (one real
block per weight), their Jacobi-Trudi determinant in the p_k (the check
of that table), power-sum times of a point multiset,
the KdV bilinear residual, the shift of times by a single spectral point,
and determinants of matrices over the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

import numpy as np

from .errors import DegenerateInput, SingularVandermonde

Exponent = tuple[int, ...]
Partition = tuple[int, ...]

_SCALARS = (int, float, complex)


def monomial_weight(exp: Exponent) -> int:
    """Total weight of an exponent tuple: sum of i * e_i with t_i of weight i."""
    return sum((i + 1) * e for i, e in enumerate(exp))


# -- the monomial basis and its tables ----------------------------------------


class _Basis:
    """Monomials of weight <= Q in t_1..t_K, ordered by weight.

    exps[k] is the exponent tuple of basis element k, weights[k] its weight
    and ends[w] the number of elements of weight <= w.  Each monomial also
    has an integer key in the mixed radix (Q // i + 1 for t_i): a product
    or quotient of monomials of weight <= Q adds or subtracts keys.
    """

    def __init__(self, K: int, Q: int) -> None:
        rows = []  # a monomial is a partition: e_i counts the parts equal to i
        for lam in partitions_upto(Q):  # by weight
            if lam and lam[0] > K:
                continue
            exp = [0] * K
            for part in lam:
                exp[part - 1] += 1
            rows.append(tuple(exp))
        self.K, self.Q, self.size = K, Q, len(rows)
        self.exps = np.array(rows, dtype=np.int64).reshape(self.size, K)
        self.weights = self.exps @ np.arange(1, K + 1)
        self.ends = np.searchsorted(self.weights, np.arange(Q + 1), side="right")
        self.index = {e: k for k, e in enumerate(rows)}
        radix = [Q // i + 1 for i in range(1, K + 1)]
        if prod(radix) >= 2**62:
            raise ValueError(f"weight cutoff Q={Q} too large for the monomial keys")
        self.place = np.cumprod([1] + radix[:-1], dtype=np.int64)[:K]
        self.keys = self.exps @ self.place
        self._sorter = np.argsort(self.keys)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Basis indices of monomial keys, all of which must be in the basis."""
        pos = np.searchsorted(self.keys, keys, sorter=self._sorter)
        return self._sorter[pos]

    def end(self, w: int) -> int:
        """Number of basis elements of weight <= w."""
        return int(self.ends[min(w, self.Q)]) if w >= 0 else 0


@lru_cache(maxsize=None)
def _basis(K: int, Q: int) -> _Basis:
    return _Basis(K, Q)


@lru_cache(maxsize=None)
def _product_table(K: int, Q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (ia, ib) of basis elements with weight sum <= Q, and run starts.

    The pairs are sorted by the index of their product monomial, and every
    basis element k heads a run (it pairs with the constant), so the
    product of a and b is np.add.reduceat(a[ia] * b[ib], starts).
    """
    basis = _basis(K, Q)
    counts = basis.ends[Q - basis.weights]
    ia = np.repeat(np.arange(basis.size), counts)
    ib = np.arange(len(ia)) - np.repeat(np.cumsum(counts) - counts, counts)
    ic = basis.lookup(basis.keys[ia] + basis.keys[ib])
    order = np.argsort(ic, kind="stable")
    starts = np.searchsorted(ic[order], np.arange(basis.size))
    return ia[order], ib[order], starts


@lru_cache(maxsize=None)
def _derivative_table(K: int, Q: int, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, e): d/dt_i sends e * coefficient src to coefficient dst."""
    basis = _basis(K, Q)
    src = np.flatnonzero(basis.exps[:, i - 1])
    dst = basis.lookup(basis.keys[src] - basis.place[i - 1])
    return src, dst, basis.exps[src, i - 1]


@lru_cache(maxsize=None)
def _exp_coefficients(K: int, Q: int) -> np.ndarray:
    """Coefficient 1/prod(e_i!) of each basis monomial t^e in exp(t_1 + ... + t_K)."""
    exps = _basis(K, Q).exps
    fact = np.array([float(factorial(e)) for e in range(Q + 1)])
    return 1.0 / np.prod(fact[exps], axis=1)


_PIVOT_GROWTH = 1e3  # gp_det divides only by pivots that amplify round-off less


def _mul(a: np.ndarray, b: np.ndarray, K: int, Q: int) -> np.ndarray:
    """Truncated product of coefficient vectors over the (K, Q) basis."""
    ia, ib, starts = _product_table(K, Q)
    prod = a.take(ia)
    prod *= b.take(ib)
    return np.add.reduceat(prod, starts)


def _inverse(a: np.ndarray, K: int, Q: int) -> np.ndarray:
    """Inverse of a coefficient vector with nonzero constant term.

    Newton's step in correction form, b <- b - b (a b - 1), doubles the
    number of exact weight layers (Brent & Kung 1978); each step runs at
    the cutoff it can make exact.  The start 1 / a_0 is exact below the
    lowest weight of a - a_0.  The correction a b - 1 is zeroed through
    the weight already exact, so a step writes only the layers it makes
    exact and never rewrites a lower one: the inverse at a cutoff Q' < Q is
    bit for bit the first end(Q') coefficients of the one at Q.
    """
    basis = _basis(K, Q)
    b = np.zeros(basis.size, dtype=complex)
    b[0] = 1.0 / a[0]
    tail = np.flatnonzero(a[1 : basis.size])
    w = int(basis.weights[tail[0] + 1]) - 1 if len(tail) else Q  # b is exact through w
    while w < Q:
        exact = basis.end(w)
        w = min(2 * w + 1, Q)
        n = basis.end(w)
        correction = _mul(a[:n], b[:n], K, w)
        correction[:exact] = 0.0  # a b - 1 vanishes through the exact layers
        b[exact:n] -= _mul(b[:n], correction, K, w)[exact:]
    return b


@lru_cache(maxsize=None)
def _window(K: int, Q: int, va: int, vb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The pairs of _product_table(K, Q) whose factors weigh at least va and vb.

    Returns (ia, ib, ic, size): the kept pairs in table order, the product
    monomial of each, and the basis size.  The pairs end in a spare (0, 0)
    whose product goes to the slot ic = size past the basis: numpy
    multiplies a one-element complex array on another path than a longer
    one, with a different last bit, and the spare keeps every window on the
    path of the full one.
    """
    ia, ib, starts = _product_table(K, Q)
    weights = _basis(K, Q).weights
    keep = (weights[ia] >= va) & (weights[ib] >= vb)
    ic = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(ia)))
    return (
        np.append(ia[keep], 0),
        np.append(ib[keep], 0),
        np.append(ic[keep], len(starts)),
        len(starts),
    )


def _window_mul(a: np.ndarray, b: np.ndarray, K: int, Q: int, va: int, vb: int) -> np.ndarray:
    """Truncated product of vectors that vanish below the weights va and vb.

    Only the pairs of the window are formed, and each coefficient sums its
    pairs one by one in table order (np.add.at), so the product is bit for
    bit the one of the full window (0, 0): the pairs left out are exact
    zeros.  a needs the coefficients of weight <= Q - vb and b those of
    weight <= Q - va.
    """
    ia, ib, ic, size = _window(K, Q, va, vb)
    prod = a.take(ia)
    prod *= b.take(ib)
    out = np.zeros(size + 1, dtype=complex)
    np.add.at(out, ic, prod)
    return out[:size]


# -- the ring element -----------------------------------------------------------


@dataclass(eq=False)
class GradedPoly:
    """Polynomial in t_1..t_K truncated at total weight Q.

    coeffs is the coefficient vector over the weight-ordered monomial basis
    of (K, Q); a shorter vector gives the lowest-weight coefficients and
    the rest are zero.  The vector is not copied.
    """

    K: int
    Q: int
    coeffs: np.ndarray | None = None

    def __post_init__(self) -> None:
        size = _basis(self.K, self.Q).size
        if self.coeffs is None:
            self.coeffs = np.zeros(size, dtype=complex)
            return
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or len(c) > size:
            raise ValueError(
                f"coefficient vector of shape {c.shape} for a basis of {size} monomials"
            )
        if len(c) < size:
            c = np.concatenate([c, np.zeros(size - len(c), dtype=complex)])
        self.coeffs = c

    # -- ring operations ---------------------------------------------------

    def _common(self, other) -> tuple[int, np.ndarray, np.ndarray]:
        """Both coefficient vectors cut to the smaller cutoff."""
        other = _coerce(other, self.K, self.Q)
        _check_compatible(self, other)
        Q = min(self.Q, other.Q)
        n = _basis(self.K, Q).size
        return Q, self.coeffs[:n], other.coeffs[:n]

    def __add__(self, other):
        Q, a, b = self._common(other)
        return GradedPoly(self.K, Q, a + b)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.K, self.Q, -self.coeffs)

    def __sub__(self, other):
        Q, a, b = self._common(other)
        return GradedPoly(self.K, Q, a - b)

    def __rsub__(self, other):
        Q, a, b = self._common(other)
        return GradedPoly(self.K, Q, b - a)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return GradedPoly(self.K, self.Q, self.coeffs * other)
        Q, a, b = self._common(other)
        return GradedPoly(self.K, Q, _mul(a, b, self.K, Q))

    __rmul__ = __mul__

    def derivative(self, i: int) -> "GradedPoly":
        """Partial derivative with respect to t_i (1-based index)."""
        if not 1 <= i <= self.K:
            raise IndexError(f"time index {i} outside 1..{self.K}")
        src, dst, e = _derivative_table(self.K, self.Q, i)
        out = np.zeros_like(self.coeffs)
        out[dst] = self.coeffs[src] * e
        return GradedPoly(self.K, self.Q, out)

    def invert(self) -> "GradedPoly":
        """Multiplicative inverse; requires a nonzero constant term."""
        if abs(self.coeffs[0]) == 0.0:
            raise DegenerateInput("cannot invert: constant term is zero")
        return GradedPoly(self.K, self.Q, _inverse(self.coeffs, self.K, self.Q))

    # -- queries -----------------------------------------------------------

    @property
    def weights(self) -> np.ndarray:
        """Weight of each basis monomial, aligned with coeffs."""
        return _basis(self.K, self.Q).weights

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def constant_term(self) -> complex:
        return complex(self.coeffs[0])

    def coefficients_upto(self, w: int | None = None) -> np.ndarray:
        """Coefficients of the monomials of weight <= w (all when w is None)."""
        if w is None:
            return self.coeffs
        return self.coeffs[: _basis(self.K, self.Q).end(w)]

    def truncate(self, Q: int) -> "GradedPoly":
        """Copy with cutoff moved to Q, dropping heavier monomials."""
        return GradedPoly(self.K, Q, self.coefficients_upto(Q).copy())

    def terms(self) -> dict[Exponent, complex]:
        """The nonzero coefficients keyed by exponent tuple, by weight."""
        exps = _basis(self.K, self.Q).exps
        return {
            tuple(int(e) for e in exps[k]): complex(self.coeffs[k])
            for k in np.flatnonzero(self.coeffs)
        }

    def __repr__(self) -> str:
        terms = self.terms()
        if not terms:
            return f"GradedPoly(K={self.K}, Q={self.Q}, 0)"
        parts = []
        for exp, c in terms.items():
            mono = "*".join(
                f"t{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            parts.append(f"({c:.6g})" + (f"*{mono}" if mono else ""))
        return f"GradedPoly(K={self.K}, Q={self.Q}, " + " + ".join(parts) + ")"


def _coerce(x, K: int, Q: int) -> GradedPoly:
    if isinstance(x, GradedPoly):
        return x
    if isinstance(x, _SCALARS):
        return gp_const(K, Q, x)
    raise TypeError(f"cannot interpret {type(x).__name__} as GradedPoly")


def _check_compatible(a: GradedPoly, b: GradedPoly) -> None:
    if a.K != b.K:
        raise ValueError(f"mixed time counts K={a.K} and K={b.K}")


# -- constructors ----------------------------------------------------------


def gp_const(K: int, Q: int, value: complex) -> GradedPoly:
    """Constant polynomial."""
    return GradedPoly(K, Q, np.array([value], dtype=complex))


def gp_zero(K: int, Q: int) -> GradedPoly:
    return GradedPoly(K, Q)


def gp_time(K: int, Q: int, i: int) -> GradedPoly:
    """The generator t_i (1-based)."""
    if not 1 <= i <= K:
        raise IndexError(f"time index {i} outside 1..{K}")
    exp = [0] * K
    exp[i - 1] = 1
    return gp_from_terms(K, Q, {tuple(exp): 1.0})


def gp_from_terms(K: int, Q: int, terms: dict) -> GradedPoly:
    """Polynomial from {exponent tuple: coefficient}; weights above Q drop out."""
    basis = _basis(K, Q)
    out = np.zeros(basis.size, dtype=complex)
    for exp, c in terms.items():
        exp = tuple(exp)
        if len(exp) != K:
            raise ValueError(f"exponent tuple {exp} has length != K={K}")
        k = basis.index.get(exp)
        if k is not None:
            out[k] = c
    return GradedPoly(K, Q, out)


def evaluate(p: GradedPoly, tvals) -> complex:
    """Numeric value of p at the time vector tvals (length K)."""
    t = np.asarray(list(tvals), dtype=complex)
    if len(t) != p.K:
        raise ValueError(f"expected {p.K} time values, got {len(t)}")
    nz = np.flatnonzero(p.coeffs)
    powers = t[:, None] ** np.arange(p.Q + 1)  # powers[i, e] = t_{i+1}^e
    monomials = np.prod(powers[np.arange(p.K), _basis(p.K, p.Q).exps[nz]], axis=1)
    return complex(monomials @ p.coeffs[nz])


@lru_cache(maxsize=None)
def _alive(K: int, Q: int, dead: tuple[int, ...]) -> np.ndarray:
    return ~_basis(K, Q).exps[:, [i - 1 for i in dead]].any(axis=1)


def zero_times(p: GradedPoly, indices) -> GradedPoly:
    """Substitute t_i = 0 for every i in indices (1-based)."""
    return GradedPoly(p.K, p.Q, np.where(_alive(p.K, p.Q, tuple(indices)), p.coeffs, 0.0))


def negate_times(p: GradedPoly) -> GradedPoly:
    """p(-t): the coefficient of t^e changes sign with the degree sum(e)."""
    odd = _basis(p.K, p.Q).exps.sum(axis=1) % 2 == 1
    return GradedPoly(p.K, p.Q, np.where(odd, -p.coeffs, p.coeffs))


# -- Schur polynomials and characters --------------------------------------


@lru_cache(maxsize=None)
def _schur_layers(K: int, Q: int) -> tuple[GradedPoly, ...]:
    weights, coeffs = _basis(K, Q).weights, _exp_coefficients(K, Q)
    layers = tuple(
        GradedPoly(K, Q, np.where(weights == k, coeffs, 0.0)) for k in range(Q + 1)
    )
    for p in layers:
        p.coeffs.flags.writeable = False  # shared by every caller
    return layers


def schur_sequence(K: int, Q: int) -> list[GradedPoly]:
    """p_0..p_Q with exp(sum t_k w^k) = sum p_k w^k.

    p_k is the weight-k layer of exp(sum t_i): the monomial t^e of weight k
    has coefficient 1/prod(e_i!).  The polynomials are shared between calls;
    their coefficient vectors are read-only.
    """
    return list(_schur_layers(K, Q))


def normalize_partition(l) -> Partition:
    """Strip trailing zeros and validate weak decrease / non-negativity."""
    parts = list(l)
    while parts and parts[-1] == 0:
        parts.pop()
    for a, b in zip(parts, parts[1:]):
        if b > a:
            raise ValueError(f"not weakly decreasing: {tuple(l)}")
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {tuple(l)}")
    return tuple(parts)


def partitions_upto(max_weight: int):
    """Yield all partitions of total weight 1..max_weight (and the empty one).

    The order, by weight, is the order of the monomial basis.
    """
    yield ()

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        for part in range(min(remaining, largest), 0, -1):
            cur = prefix + (part,)
            yield cur
            yield from rec(remaining - part, part, cur)

    for w in range(1, max_weight + 1):
        for lam in rec(w, w, ()):
            if sum(lam) == w:
                yield lam


def character(l, X) -> complex:
    """Numeric Schur character s_l(x_1..x_m) by the Weyl determinant quotient."""
    lam = normalize_partition(l)
    xs = np.asarray(list(X), dtype=complex)
    m = len(xs)
    if len(lam) > m:
        return 0.0 + 0.0j  # more rows than variables
    if m == 0:
        return 1.0 + 0.0j if not lam else 0.0 + 0.0j
    scale = max(1.0, float(np.max(np.abs(xs))))
    for i in range(m):
        for j in range(i + 1, m):
            if abs(xs[i] - xs[j]) < 1e-12 * scale:
                raise SingularVandermonde(
                    f"points {i} and {j} coincide: {xs[i]} ~ {xs[j]}"
                )
    padded = list(lam) + [0] * (m - len(lam))
    num = np.array([[x ** (padded[j] + m - 1 - j) for j in range(m)] for x in xs])
    den = np.array([[x ** (m - 1 - j) for j in range(m)] for x in xs])
    return complex(np.linalg.det(num) / np.linalg.det(den))


@lru_cache(maxsize=None)
def _basis_parts(Q: int) -> np.ndarray:
    """Parts of each (Q, Q) basis monomial as a partition, largest first.

    Row k is padded with zeros to length Q; part j is the number of
    weights i with more than j parts >= i.  Read-only.
    """
    at_least = np.cumsum(_basis(Q, Q).exps[:, ::-1], axis=1)[:, ::-1]
    parts = (at_least[:, :, None] > np.arange(Q)).sum(axis=1)
    parts.flags.writeable = False
    return parts


@lru_cache(maxsize=None)
def _character_table(Q: int) -> tuple[np.ndarray, ...]:
    """Coefficients of the Schur functions s_lam over the (Q, Q) basis.

    Block w is the real (p(w), p(w)) array whose row lam and column mu, both
    partitions of w in basis order (a monomial t^e is the cycle type with
    e_k parts k), hold chi^lam(mu) / prod_k e_k!: the coefficient of t^e in
    s_lam.  chi comes from the Murnaghan-Nakayama rule on beta-numbers:
    bead i of lam sits at lam_i + Q - i, an r-rim hook moves one bead down r
    places to an empty one, with sign (-1)^(beads jumped).  Removing a
    largest part r from mu, the columns with largest part r are R_r times
    the weight-(w - r) block, R_r the signed rim-hook matrix.  The
    characters are integers of size at most sqrt(w!), so they and every
    partial sum of R_r times a block are exact in doubles through w = 27;
    each entry is scaled by 1 / prod_k e_k! once.  The blocks are read-only.
    """
    basis = _basis(Q, Q)
    ends = np.concatenate([[0], basis.ends])  # weight w runs ends[w]:ends[w + 1]
    parts = _basis_parts(Q)
    occupied = np.zeros((basis.size, 2 * Q), dtype=bool)
    np.put_along_axis(occupied, parts + np.arange(Q - 1, -1, -1), True, axis=1)
    below = np.cumsum(occupied, axis=1)  # beads at or below each place
    # a bead's part is the number of empty places below it; placed[p] is the
    # key of a part p (0 for p = 0), so a partition's key is a sum over beads
    placed = np.concatenate([[0], basis.place])
    hooks = []  # per r: (lam, nu) basis indices and sign of each r-rim hook
    for r in range(1, Q + 1):
        lam, top = np.nonzero(occupied[:, r:] & ~occupied[:, :-r])
        top += r
        moved = occupied[lam]
        moved[np.arange(len(lam)), top] = False
        moved[np.arange(len(lam)), top - r] = True
        empty_below = np.cumsum(~moved, axis=1)
        nu = basis.lookup((moved * placed[empty_below]).sum(axis=1))
        jumped = below[lam, top - 1] - below[lam, top - r]
        hooks.append((lam, nu, 1.0 - 2.0 * (jumped % 2)))
    chi = [np.ones((1, 1))]
    for w in range(1, Q + 1):
        lo, hi = ends[w], ends[w + 1]
        largest = parts[lo:hi, 0]
        rest = basis.lookup(basis.keys[lo:hi] - basis.place[largest - 1])  # mu less one
        block = np.zeros((hi - lo, hi - lo))
        for r in range(1, w + 1):
            cols = np.flatnonzero(largest == r)
            lam, nu, sign = hooks[r - 1]
            sel = slice(*np.searchsorted(lam, ends[w : w + 2]))
            R = np.zeros((hi - lo, ends[w - r + 1] - ends[w - r]))
            R[lam[sel] - lo, nu[sel] - ends[w - r]] = sign[sel]
            block[:, cols] = R @ chi[w - r][:, rest[cols] - ends[w - r]]
        chi.append(block)
    scale = _exp_coefficients(Q, Q)  # 1 / prod_k e_k! of each column
    table = []
    for w, block in enumerate(chi):
        X = block * scale[ends[w] : ends[w + 1]]
        X.flags.writeable = False
        table.append(X)
    return tuple(table)


def jacobi_trudi(l, K: int, Q: int) -> GradedPoly:
    """Character of a partition as a determinant in the Schur polynomials.

    Returns det[ p_{l_j - j + i} ]_{i,j=1..r} over the graded ring, with
    r = len(l) after stripping trailing zeros; the empty partition gives 1.
    """
    lam = normalize_partition(l)
    r = len(lam)
    if r == 0:
        return gp_const(K, Q, 1.0)
    ps = schur_sequence(K, max(Q, sum(lam)))
    zero = gp_zero(K, max(Q, sum(lam)))

    def p(k: int) -> GradedPoly:
        return ps[k] if 0 <= k < len(ps) else zero

    rows = [[p(lam[j] - (j + 1) + (i + 1)) for j in range(r)] for i in range(r)]
    return gp_det(rows).truncate(Q)


def miwa_times(X, K: int) -> list[complex]:
    """Power-sum times of a point multiset: t_k = (1/k) sum_i x_i^k."""
    xs = list(X)
    return [sum(x**k for x in xs) / k for k in range(1, K + 1)]


# -- determinants over the ring --------------------------------------------


def _gp_det_free(rows: list[list[GradedPoly]], K: int, Q: int) -> GradedPoly:
    """Division-free determinant: row-by-row expansion memoized on column sets.

    Processes rows in order keeping, for every set of already-used columns,
    the signed minor accumulated so far.  Cost ~ m * 2^m ring products, so it
    is reserved for matrices whose pivots are not ring units.
    """
    m = len(rows)
    minors: dict[int, GradedPoly] = {0: gp_const(K, Q, 1.0)}
    for i in range(m):
        new: dict[int, GradedPoly] = {}
        for mask, val in minors.items():
            if val.is_zero():
                continue
            parity = 0  # used columns right of j: the inversions of placing j
            for j in reversed(range(m)):
                bit = 1 << j
                if mask & bit:
                    parity ^= 1
                    continue
                entry = rows[i][j]
                if not entry.is_zero():
                    term = entry * val if parity == 0 else entry * val * (-1.0)
                    key = mask | bit
                    acc = new.get(key)
                    new[key] = term if acc is None else acc + term
        minors = new
        if not minors:
            return gp_zero(K, Q)
    return minors.get((1 << m) - 1, gp_zero(K, Q))


def _amplifies(a: np.ndarray, weights: np.ndarray, Q: int) -> bool:
    """Whether ||a||_1 ||a^-1||_1 may pass _PIVOT_GROWTH, for a unit a.

    Elimination by a pivot multiplies the round-off it carries by about
    this factor.  The coefficient 1-norm is submultiplicative, so layer w
    of a^-1 is bounded by beta_w of the majorant series
    1 / (|a_0| - sum_w alpha_w x^w), alpha_w the 1-norm of layer w of a.
    When sum_w alpha_w < |a_0| the whole series sums to at most
    1 / (|a_0| - sum_w alpha_w), and the layers are not formed.
    """
    mag = np.abs(a)
    norm = float(mag.sum())
    rest = norm - mag[0]
    if rest < mag[0] and norm <= _PIVOT_GROWTH * (mag[0] - rest):
        return False
    alpha = np.bincount(weights, mag, minlength=Q + 1).tolist()
    beta = [1.0 / alpha[0]]
    for w in range(1, Q + 1):
        beta.append(sum(alpha[j] * beta[w - j] for j in range(1, w + 1)) * beta[0])
    return norm * sum(beta) > _PIVOT_GROWTH


def _valuations(coeffs: np.ndarray, weights: np.ndarray, Q: int) -> np.ndarray:
    """Lowest weight with a nonzero coefficient along the last axis; Q + 1 for zero."""
    nz = np.concatenate([coeffs != 0, np.ones(coeffs.shape[:-1] + (1,), bool)], axis=-1)
    return np.append(weights, Q + 1)[nz.argmax(axis=-1)]


def gp_det(rows: list[list[GradedPoly]]) -> GradedPoly:
    """Determinant of a square matrix over the graded ring.

    The entries are cut to the smallest cutoff among them and stacked into
    the (m, m, basis) coefficient array that _det eliminates.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("empty matrix")
    for r in rows:
        if len(r) != m:
            raise ValueError("matrix is not square")
    K, Q = rows[0][0].K, min(min(e.Q for e in r) for r in rows)
    size = _basis(K, Q).size
    return GradedPoly(K, Q, _det(np.array([[e.coeffs[:size] for e in r] for r in rows]), K, Q))


def _det(work: np.ndarray, K: int, Q: int) -> np.ndarray:
    """Determinant coefficients of an (m, m, basis) array over the (K, Q) ring.

    Cofactor expansion for sizes <= 3, where it is both faster and
    division-free.  Larger sizes go through Gaussian elimination with
    partial pivoting on constant-term magnitude; division happens only by
    pivots, which must be ring units (nonzero constant term).  It falls back
    to a memoized division-free expansion (up to size 12) when no unit pivot
    exists or the chosen one would amplify round-off by more than
    _PIVOT_GROWTH (`_amplifies`: a small constant term under heavy higher
    weights).  work is overwritten.

    Each elimination step reads the valuations (lowest weight present) of
    the pivot row and of the pivot column.  A factor of valuation v times a
    pivot-row entry of valuation u is formed only when v + u <= Q, and only
    over its weight window (_window_mul): the pairs whose factors weigh at
    least v and u.  No factor is read above weight Q - u_min, u_min the
    lowest pivot-row valuation, so the factors are formed to that weight
    and the pivot is inverted to Q - u_min - v_min (_inverse returns the
    bitwise prefix of the full inverse).  Every product left out, and every
    pair left out of a window, is an exact zero, and the windows sum their
    pairs in table order, so the determinant is bit for bit the one formed
    with every valuation taken as 0.  Matrices with a weight filtration,
    such as I plus a matrix whose columns start at rising weights taken
    heaviest first, form few of their pairs.
    """
    m = len(work)
    if m == 1:
        return work[0, 0]
    if m == 2:
        return _mul(work[0, 0], work[1, 1], K, Q) - _mul(work[0, 1], work[1, 0], K, Q)
    if m == 3:
        (a, b, c), (d, e, f), (g, h, i) = work
        return (
            _mul(a, _mul(e, i, K, Q) - _mul(f, h, K, Q), K, Q)
            - _mul(b, _mul(d, i, K, Q) - _mul(f, g, K, Q), K, Q)
            + _mul(c, _mul(d, h, K, Q) - _mul(e, g, K, Q), K, Q)
        )

    weights = _basis(K, Q).weights
    val = _valuations(work, weights, Q).tolist()
    sign = 1
    det = np.zeros(len(weights), dtype=complex)
    det[0] = 1.0
    for col in range(m):
        lead = np.abs(work[col:, col, 0])
        pivot_row = col + int(np.argmax(lead))
        unit = lead[pivot_row - col] > 0.0
        if not unit and not work[col:, col].any():
            return np.zeros_like(det)  # structurally singular: a zero column
        if not unit or _amplifies(work[pivot_row, col], weights, Q):
            if m <= 12:
                # no unit pivot in this column, or one whose inverse would
                # amplify round-off: finish division-free on the remaining
                # minor and fold in the eliminated prefix
                tail = [
                    [GradedPoly(K, Q, work[r, c]) for c in range(col, m)]
                    for r in range(col, m)
                ]
                return _mul(det * sign, _gp_det_free(tail, K, Q).coeffs, K, Q)
            if not unit:
                raise DegenerateInput(
                    "graded elimination needs a pivot with nonzero constant term"
                )
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            val[col], val[pivot_row] = val[pivot_row], val[col]
            sign = -sign
        pivot = work[col, col]
        det = _mul(det, pivot, K, Q)
        top = Q - min(val[col][col + 1 :], default=Q + 1)  # no factor is read above top
        live = [r for r in range(col + 1, m) if val[r][col] <= top]
        if not live:
            continue
        inverse = _inverse(pivot, K, top - min(val[r][col] for r in live))
        for r in live:
            v = val[r][col]
            factor = _window_mul(work[r, col], inverse, K, top, v, 0)
            for c in range(col + 1, m):
                u = val[col][c]
                if v + u <= Q:
                    work[r, c] -= _window_mul(factor, work[col, c], K, Q, v, u)
                    val[r][c] = min(val[r][c], v + u)  # a bound: the update may cancel
    return det * sign


# -- KdV bilinear residual --------------------------------------------------


def hirota_kdv_residual(tau: GradedPoly) -> GradedPoly:
    """Residual of the KdV bilinear identity applied to tau.

    Computes 2*(tau*D^4 tau - 4*D tau*D^3 tau + 3*(D^2 tau)^2)
           - 8*(tau*d3 D tau - D tau*d3 tau)
    with D = d/dt_1, and truncates the result to weight Q-4: heavier
    coefficients receive contributions from tau coefficients beyond the
    cutoff and would be meaningless.
    """
    if tau.K < 3:
        raise DegenerateInput("KdV residual needs at least times t_1..t_3")
    d1 = tau.derivative(1)
    d2 = d1.derivative(1)
    d3 = d2.derivative(1)
    d4 = d3.derivative(1)
    s1 = tau.derivative(3)
    s1d1 = s1.derivative(1)
    quartic = tau * d4 - 4.0 * (d1 * d3) + 3.0 * (d2 * d2)
    mixed = tau * s1d1 - d1 * s1
    return (2.0 * quartic - 8.0 * mixed).truncate(max(tau.Q - 4, 0))


# -- time shift by a single spectral point ----------------------------------


def sato_shift(tau: GradedPoly, orders: int) -> tuple[GradedPoly, ...]:
    """Expansion of tau(t - [1/z]) in powers of 1/z, [1/z]_i = z^-i / i.

    Returns [c_0, ..., c_orders] with tau(t - [1/z]) = sum_m c_m z^-m up to
    the requested order.  c_m is the Schur polynomial p_m evaluated at the
    derivation vector (-d/dt_1, -(1/2) d/dt_2, ...), applied to tau: the
    sum over the monomials s^e of weight m of
    prod_i (-1/i)^e_i / e_i! times d^e tau.
    """
    if orders < 0:
        raise ValueError("orders must be >= 0")
    aux = _basis(orders, orders)  # the monomials s^e of weight <= orders
    scale = _exp_coefficients(orders, orders) * np.prod(
        (-1.0 / np.arange(1, orders + 1)) ** aux.exps, axis=1
    )
    # derived[k] = d^e tau for e = aux.exps[k]: one derivative of the
    # lighter, earlier monomial with the last nonzero exponent of e lowered
    derived = [tau]
    for k in range(1, aux.size):
        e = [int(x) for x in aux.exps[k]]
        i = max(j for j, x in enumerate(e, start=1) if x)
        e[i - 1] -= 1
        parent = derived[aux.index[tuple(e)]]
        derived.append(parent.derivative(i) if i <= tau.K else gp_zero(tau.K, tau.Q))
    stacked = np.array([d.coeffs for d in derived])
    layers = [slice(aux.end(m - 1), aux.end(m)) for m in range(orders + 1)]
    return tuple(
        GradedPoly(tau.K, tau.Q, scale[layer] @ stacked[layer]) for layer in layers
    )

