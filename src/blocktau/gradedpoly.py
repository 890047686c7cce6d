"""Truncated graded polynomial ring in the time variables t_1..t_K.

A GradedPoly is a polynomial in t_1, ..., t_K with complex coefficients,
where t_i carries weight i and every monomial of total weight > Q is
discarded.  Arithmetic is exact within the grading: products of monomials
whose combined weight exceeds the cutoff are dropped, which is consistent
because they can never influence coefficients of weight <= Q.

Representation: a dict mapping exponent tuples (e_1, ..., e_K) to complex
coefficients.  Canonical form drops entries whose magnitude is below 1e-14
of the largest coefficient.

The module also provides the Schur polynomial family p_k(t) defined by
exp(sum_k t_k w^k) = sum_k p_k(t) w^k, numeric Schur characters via the
Weyl quotient of Vandermonde-type determinants, the determinant expression
of a character in terms of the p_k, power-sum times of a point multiset,
the KdV bilinear residual, the shift of times by a single spectral point,
and determinants of matrices over the ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

Exponent = tuple[int, ...]
Partition = tuple[int, ...]

DROP_TOL = 1e-14   # canonical form: drop coeffs below DROP_TOL * max |coeff|

_weight_cache: dict[Exponent, int] = {}


def monomial_weight(exp: Exponent) -> int:
    """Total weight of an exponent tuple: sum of i * e_i with t_i of weight i."""
    w = _weight_cache.get(exp)
    if w is None:
        w = sum((i + 1) * e for i, e in enumerate(exp) if e)
        _weight_cache[exp] = w
    return w


@dataclass
class GradedPoly:
    """Polynomial in t_1..t_K truncated at total weight Q."""

    K: int
    Q: int
    coeffs: dict[Exponent, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.coeffs = _canonical(self.K, self.Q, self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.K, self.Q)
        _check_compatible(self, other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0.0) + c
        return GradedPoly(self.K, min(self.Q, other.Q), out)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.K, self.Q, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other, self.K, self.Q))

    def __rsub__(self, other):
        return _coerce(other, self.K, self.Q) - self

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GradedPoly(
                self.K, self.Q, {e: c * other for e, c in self.coeffs.items()}
            )
        _check_compatible(self, other)
        Q = min(self.Q, other.Q)
        out: dict[Exponent, complex] = {}
        for ea, ca in self.coeffs.items():
            wa = monomial_weight(ea)
            for eb, cb in other.coeffs.items():
                if wa + monomial_weight(eb) > Q:
                    continue
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, 0.0) + ca * cb
        return GradedPoly(self.K, Q, out)

    __rmul__ = __mul__

    def derivative(self, i: int) -> "GradedPoly":
        """Partial derivative with respect to t_i (1-based index)."""
        if not 1 <= i <= self.K:
            raise IndexError(f"time index {i} outside 1..{self.K}")
        out: dict[Exponent, complex] = {}
        for exp, c in self.coeffs.items():
            e = exp[i - 1]
            if e == 0:
                continue
            new = list(exp)
            new[i - 1] = e - 1
            key = tuple(new)
            out[key] = out.get(key, 0.0) + c * e
        return GradedPoly(self.K, self.Q, out)

    def invert(self) -> "GradedPoly":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs.get((0,) * self.K, 0.0)
        if abs(c0) == 0.0:
            from .errors import DegenerateInput

            raise DegenerateInput("cannot invert: constant term is zero")
        # solve weight by weight: b_w = -(1/a_0) * sum_{u>=1} a_u b_{w-u}
        a_by_weight: dict[int, dict[Exponent, complex]] = {}
        for exp, c in self.coeffs.items():
            a_by_weight.setdefault(monomial_weight(exp), {})[exp] = c
        zero = (0,) * self.K
        b: dict[Exponent, complex] = {zero: 1.0 / c0}
        for w in range(1, self.Q + 1):
            layer: dict[Exponent, complex] = {}
            for u, a_u in a_by_weight.items():
                if u == 0 or u > w:
                    continue
                for eb, cb in b.items():
                    if monomial_weight(eb) != w - u:
                        continue
                    for ea, ca in a_u.items():
                        exp = tuple(x + y for x, y in zip(ea, eb))
                        layer[exp] = layer.get(exp, 0.0) + ca * cb
            for exp, c in layer.items():
                b[exp] = b.get(exp, 0.0) - c / c0
        return GradedPoly(self.K, self.Q, b)

    # -- queries -----------------------------------------------------------

    def constant_term(self) -> complex:
        return self.coeffs.get((0,) * self.K, 0.0)

    def coefficient(self, exp: Exponent) -> complex:
        return self.coeffs.get(tuple(exp), 0.0)

    def truncate(self, Q: int) -> "GradedPoly":
        """Copy with cutoff lowered to Q, dropping heavier monomials."""
        kept = {e: c for e, c in self.coeffs.items() if monomial_weight(e) <= Q}
        return GradedPoly(self.K, Q, kept)

    def max_weight(self) -> int:
        """Largest monomial weight present (0 for the zero polynomial)."""
        return max((monomial_weight(e) for e in self.coeffs), default=0)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"GradedPoly(K={self.K}, Q={self.Q}, 0)"
        parts = []
        for exp in sorted(self.coeffs, key=lambda e: (monomial_weight(e), e)):
            c = self.coeffs[exp]
            mono = "*".join(
                f"t{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            parts.append(f"({c:.6g})" + (f"*{mono}" if mono else ""))
        return f"GradedPoly(K={self.K}, Q={self.Q}, " + " + ".join(parts) + ")"


def _canonical(K: int, Q: int, coeffs: dict) -> dict[Exponent, complex]:
    """Drop out-of-band and negligibly small coefficients."""
    cleaned: dict[Exponent, complex] = {}
    top = max((abs(c) for c in coeffs.values()), default=0.0)
    floor = top * DROP_TOL
    for exp, c in coeffs.items():
        exp = tuple(exp)
        if len(exp) != K:
            raise ValueError(f"exponent tuple {exp} has length != K={K}")
        if monomial_weight(exp) > Q:
            continue
        if abs(c) <= floor:
            continue
        cleaned[exp] = complex(c)
    return cleaned


def _coerce(x, K: int, Q: int) -> GradedPoly:
    if isinstance(x, GradedPoly):
        return x
    if isinstance(x, (int, float, complex)):
        return gp_const(K, Q, x)
    raise TypeError(f"cannot interpret {type(x).__name__} as GradedPoly")


def _check_compatible(a: GradedPoly, b: GradedPoly) -> None:
    if a.K != b.K:
        raise ValueError(f"mixed time counts K={a.K} and K={b.K}")


# -- constructors ----------------------------------------------------------


def gp_const(K: int, Q: int, value: complex) -> GradedPoly:
    """Constant polynomial."""
    return GradedPoly(K, Q, {(0,) * K: complex(value)})


def gp_zero(K: int, Q: int) -> GradedPoly:
    return GradedPoly(K, Q, {})


def gp_time(K: int, Q: int, i: int) -> GradedPoly:
    """The generator t_i (1-based)."""
    if not 1 <= i <= K:
        raise IndexError(f"time index {i} outside 1..{K}")
    exp = [0] * K
    exp[i - 1] = 1
    return GradedPoly(K, Q, {tuple(exp): 1.0})


def evaluate(p: GradedPoly, tvals) -> complex:
    """Numeric value of p at the time vector tvals (length K)."""
    tvals = list(tvals)
    if len(tvals) != p.K:
        raise ValueError(f"expected {p.K} time values, got {len(tvals)}")
    total = 0.0 + 0.0j
    for exp, c in p.coeffs.items():
        term = c
        for t, e in zip(tvals, exp):
            if e:
                term *= t**e
        total += term
    return total


def zero_times(p: GradedPoly, indices) -> GradedPoly:
    """Substitute t_i = 0 for every i in indices (1-based)."""
    dead = {i - 1 for i in indices}
    kept = {
        exp: c
        for exp, c in p.coeffs.items()
        if all(exp[j] == 0 for j in dead)
    }
    return GradedPoly(p.K, p.Q, kept)


# -- Schur polynomials and characters --------------------------------------


def schur_sequence(K: int, Q: int) -> list[GradedPoly]:
    """p_0..p_Q with exp(sum t_k w^k) = sum p_k w^k.

    Uses the recurrence k*p_k = sum_{i=1..min(k,K)} i*t_i*p_{k-i}.  Each p_k
    is weight-homogeneous of weight exactly k.
    """
    seq = [gp_const(K, Q, 1.0)]
    times = [gp_time(K, Q, i) for i in range(1, K + 1)]
    for k in range(1, Q + 1):
        acc = gp_zero(K, Q)
        for i in range(1, min(k, K) + 1):
            acc = acc + (times[i - 1] * seq[k - i]) * i
        seq.append(acc * (1.0 / k))
    return seq


def schur_sequence_reduced(K: int, Q: int, n: int) -> list[GradedPoly]:
    """Schur sequence with every t_i, i divisible by n, frozen to zero."""
    dead = [i for i in range(1, K + 1) if i % n == 0]
    return [zero_times(p, dead) for p in schur_sequence(K, Q)]


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


def partitions_upto(max_weight: int, max_len: int | None = None):
    """Yield all partitions of total weight 1..max_weight (and the empty one)."""
    yield ()

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]):
        for part in range(min(remaining, largest), 0, -1):
            cur = prefix + (part,)
            if max_len is None or len(cur) <= max_len:
                yield cur
                yield from rec(remaining - part, part, cur)

    for w in range(1, max_weight + 1):
        for lam in rec(w, w, ()):
            if sum(lam) == w:
                yield lam


def character(l, X) -> complex:
    """Numeric Schur character s_l(x_1..x_m) by the Weyl determinant quotient."""
    import numpy as np

    from .errors import SingularVandermonde

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
            if not val.coeffs:
                continue
            parity = 0
            for j in range(m):
                bit = 1 << j
                if mask & bit:
                    parity ^= 1
                    continue
                entry = rows[i][j]
                if entry.coeffs:
                    term = entry * val if parity == 0 else entry * val * (-1.0)
                    key = mask | bit
                    acc = new.get(key)
                    new[key] = term if acc is None else acc + term
        minors = new
        if not minors:
            return gp_zero(K, Q)
    return minors.get((1 << m) - 1, gp_zero(K, Q))


def gp_det(rows: list[list[GradedPoly]]) -> GradedPoly:
    """Determinant of a square matrix over the graded ring.

    Gaussian elimination with partial pivoting on constant-term magnitude;
    division happens only by pivots, which must be ring units (nonzero
    constant term).  Falls back to cofactor expansion for sizes <= 3 where
    it is both faster and division-free, and to a memoized division-free
    expansion when no unit pivot exists (possible up to size 12).
    """
    m = len(rows)
    if m == 0:
        raise ValueError("empty matrix")
    for r in rows:
        if len(r) != m:
            raise ValueError("matrix is not square")
    K, Q = rows[0][0].K, min(min(e.Q for e in r) for r in rows)
    if m == 1:
        return rows[0][0].truncate(Q)
    if m == 2:
        a, b = rows[0]
        c, d = rows[1]
        return (a * d - b * c).truncate(Q)
    if m == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return (
            a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        ).truncate(Q)

    work = [[entry.truncate(Q) for entry in r] for r in rows]
    sign = 1
    det = gp_const(K, Q, 1.0)
    for col in range(m):
        pivot_row = max(
            range(col, m), key=lambda r: abs(work[r][col].constant_term())
        )
        if abs(work[pivot_row][col].constant_term()) == 0.0:
            if all(not work[r][col].coeffs for r in range(col, m)):
                return gp_zero(K, Q)  # structurally singular: a zero column
            if m <= 12:
                # no unit pivot in this column: finish division-free on the
                # remaining minor and fold in the eliminated prefix
                tail = [[work[r][c] for c in range(col, m)] for r in range(col, m)]
                return det * _gp_det_free(tail, K, Q) * sign
            from .errors import DegenerateInput

            raise DegenerateInput(
                "graded elimination needs a pivot with nonzero constant term"
            )
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        det = det * pivot
        pivot_inv = pivot.invert()
        for r in range(col + 1, m):
            factor = work[r][col] * pivot_inv
            if not factor.coeffs:
                continue
            work[r][col] = gp_zero(K, Q)
            for c in range(col + 1, m):
                work[r][c] = work[r][c] - factor * work[col][c]
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
        from .errors import DegenerateInput

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
    derivation vector (-d/dt_1, -(1/2) d/dt_2, ...), applied to tau.
    """
    if orders < 0:
        raise ValueError("orders must be >= 0")
    out = [tau]
    # monomials of the auxiliary Schur polynomial q_m in variables s_i,
    # where s_i acts on tau as -(1/i) d/dt_i
    aux = schur_sequence(orders if orders > 0 else 1, orders)
    # cache repeated derivatives of tau: key = exponent tuple over s-vars
    for m in range(1, orders + 1):
        acc = gp_zero(tau.K, tau.Q)
        for exp, c in aux[m].coeffs.items():
            term = tau
            coeff = complex(c)
            for i, e in enumerate(exp, start=1):
                for _ in range(e):
                    if i <= tau.K:
                        term = term.derivative(i)
                    else:
                        term = gp_zero(tau.K, tau.Q)
                    coeff *= -1.0 / i
            acc = acc + term * coeff
        out.append(acc)
    return tuple(out)


def schur_at_shifted_times(k: int, K: int, Q: int) -> list[GradedPoly]:
    """Expansion of p_k(t - [1/z]): equals p_k - z^-1 p_{k-1} identically."""
    ps = schur_sequence(K, Q)
    if k < 0 or k > Q:
        raise ValueError("need 0 <= k <= Q")
    prev = ps[k - 1] if k >= 1 else gp_zero(K, Q)
    return [ps[k], -1.0 * prev]


def multinomial(*ks: int) -> int:
    """Multinomial coefficient (sum ks)! / prod ks!."""
    return factorial(sum(ks)) // _prod_fact(ks)


def _prod_fact(ks) -> int:
    out = 1
    for k in ks:
        out *= factorial(k)
    return out

