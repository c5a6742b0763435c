"""Cyclotomic polynomials, cyclotomic factor extraction, and exact
arithmetic in the quotient rings Q[t]/Phi_m(t).

Every polynomial here is a one-variable MultiPoly: Phi_d is built and
factors are peeled with exact_div, and a quotient-ring element is reduced
with MultiPoly's division with remainder (divmod).  No complex embedding
is ever taken: a root of unity is the class of t in the quotient ring, and
all identities are verified algebraically.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .multipoly import MultiPoly

_T = ("t",)


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_upoly(d: int, var: str = "t") -> MultiPoly:
    """The d-th cyclotomic polynomial Phi_d in the variable var."""
    if d < 1:
        raise ValueError("order must be positive")
    # Phi_d = (t^d - 1) / prod_{e | d, e < d} Phi_e
    phi = MultiPoly((var,), {(d,): 1, (0,): -1})
    for e in range(1, d):
        if d % e == 0:
            phi = phi.exact_div(cyclotomic_upoly(e, var))
    return phi


def candidate_orders(deg: int) -> list[int]:
    """Orders d with phi(d) <= deg and d <= 2*deg^2, ascending."""
    if deg < 1:
        return []
    return [d for d in range(1, 2 * deg * deg + 1) if euler_phi(d) <= deg]


def cyclotomic_split(p: MultiPoly) -> tuple[list[tuple[int, int]], MultiPoly]:
    """Peel cyclotomic factors off a univariate polynomial.

    Returns ([(order, multiplicity), ...], remainder) where the remainder
    has no cyclotomic factor of order within the candidate range and the
    product of the Phi_d^mult times the remainder equals the input exactly.
    """
    if len(p.vars) != 1:
        raise ValueError("univariate polynomial expected")
    if p.is_zero():
        raise ValueError("zero polynomial")
    rem = p
    factors: list[tuple[int, int]] = []
    for d in candidate_orders(p.total_degree()):
        phi = cyclotomic_upoly(d, p.vars[0])
        mult = 0
        while rem.total_degree() >= phi.total_degree():
            try:
                rem = rem.exact_div(phi)
            except ValueError:
                break
            mult += 1
        if mult:
            factors.append((d, mult))
    return factors, rem


cyclotomic_split_upoly = cyclotomic_split   # the name jordan calls and the benchmark traces


class CycloNum:
    """An element of Q[t]/Phi_m(t), stored as its reduced representative:
    a polynomial in t of degree below deg Phi_m."""

    __slots__ = ("m", "poly")

    def __init__(self, m: int, coeffs):
        """coeffs: a representative in t, as a MultiPoly or as its
        coefficients in ascending degree."""
        self.m = m
        if not isinstance(coeffs, MultiPoly):
            coeffs = MultiPoly(_T, {(k,): c for k, c in enumerate(coeffs)})
        self.poly = divmod(coeffs, cyclotomic_upoly(m))[1]

    @classmethod
    def rational(cls, m: int, c) -> CycloNum:
        return cls(m, [Fraction(c)])

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> CycloNum:
        """The class of t^power: a primitive m-th root of unity to that power."""
        return cls(m, MultiPoly.var(_T, "t", power % m))

    def _coerce(self, other) -> CycloNum:
        if isinstance(other, CycloNum):
            if other.m != self.m:
                raise ValueError("mixed cyclotomic moduli")
            return other
        return CycloNum.rational(self.m, other)

    def __add__(self, other):
        return CycloNum(self.m, self.poly + self._coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.m, -self.poly)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return CycloNum(self.m, self.poly * self._coerce(other).poly)

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        """Extended Euclid: s * self = gcd(self, Phi_m) modulo Phi_m, and
        the gcd is a nonzero constant unless self is zero."""
        r0, r1 = self.poly, cyclotomic_upoly(self.m)
        s0, s1 = MultiPoly.constant(_T, 1), MultiPoly.zero(_T)
        while r1:
            q, r = divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        if r0.total_degree() != 0:
            raise ZeroDivisionError("element is not invertible")
        return CycloNum(self.m, s0 * (1 / r0.constant_value()))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def is_zero(self) -> bool:
        return not self.poly

    def __bool__(self):
        return bool(self.poly)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.poly == o.poly

    def __hash__(self):
        return hash((self.m, self.poly))

    def __repr__(self):
        return f"CycloNum(m={self.m}, {self.poly!r})"


# -- matrices over a cyclotomic quotient ring ---------------------------

def cmat_from_rational(m: int, a) -> list:
    return [[CycloNum.rational(m, c) for c in row] for row in a]


def cmat_identity(m: int, n: int) -> list:
    return [[CycloNum.rational(m, int(i == j)) for j in range(n)] for i in range(n)]
