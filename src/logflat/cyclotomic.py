"""Cyclotomic polynomials, cyclotomic factor extraction, and exact
arithmetic in the quotient rings Q[t]/Phi_m(t).

No complex embedding is ever taken: a root of unity is the class of t in
the quotient ring, and all identities are verified algebraically.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .multipoly import MultiPoly
from . import univariate as uv
from .univariate import UPoly


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
def cyclotomic_upoly(d: int) -> tuple:
    """Coefficients of the d-th cyclotomic polynomial Phi_d (tuple, dense)."""
    if d < 1:
        raise ValueError("order must be positive")
    # Phi_d = (t^d - 1) / prod_{e | d, e < d} Phi_e
    num: UPoly = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            num = uv.uexact_div(num, list(cyclotomic_upoly(e)))
    return tuple(num)


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
    var = p.vars[0]
    rem = uv.from_multipoly(p)
    factors: list[tuple[int, int]] = []
    for d in candidate_orders(uv.udeg(rem)):
        phi = list(cyclotomic_upoly(d))
        mult = 0
        while uv.udeg(rem) >= uv.udeg(phi):
            q, r = uv.udivmod(rem, phi)
            if r:
                break
            rem = q
            mult += 1
        if mult:
            factors.append((d, mult))
    return factors, uv.to_multipoly(rem, var)


def cyclotomic_split_upoly(p: UPoly) -> tuple[list[tuple[int, int]], UPoly]:
    factors, rem = cyclotomic_split(uv.to_multipoly(p))
    return factors, uv.from_multipoly(rem)


class CycloNum:
    """An element of Q[t]/Phi_m(t), stored as its reduced representative."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        mod = list(cyclotomic_upoly(m))
        c = uv.upoly(coeffs)
        if uv.udeg(c) >= uv.udeg(mod):
            c = uv.udivmod(c, mod)[1]
        self.coeffs = tuple(c)

    @classmethod
    def rational(cls, m: int, c) -> CycloNum:
        return cls(m, [Fraction(c)])

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> CycloNum:
        """The class of t^power: a primitive m-th root of unity to that power."""
        power %= m
        return cls(m, [Fraction(0)] * power + [Fraction(1)])

    def _coerce(self, other) -> CycloNum:
        if isinstance(other, CycloNum):
            if other.m != self.m:
                raise ValueError("mixed cyclotomic moduli")
            return other
        return CycloNum.rational(self.m, other)

    def __add__(self, other):
        o = self._coerce(other)
        return CycloNum(self.m, uv.uadd(list(self.coeffs), list(o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return CycloNum(self.m, uv.umul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> CycloNum:
        mod = list(cyclotomic_upoly(self.m))
        g, s, _ = uv.uext_gcd(list(self.coeffs), mod)
        if uv.udeg(g) != 0:
            raise ZeroDivisionError("element is not invertible")
        return CycloNum(self.m, uv.uscale(s, 1 / g[0]))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __repr__(self):
        return f"CycloNum(m={self.m}, {list(self.coeffs)})"


# -- matrices over a cyclotomic quotient ring ---------------------------

def cmat_from_rational(m: int, a) -> list:
    return [[CycloNum.rational(m, c) for c in row] for row in a]


def cmat_identity(m: int, n: int) -> list:
    return [[CycloNum.rational(m, int(i == j)) for j in range(n)] for i in range(n)]
