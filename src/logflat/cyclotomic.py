"""Cyclotomic polynomials, cyclotomic factor extraction, and exact
arithmetic in the quotient rings Q[t]/(g), g = Phi_m or any other modulus.

Every polynomial here is a one-variable MultiPoly: Phi_d is built and
factors are peeled with exact_div, and a quotient-ring element is reduced
with MultiPoly's division with remainder (divmod).  No complex embedding
is ever taken: a root of unity is the class of t in Q[t]/Phi_m, and all
identities are verified algebraically.
"""
from __future__ import annotations

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


class QuotientNum:
    """An element of Q[t]/(g), g a one-variable MultiPoly and not always
    irreducible, stored as its representative of degree below deg g."""

    __slots__ = ("modulus", "poly")

    def __init__(self, modulus: MultiPoly, value):
        """value: a representative, as a MultiPoly in the modulus's variable,
        or a rational."""
        self.modulus = modulus
        if not isinstance(value, MultiPoly):
            value = MultiPoly.constant(modulus.vars, value)
        self.poly = divmod(value, modulus)[1]

    @classmethod
    def zeta(cls, m: int, power: int = 1) -> QuotientNum:
        """t^power in Q[t]/Phi_m: a primitive m-th root of unity to that power."""
        return cls(cyclotomic_upoly(m), MultiPoly.var(_T, "t", power % m))

    def _coerce(self, other) -> QuotientNum:
        if isinstance(other, QuotientNum):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        return QuotientNum(self.modulus, other)

    def __add__(self, other):
        return QuotientNum(self.modulus, self.poly + self._coerce(other).poly)

    __radd__ = __add__

    def __neg__(self):
        return QuotientNum(self.modulus, -self.poly)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        return QuotientNum(self.modulus, self.poly * self._coerce(other).poly)

    __rmul__ = __mul__

    def inverse(self) -> QuotientNum:
        """Extended Euclid: s * self = gcd(self, g) modulo g, and self is a
        unit exactly when that gcd is a nonzero constant."""
        r0, r1 = self.poly, self.modulus
        s0, s1 = MultiPoly.constant(r0.vars, 1), MultiPoly.zero(r0.vars)
        while r1:
            q, r = divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        if r0.total_degree() != 0:
            raise ZeroDivisionError("element is not invertible")
        return QuotientNum(self.modulus, s0 * (1 / r0.constant_value()))

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def substitute(self, p: MultiPoly) -> QuotientNum:
        """p(self) for a one-variable polynomial p, by Horner's rule."""
        out = QuotientNum(self.modulus, 0)
        for k in range(p.total_degree(), -1, -1):
            out = out * self + p.coeff(k)
        return out

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
        return hash((self.modulus, self.poly))

    def __repr__(self):
        return f"QuotientNum({self.modulus!r}, {self.poly!r})"


# -- matrices over a quotient ring ----------------------------------------

def cmat_from_rational(modulus: MultiPoly, a) -> list:
    return [[QuotientNum(modulus, c) for c in row] for row in a]
