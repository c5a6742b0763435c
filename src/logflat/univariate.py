"""Dense univariate polynomial helpers over the rationals.

Polynomials are lists of Fraction coefficients, index = degree, with no
trailing zeros.  These are internal plumbing for the cyclotomic and
Jordan-Chevalley machinery; the public API speaks MultiPoly.
"""
from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly, _as_fraction

UPoly = list  # list[Fraction], trailing zeros trimmed


def utrim(p: UPoly) -> UPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def upoly(coeffs) -> UPoly:
    return utrim([_as_fraction(c) for c in coeffs])


def udeg(p: UPoly) -> int:
    return len(p) - 1


def uadd(a: UPoly, b: UPoly) -> UPoly:
    n = max(len(a), len(b))
    return utrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def usub(a: UPoly, b: UPoly) -> UPoly:
    n = max(len(a), len(b))
    return utrim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def umul(a: UPoly, b: UPoly) -> UPoly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return utrim(out)


def uscale(a: UPoly, c) -> UPoly:
    c = _as_fraction(c)
    if c == 0:
        return []
    return [x * c for x in a]


def udivmod(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly]:
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    while len(rem) >= len(b):
        c = rem[-1] / lb
        k = len(rem) - len(b)
        q[k] = c
        for i, cb in enumerate(b):
            rem[k + i] -= c * cb
        utrim(rem)
    return utrim(q), rem


def uexact_div(a: UPoly, b: UPoly) -> UPoly:
    q, r = udivmod(a, b)
    if r:
        raise ValueError("not an exact division")
    return q


def umonic(a: UPoly) -> UPoly:
    if not a:
        return []
    return [c / a[-1] for c in a]


def ugcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd via Euclid."""
    a, b = a[:], b[:]
    while b:
        a, b = b, udivmod(a, b)[1]
    return umonic(a)


def uderiv(a: UPoly) -> UPoly:
    return utrim([a[i] * i for i in range(1, len(a))])


def uext_gcd(a: UPoly, b: UPoly) -> tuple[UPoly, UPoly, UPoly]:
    """(g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a[:], b[:]
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = udivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, usub(s0, umul(q, s1))
        t0, t1 = t1, usub(t0, umul(q, t1))
    if not r0:
        return [], s0, t0
    lc = r0[-1]
    return umonic(r0), uscale(s0, 1 / lc), uscale(t0, 1 / lc)


def usquarefree(a: UPoly) -> UPoly:
    """Monic squarefree part a / gcd(a, a')."""
    if not a:
        raise ValueError("zero polynomial")
    g = ugcd(a, uderiv(a))
    return umonic(uexact_div(a, g))


def is_squarefree(a: UPoly) -> bool:
    return udeg(ugcd(a, uderiv(a))) == 0


# -- conversions --------------------------------------------------------

def from_multipoly(p: MultiPoly) -> UPoly:
    if len(p.vars) != 1:
        raise ValueError("univariate polynomial expected")
    out = [Fraction(0)] * (p.total_degree() + 1) if p.terms else []
    for e, c in p.terms.items():
        out[e[0]] = c
    return utrim(out)


def to_multipoly(p: UPoly, var: str = "t") -> MultiPoly:
    return MultiPoly((var,), {(i,): c for i, c in enumerate(p) if c != 0})
