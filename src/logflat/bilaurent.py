"""Laurent polynomials in two variables (x, y) over the rationals.

These are the functions on the two standard charts of the punctured plane:
chart x (x != 0) allows negative x-exponents, chart y allows negative
y-exponents, and their intersection with the polynomials is detected
exactly.  Used to move connection matrices between chart frames.
"""
from __future__ import annotations

from fractions import Fraction

from . import matrices as qm
from .laurent import LaurentPoly
from .multipoly import MultiPoly, _as_fraction


class BiLaurent:
    """Finite-support map from (x-exponent, y-exponent) to nonzero
    Fractions; exponents may be negative."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int], Fraction] = {}
        for e, c in (terms or {}).items():
            e = (int(e[0]), int(e[1]))
            c = _as_fraction(c)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        self.terms = clean

    @classmethod
    def constant(cls, c) -> BiLaurent:
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, ex: int, ey: int, c=1) -> BiLaurent:
        return cls({(ex, ey): c})

    @classmethod
    def from_multipoly(cls, p: MultiPoly) -> BiLaurent:
        if len(p.vars) != 2:
            raise ValueError("two-variable polynomial expected")
        return cls(dict(p.terms))

    @classmethod
    def from_laurent(cls, p: LaurentPoly, zx: int, zy: int) -> BiLaurent:
        """Substitute z -> x^zx * y^zy into a univariate Laurent polynomial."""
        return cls({(e * zx, e * zy): c for e, c in p.terms.items()})

    def to_multipoly(self, variables=("x", "y")) -> MultiPoly:
        if not self.is_polynomial():
            raise ValueError("has negative exponents; not a polynomial")
        return MultiPoly(tuple(variables), dict(self.terms))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_polynomial(self) -> bool:
        return all(ex >= 0 and ey >= 0 for ex, ey in self.terms)

    def regular_chart_x(self) -> bool:
        """No pole off x = 0: all y-exponents nonnegative."""
        return all(ey >= 0 for _, ey in self.terms)

    def regular_chart_y(self) -> bool:
        return all(ex >= 0 for ex, _ in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> BiLaurent:
        if isinstance(other, BiLaurent):
            return other
        return BiLaurent.constant(other)

    def __add__(self, other):
        o = self._coerce(other)
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return BiLaurent(terms)

    __radd__ = __add__

    def __neg__(self):
        return BiLaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        terms: dict[tuple[int, int], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return BiLaurent(terms)

    __rmul__ = __mul__

    def derivative(self, name: str) -> BiLaurent:
        i = ("x", "y").index(name)
        terms: dict[tuple[int, int], Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return BiLaurent(terms)

    def evaluate(self, x, y) -> Fraction:
        x, y = _as_fraction(x), _as_fraction(y)
        if (x == 0 and any(ex < 0 for ex, _ in self.terms)) or \
           (y == 0 and any(ey < 0 for _, ey in self.terms)):
            raise ZeroDivisionError("pole at the evaluation point")
        return sum((c * x ** ex * y ** ey for (ex, ey), c in self.terms.items()),
                   Fraction(0))

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "BiLaurent(0)"
        parts = []
        for (ex, ey) in sorted(self.terms, reverse=True):
            c = self.terms[(ex, ey)]
            mono = "*".join(s for s in (
                f"x^{ex}" if ex not in (0, 1) else ("x" if ex == 1 else ""),
                f"y^{ey}" if ey not in (0, 1) else ("y" if ey == 1 else "")) if s)
            if not mono:
                parts.append(str(c))
            else:
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return "BiLaurent(" + " + ".join(parts).replace("+ -", "- ") + ")"


# -- matrices ------------------------------------------------------------

def bmat_from_laurent(m: list, zx: int, zy: int) -> list:
    return [[BiLaurent.from_laurent(p, zx, zy) for p in row] for row in m]


# A named function, not an alias of qm.mat_mul, so that per-function
# profiling (perfbench/tracer.py) books bi-Laurent products on their own.
def bmat_mul(a: list, b: list) -> list:
    return qm.mat_mul(a, b)


def bmat_diag_monomial(exponents, var: str) -> list:
    """diag(var^e) for a list of integer exponents."""
    n = len(exponents)
    out = [[BiLaurent() for _ in range(n)] for _ in range(n)]
    for i, e in enumerate(exponents):
        if var == "x":
            out[i][i] = BiLaurent.monomial(e, 0)
        elif var == "y":
            out[i][i] = BiLaurent.monomial(0, e)
        else:
            raise ValueError("variable must be x or y")
    return out
