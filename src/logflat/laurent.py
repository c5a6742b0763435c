"""Univariate Laurent polynomials over the rationals, and square matrices
of them (transition data for two-chart bundle presentations)."""
from __future__ import annotations

from fractions import Fraction

from . import matrices as qm
from .multipoly import _as_fraction


class LaurentPoly:
    """Finite-support map from integer exponents to nonzero Fractions."""

    __slots__ = ("var", "terms")

    def __init__(self, var: str = "z", terms=None):
        self.var = var
        clean: dict[int, Fraction] = {}
        for e, c in (terms or {}).items():
            c = _as_fraction(c)
            if c != 0:
                clean[int(e)] = clean.get(int(e), Fraction(0)) + c
                if clean[int(e)] == 0:
                    del clean[int(e)]
        self.terms = clean

    @classmethod
    def constant(cls, c, var: str = "z") -> LaurentPoly:
        return cls(var, {0: c})

    @classmethod
    def monomial(cls, e: int, c=1, var: str = "z") -> LaurentPoly:
        return cls(var, {e: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def min_exp(self) -> int:
        return min(self.terms) if self.terms else 0

    def max_exp(self) -> int:
        return max(self.terms) if self.terms else 0

    def coeff(self, e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    def _coerce(self, other) -> LaurentPoly:
        if isinstance(other, LaurentPoly):
            if other.var != self.var:
                raise ValueError("mixed Laurent variables")
            return other
        return LaurentPoly.constant(other, self.var)

    def __add__(self, other):
        o = self._coerce(other)
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return LaurentPoly(self.var, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.var, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        terms: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return LaurentPoly(self.var, terms)

    __rmul__ = __mul__

    def exact_div(self, d: LaurentPoly) -> LaurentPoly:
        """Exact quotient self / d; raises ValueError if d does not divide
        self.  Long division from the top exponent: the quotient's lowest
        exponent is self.min_exp() - d.min_exp()."""
        d = self._coerce(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        de = d.max_exp()
        dc = d.terms[de]
        floor = self.min_exp() - d.min_exp()
        rem = self
        q_terms: dict[int, Fraction] = {}
        while rem.terms:
            re = rem.max_exp()
            qe = re - de
            if qe < floor:
                raise ValueError("not an exact division")
            qc = rem.terms[re] / dc
            q_terms[qe] = qc
            rem = rem - LaurentPoly(self.var, {qe: qc}) * d
        return LaurentPoly(self.var, q_terms)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by z^k."""
        return LaurentPoly(self.var, {e + k: c for e, c in self.terms.items()})

    def invert_variable(self) -> LaurentPoly:
        """Substitute z -> 1/z."""
        return LaurentPoly(self.var, {-e: c for e, c in self.terms.items()})

    def evaluate(self, x) -> Fraction:
        x = _as_fraction(x)
        if x == 0 and self.min_exp() < 0:
            raise ZeroDivisionError("pole at 0")
        return sum((c * x ** e for e, c in self.terms.items()), Fraction(0))

    def is_polynomial(self) -> bool:
        return self.is_zero() or self.min_exp() >= 0

    def is_antipolynomial(self) -> bool:
        """Polynomial in 1/z."""
        return self.is_zero() or self.max_exp() <= 0

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.var, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            else:
                mono = self.var if e == 1 else f"{self.var}^{e}"
                parts.append(mono if c == 1 else f"-{mono}" if c == -1 else f"{c}*{mono}")
        return "LaurentPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"


# -- matrices -----------------------------------------------------------

def lmat_identity(n: int, var: str = "z") -> list:
    return [[LaurentPoly.constant(int(i == j), var) for j in range(n)] for i in range(n)]


# lmat_mul and lmat_det are named functions, not aliases of the generic ones,
# so that per-function profiling (perfbench/tracer.py) books Laurent work
# apart from rational and polynomial work.
def lmat_mul(a: list, b: list) -> list:
    return qm.mat_mul(a, b)


def lmat_det(a: list) -> LaurentPoly:
    return qm.det_bareiss(a)


def lmat_adjugate(a: list) -> list:
    n = len(a)
    var = a[0][0].var
    if n == 1:
        return [[LaurentPoly.constant(1, var)]]
    adj = [[LaurentPoly(var) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = lmat_det(minor)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def lmat_inverse(a: list) -> list:
    """Inverse of a Laurent matrix whose determinant is a unit c*z^k."""
    d = lmat_det(a)
    if not d.is_monomial():
        raise ValueError("determinant is not a unit monomial")
    (e, c), = d.terms.items()
    inv_det = LaurentPoly.monomial(-e, 1 / c, a[0][0].var)
    adj = lmat_adjugate(a)
    return qm.mat_scale(adj, inv_det)


class Transition:
    """A two-chart transition: square Laurent matrix whose determinant is a
    unit monomial c*z^k (checked at construction)."""

    def __init__(self, matrix: list):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("transition matrix must be square")
        self.matrix = matrix
        self.rank = n
        d = lmat_det(matrix)
        if d.is_zero() or not d.is_monomial():
            raise ValueError("transition determinant is not a unit c*z^k")
        (self.det_exp, self.det_coeff), = d.terms.items()

    @property
    def var(self) -> str:
        return self.matrix[0][0].var

