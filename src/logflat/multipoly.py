"""Exact sparse polynomials and Laurent polynomials over the rationals.

A value is a map from exponent vectors to nonzero Fraction coefficients over
a fixed tuple of variables, with a graded-lexicographic term order
(variables in declaration order).  A value whose ``laurent`` flag is set
lives in the Laurent ring Q[x_1^+-1, ..., x_n^+-1] and may have negative
exponents; any other value is a polynomial and a negative exponent is
rejected at construction.  Arithmetic with a Laurent operand gives a
Laurent value.  The flag is part of the ring, not of the ring element:
equality and hashing ignore it.  All operations are pure and deterministic.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import add, neg, sub


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot coerce {c!r} to a rational")


def grlex_key(expts: tuple[int, ...]) -> tuple:
    return (sum(expts), expts)


class MultiPoly:
    """A sparse polynomial, or Laurent polynomial, with Fraction coefficients.

    Instances are immutable in practice: no method mutates ``terms`` after
    construction.  Zero coefficients are never stored.
    """

    __slots__ = ("vars", "terms", "laurent")

    def __init__(self, variables, terms=None, laurent: bool = False):
        self.vars = tuple(variables)
        self.laurent = bool(laurent)
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
            if not laurent and any(x < 0 for x in e):
                raise ValueError("negative exponent in MultiPoly")
            c = _as_fraction(c)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        self.terms = clean

    @classmethod
    def _clean(cls, variables, terms, laurent) -> MultiPoly:
        """Wrap a term map that is already clean: Fraction coefficients, no
        zeros, exponent vectors of the right length that suit the ring."""
        p = object.__new__(cls)
        p.vars, p.terms, p.laurent = variables, terms, laurent
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables, c, laurent: bool = False) -> MultiPoly:
        variables = tuple(variables)
        c = _as_fraction(c)
        if c == 0:
            return cls(variables, laurent=laurent)
        return cls(variables, {tuple([0] * len(variables)): c}, laurent)

    @classmethod
    def var(cls, variables, name, power: int = 1) -> MultiPoly:
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = power
        return cls(variables, {tuple(e): Fraction(1)})

    @classmethod
    def zero(cls, variables) -> MultiPoly:
        return cls(variables)

    # -- predicates and per-variable data -----------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def is_polynomial(self) -> bool:
        """No negative exponent (true of every non-Laurent value)."""
        return all(x >= 0 for e in self.terms for x in e)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_exp(self, i: int = 0) -> int:
        """Lowest exponent of variable i; 0 for the zero polynomial."""
        return min((e[i] for e in self.terms), default=0)

    def max_exp(self, i: int = 0) -> int:
        """Highest exponent of variable i; 0 for the zero polynomial."""
        return max((e[i] for e in self.terms), default=0)

    def coeff(self, *e: int) -> Fraction:
        return self.terms.get(e, Fraction(0))

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.vars, other, self.laurent)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = terms[e] + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
            else:
                terms[e] = c
        return MultiPoly._clean(self.vars, terms, self.laurent or other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._clean(self.vars, {e: -c for e, c in self.terms.items()},
                                self.laurent)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return MultiPoly._clean(self.vars, terms, self.laurent)
        other = self._coerce(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                if e in terms:
                    terms[e] += c1 * c2
                else:
                    terms[e] = c1 * c2
        return MultiPoly._clean(self.vars, {e: c for e, c in terms.items() if c},
                                self.laurent or other.laurent)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.vars, 1, self.laurent)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def shift(self, *k: int) -> MultiPoly:
        """Multiply by the monomial with exponent vector k."""
        return MultiPoly(self.vars, {tuple(map(add, e, k)): c
                                     for e, c in self.terms.items()}, self.laurent)

    def invert_variable(self) -> MultiPoly:
        """Substitute x -> 1/x for every variable x; the result is a Laurent
        value."""
        return MultiPoly._clean(self.vars, {tuple(map(neg, e)): c
                                            for e, c in self.terms.items()}, True)

    # -- calculus and evaluation --------------------------------------

    def derivative(self, name: str) -> MultiPoly:
        i = self.vars.index(name)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return MultiPoly._clean(self.vars, terms, self.laurent)

    def evaluate(self, values: dict) -> Fraction:
        """Evaluate at a full assignment of rational values."""
        point = [_as_fraction(values[v]) for v in self.vars]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                term *= x ** k
            total += term
        return total

    def substitute(self, values: dict) -> MultiPoly:
        """Substitute rational values for a subset of the variables."""
        keep = tuple(v for v in self.vars if v not in values)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            coef = c
            ne = []
            for v, k in zip(self.vars, e):
                if v in values:
                    coef *= _as_fraction(values[v]) ** k
                else:
                    ne.append(k)
            ne = tuple(ne)
            terms[ne] = terms.get(ne, Fraction(0)) + coef
        return MultiPoly(keep, terms, self.laurent)

    # -- division -----------------------------------------------------

    def exact_div(self, d: MultiPoly) -> MultiPoly:
        """Exact quotient self / d; raises ValueError if d does not divide
        self.  Long division by the graded-lex leading term of d: every
        quotient exponent e must have e_i >= floor_i, where floor_i is 0 for
        polynomials and min_i(self) - min_i(d) for Laurent values (the
        quotient's lowest exponent in each variable)."""
        d = self._coerce(d)
        if not d.terms:
            raise ZeroDivisionError("division by zero polynomial")
        laurent = self.laurent or d.laurent
        n = len(self.vars)
        if laurent and self.terms:
            floor = tuple(self.min_exp(i) - d.min_exp(i) for i in range(n))
        else:
            floor = (0,) * n
        de, dc = d.leading()
        dterms = list(d.terms.items())
        rem = dict(self.terms)
        q_terms: dict[tuple[int, ...], Fraction] = {}
        while rem:
            re = max(rem, key=grlex_key)
            qe = tuple(map(sub, re, de))
            if any(map(int.__lt__, qe, floor)):
                raise ValueError("not an exact division")
            qc = rem[re] / dc
            q_terms[qe] = qc
            for e, c in dterms:            # rem -= qc * x^qe * d
                k = tuple(map(add, qe, e))
                s = rem.get(k, 0) - qc * c
                if s:
                    rem[k] = s
                else:
                    del rem[k]
        return MultiPoly._clean(self.vars, q_terms, laurent)

    def divides(self, other: MultiPoly) -> bool:
        try:
            other.exact_div(self)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    # -- printing -----------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        parts = []
        for e in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(v if k == 1 else f"{v}^{k}"
                            for v, k in zip(self.vars, e) if k)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return "MultiPoly(" + " + ".join(parts).replace("+ -", "- ") + ")"


# -- normalization and gcd -------------------------------------------


def normalize(f: MultiPoly) -> MultiPoly:
    """Canonical scalar multiple of f: integer coefficients with content 1
    and positive leading coefficient in graded-lex order."""
    if f.is_zero():
        return f
    den_lcm = lcm(*(c.denominator for c in f.terms.values()))
    num_gcd = 0
    for c in f.terms.values():
        num_gcd = int_gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    scale = Fraction(den_lcm, num_gcd)
    g = f * scale
    _, lc = g.leading()
    if lc < 0:
        g = -g
    return g


def _split_main(f: MultiPoly) -> dict[int, MultiPoly]:
    """View f as univariate in its first variable with coefficients in the
    remaining variables."""
    rest = f.vars[1:]
    out: dict[int, MultiPoly] = {}
    for e, c in f.terms.items():
        k = e[0]
        coef = out.setdefault(k, MultiPoly.zero(rest))
        out[k] = coef + MultiPoly(rest, {e[1:]: c})
    return {k: v for k, v in out.items() if not v.is_zero()}


def _join_main(coeffs: dict[int, MultiPoly], variables) -> MultiPoly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for k, p in coeffs.items():
        for e, c in p.terms.items():
            terms[(k,) + e] = c
    return MultiPoly(variables, terms)


def _pseudo_rem(f: dict[int, MultiPoly], g: dict[int, MultiPoly], rest) -> dict[int, MultiPoly]:
    """Pseudo-remainder of f by g, both univariate with MultiPoly coefficients."""
    df = max(f) if f else -1
    dg = max(g)
    lg = g[dg]
    rem = dict(f)
    while rem and max(rem) >= dg:
        dr = max(rem)
        lr = rem[dr]
        # rem <- lg*rem - lr*x^(dr-dg)*g
        new: dict[int, MultiPoly] = {}
        for k, c in rem.items():
            new[k] = c * lg
        for k, c in g.items():
            kk = k + dr - dg
            new[kk] = new.get(kk, MultiPoly.zero(rest)) - lr * c
        rem = {k: v for k, v in new.items() if not v.is_zero()}
    return rem


def gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Primitive greatest common divisor, normalized (integer coefficients,
    content 1, positive graded-lex leading coefficient).

    Uses a primitive polynomial remainder sequence (pseudo-remainders with
    content extraction at each step), recursing on the variable list.
    """
    if f.vars != g.vars:
        raise ValueError("variable mismatch")
    if f.is_zero():
        return normalize(g)
    if g.is_zero():
        return normalize(f)
    if not f.vars or (f.is_constant() or g.is_constant()):
        return MultiPoly.constant(f.vars, 1)

    rest = f.vars[1:]
    fu = _split_main(f)
    gu = _split_main(g)
    if not rest:
        # univariate over Q: plain Euclid on Fraction coefficients
        a, b = fu, gu
        while b:
            a, b = b, _urem(a, b)
        return normalize(_join_main({k: v for k, v in a.items()}, f.vars))

    def content(u: dict[int, MultiPoly]) -> MultiPoly:
        c = MultiPoly.zero(rest)
        for coef in u.values():
            c = gcd(c, coef)
        return c

    cf, cg = content(fu), content(gu)
    fp = {k: v.exact_div(cf) for k, v in fu.items()}
    gp = {k: v.exact_div(cg) for k, v in gu.items()}
    if max(fp) < max(gp):
        fp, gp = gp, fp
    # primitive PRS on primitive parts
    a, b = fp, gp
    while True:
        r = _pseudo_rem(a, b, rest)
        if not r:
            break
        cr = content(r)
        a, b = b, {k: v.exact_div(cr) for k, v in r.items()}
    cont_gcd = gcd(cf, cg)
    prim = _join_main(b, f.vars)
    return normalize(prim * _lift(cont_gcd, f.vars))


def _lift(p: MultiPoly, variables) -> MultiPoly:
    """Lift a polynomial in trailing variables to the full variable list."""
    return MultiPoly(variables, {(0,) + e: c for e, c in p.terms.items()})


def _urem(a: dict[int, MultiPoly], b: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """Remainder for univariate polynomials with constant (0-var) coefficients."""
    rem = dict(a)
    db = max(b)
    lb = b[db]
    while rem and max(rem) >= db:
        dr = max(rem)
        q = rem[dr].constant_value() / lb.constant_value()
        for k, c in b.items():
            kk = k + dr - db
            cur = rem.get(kk, MultiPoly.zero(()))
            rem[kk] = cur - c * q
        rem = {k: v for k, v in rem.items() if not v.is_zero()}
    return rem


def squarefree_part(f: MultiPoly) -> tuple[MultiPoly, bool]:
    """The squarefree part of f and whether f was already reduced.

    Returns f divided by the gcd of f with all of its partial derivatives,
    normalized; the boolean is true iff that gcd is constant.
    """
    if f.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    g = f
    for v in f.vars:
        g = gcd(g, f.derivative(v))
    part = normalize(f.exact_div(g))
    return part, g.is_constant()
