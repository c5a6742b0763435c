"""Exact multivariate polynomials over the rationals.

A polynomial is stored as a map from exponent vectors to nonzero Fraction
coefficients, with a fixed graded-lexicographic term order (variables in
declaration order).  All operations are pure and deterministic.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd


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
    """A multivariate polynomial with Fraction coefficients.

    Instances are immutable in practice: no method mutates ``terms`` after
    construction.  Zero coefficients are never stored.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
            if any(x < 0 for x in e):
                raise ValueError("negative exponent in MultiPoly")
            c = _as_fraction(c)
            if c != 0:
                clean[e] = clean.get(e, Fraction(0)) + c
                if clean[e] == 0:
                    del clean[e]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables, c) -> MultiPoly:
        variables = tuple(variables)
        c = _as_fraction(c)
        if c == 0:
            return cls(variables)
        return cls(variables, {tuple([0] * len(variables)): c})

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

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(tuple([0] * len(self.vars)), Fraction(0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: MultiPoly):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return MultiPoly(self.vars, {e: cc * c for e, cc in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MultiPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.vars, 1)
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
        return MultiPoly(self.vars, terms)

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
        keep = [v for v in self.vars if v not in values]
        out = MultiPoly.zero(tuple(keep))
        for e, c in self.terms.items():
            coef = c
            ne = []
            for v, k in zip(self.vars, e):
                if v in values:
                    coef *= _as_fraction(values[v]) ** k
                else:
                    ne.append(k)
            out = out + MultiPoly(tuple(keep), {tuple(ne): coef})
        return out

    # -- division -----------------------------------------------------

    def exact_div(self, d: MultiPoly) -> MultiPoly:
        """Exact quotient self / d; raises if d does not divide self."""
        self._check(d)
        if d.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = self
        q_terms: dict[tuple[int, ...], Fraction] = {}
        de, dc = d.leading()
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                raise ValueError("not an exact division")
            qc = rc / dc
            q_terms[qe] = qc
            rem = rem - MultiPoly(self.vars, {qe: qc}) * d
        return MultiPoly(self.vars, q_terms)

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
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k > 0
            )
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
    den_lcm = 1
    for c in f.terms.values():
        den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
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
