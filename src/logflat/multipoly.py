"""Exact sparse polynomials and Laurent polynomials over the rationals.

A value is an integer polynomial over one positive integer denominator: a
private map from exponent vectors to nonzero int numerators, plus the
denominator, over a fixed tuple of variables, with a graded-lexicographic
term order (variables in declaration order).  The pair is canonical: the
denominator is the lcm of the reduced denominators of the coefficients, so
it shares no factor with every numerator, and equal values have equal
pairs.  Products, sums, derivatives, exact division, ``normalize`` and
``gcd`` all run on Python ints; Fractions appear only at the API edge
(``terms``, ``coeff``, ``leading``, ``constant_value`` and ``evaluate``).

A value whose ``laurent`` flag is set lives in the Laurent ring
Q[x_1^+-1, ..., x_n^+-1] and may have negative exponents; any other value
is a polynomial and a negative exponent is rejected at construction.
Arithmetic with a Laurent operand gives a Laurent value.  The flag is part
of the ring, not of the ring element: equality and hashing ignore it.  A
univariate polynomial is a one-variable value; divmod gives its division
with remainder, which the cyclotomic quotient rings use.  Exact division
and divmod take each leading term of the remainder from a max-heap of its
exponents with lazy deletion (Monagan-Pearce, "Sparse polynomial division
using a heap", JSC 2011).  All operations are pure and deterministic.

``is_reduced`` decides whether a polynomial has a repeated factor with a
one-sided certificate (von zur Gathen-Gerhard, Modern Computer Algebra,
ch. 14): f restricted to one fixed line a + t*b, reduced mod the prime
2^31 - 1, that keeps degree deg f and is coprime to its derivative in
F_p[t] proves f reduced.  Any other outcome is inconclusive, and the exact
``squarefree_part`` decides instead, so a "not reduced" answer always comes
from the exact computation.

``gcd`` of polynomials in several variables is the heuristic gcd of Char,
Geddes and Gonnet ("GCDHEU: heuristic polynomial GCD algorithm based on
integer GCD computation", J. Symbolic Comput. 7, 1989; Geddes, Czapor and
Labahn, Algorithms for Computer Algebra, 1992, ch. 7): the last variable is
set to an integer xi, the images' gcd is found the same way down to integer
gcds, and each level's candidate is rebuilt from the symmetric xi-adic
digits.  A candidate is kept only if its primitive part divides both inputs
exactly, at every level, and xi starts above the bound of the method's
correctness theorem, so a kept candidate is the gcd: the heuristic is exact
whenever it answers.  After six values of xi, or once xi^deg passes
HEURISTIC_GCD_BITS bits, it gives up and a primitive polynomial remainder
sequence over Z decides instead.  One variable is plain Euclid on primitive
remainders.
"""
from __future__ import annotations

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, lcm
from operator import add, neg, sub


def _as_rational(c):
    """c as an int (a bool becomes 0 or 1) or a Fraction."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot coerce {c!r} to a rational")


def _as_fraction(c) -> Fraction:
    c = _as_rational(c)
    return c if isinstance(c, Fraction) else Fraction(c)


def grlex_key(expts: tuple[int, ...]) -> tuple:
    return (sum(expts), expts)


class MultiPoly:
    """A sparse polynomial, or Laurent polynomial, with rational
    coefficients held as int numerators over one int denominator.

    Instances are immutable: no method mutates the numerators after
    construction.  Zero coefficients are never stored.
    """

    __slots__ = ("vars", "_num", "_den", "laurent")

    def __init__(self, variables, terms=None, laurent: bool = False):
        self.vars = tuple(variables)
        self.laurent = bool(laurent)
        clean: dict = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
            if not laurent and any(x < 0 for x in e):
                raise ValueError("negative exponent in MultiPoly")
            c = _as_rational(c)
            if c:
                s = clean.get(e, 0) + c
                if s:
                    clean[e] = s
                else:
                    del clean[e]
        den = lcm(*(c.denominator for c in clean.values()))
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den

    @classmethod
    def _clean(cls, variables, num, den, laurent) -> MultiPoly:
        """Wrap a canonical pair: nonzero int numerators on exponent vectors
        of the right length that suit the ring, and a positive denominator
        coprime to their common content."""
        p = object.__new__(cls)
        p.vars, p._num, p._den, p.laurent = variables, num, den, laurent
        return p

    @classmethod
    def _reduce(cls, variables, num, den, laurent) -> MultiPoly:
        """Wrap nonzero int numerators over a positive denominator, cancelling
        the factor the denominator shares with every numerator."""
        if den != 1:
            g = int_gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        return cls._clean(variables, num, den, laurent)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables, c, laurent: bool = False) -> MultiPoly:
        variables = tuple(variables)
        c = _as_rational(c)
        num = {(0,) * len(variables): c.numerator} if c else {}
        return cls._clean(variables, num, c.denominator, bool(laurent))

    @classmethod
    def var(cls, variables, name, power: int = 1) -> MultiPoly:
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = power
        return cls(variables, {tuple(e): 1})

    @classmethod
    def zero(cls, variables) -> MultiPoly:
        return cls._clean(tuple(variables), {}, 1, False)

    # -- the rational view --------------------------------------------

    @property
    def terms(self) -> dict:
        """The coefficients as a fresh {exponent: Fraction} dict; changing it
        leaves the value alone."""
        den = self._den
        if den == 1:
            return {e: Fraction(c) for e, c in self._num.items()}
        return {e: Fraction(c, den) for e, c in self._num.items()}

    def _fraction(self, c: int) -> Fraction:
        return Fraction(c) if self._den == 1 else Fraction(c, self._den)

    # -- predicates and per-variable data -----------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._num)

    def is_polynomial(self) -> bool:
        """No negative exponent (true of every non-Laurent value)."""
        return all(x >= 0 for e in self._num for x in e)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._fraction(self._num.get((0,) * len(self.vars), 0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        if not self._num:
            return -1
        return max(sum(e) for e in self._num)

    def min_exp(self, i: int = 0) -> int:
        """Lowest exponent of variable i; 0 for the zero polynomial."""
        return min((e[i] for e in self._num), default=0)

    def max_exp(self, i: int = 0) -> int:
        """Highest exponent of variable i; 0 for the zero polynomial."""
        return max((e[i] for e in self._num), default=0)

    def coeff(self, *e: int) -> Fraction:
        return self._fraction(self._num.get(e, 0))

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._num, key=grlex_key)
        return e, self._fraction(self._num[e])

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.vars, other, self.laurent)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        return other

    def _add(self, other: MultiPoly, sign: int) -> MultiPoly:
        """self + sign * other over the lcm of the two denominators."""
        a, b = self._den, other._den
        den = a if a == b else lcm(a, b)
        sa, sb = den // a, sign * (den // b)
        terms = dict(self._num) if sa == 1 else {e: c * sa for e, c in self._num.items()}
        get = terms.get
        for e, c in other._num.items():
            s = get(e, 0) + c * sb
            if s:
                terms[e] = s
            else:
                del terms[e]
        return MultiPoly._reduce(self.vars, terms, den, self.laurent or other.laurent)

    def __add__(self, other):
        return self._add(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._clean(self.vars, {e: -c for e, c in self._num.items()},
                                self._den, self.laurent)

    def __sub__(self, other):
        return self._add(self._coerce(other), -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return MultiPoly._clean(self.vars, {}, 1, self.laurent)
            n = other.numerator
            return MultiPoly._reduce(self.vars, {e: c * n for e, c in self._num.items()},
                                     self._den * other.denominator, self.laurent)
        other = self._coerce(other)
        terms: dict[tuple[int, ...], int] = {}
        get = terms.get
        items2 = list(other._num.items())
        for e1, c1 in self._num.items():
            for e2, c2 in items2:
                e = tuple(map(add, e1, e2))
                terms[e] = get(e, 0) + c1 * c2
        return MultiPoly._reduce(self.vars, {e: c for e, c in terms.items() if c},
                                 self._den * other._den, self.laurent or other.laurent)

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
        return (self.vars == other.vars and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.vars, frozenset(self._num.items()), self._den))

    def shift(self, *k: int) -> MultiPoly:
        """Multiply by the monomial with exponent vector k."""
        if len(k) != len(self.vars):
            raise ValueError("exponent vector length mismatch")
        num = {tuple(map(add, e, k)): c for e, c in self._num.items()}
        if not self.laurent and any(x < 0 for e in num for x in e):
            raise ValueError("negative exponent in MultiPoly")
        return MultiPoly._clean(self.vars, num, self._den, self.laurent)

    def invert_variable(self) -> MultiPoly:
        """Substitute x -> 1/x for every variable x; the result is a Laurent
        value."""
        return MultiPoly._clean(self.vars, {tuple(map(neg, e)): c
                                            for e, c in self._num.items()},
                                self._den, True)

    # -- calculus and evaluation --------------------------------------

    def derivative(self, name: str) -> MultiPoly:
        i = self.vars.index(name)
        terms: dict[tuple[int, ...], int] = {}
        for e, c in self._num.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        return MultiPoly._reduce(self.vars, terms, self._den, self.laurent)

    def evaluate(self, values: dict) -> Fraction:
        """Evaluate at a full assignment of rational values."""
        point = [_as_fraction(values[v]) for v in self.vars]
        total = Fraction(0)
        for e, c in self._num.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= x ** k
            total += term
        return total / self._den

    # -- division -----------------------------------------------------

    def exact_div(self, d: MultiPoly) -> MultiPoly:
        """Exact quotient self / d; raises ValueError if d does not divide
        self.

        The numerators of self are divided by P, the numerators of d over
        their integer content.  P is primitive, so by Gauss's lemma an exact
        quotient is an integer polynomial, and a leading remainder
        coefficient that P's leading coefficient does not divide proves the
        division inexact.  Every
        quotient exponent e must also have e_i >= floor_i, where floor_i is 0
        for polynomials and min_i(self) - min_i(d) for Laurent values (the
        quotient's lowest exponent in each variable)."""
        d = self._coerce(d)
        if not d._num:
            raise ZeroDivisionError("division by zero polynomial")
        laurent = self.laurent or d.laurent
        n = len(self.vars)
        if laurent and self._num:
            floor = tuple(self.min_exp(i) - d.min_exp(i) for i in range(n))
        else:
            floor = (0,) * n
        content = int_gcd(*d._num.values())
        de = max(d._num, key=grlex_key)
        dc = d._num[de] // content
        lower = [(e, c // content) for e, c in d._num.items() if e != de]
        rem = dict(self._num)
        # entry (-deg e, -e) for each remainder exponent e: the smallest entry
        # is the graded-lex largest exponent
        heap = [(-sum(e), tuple(map(neg, e))) for e in rem]
        heapify(heap)
        q_terms: dict[tuple[int, ...], int] = {}
        while heap:
            re = tuple(map(neg, heappop(heap)[1]))
            rc = rem.pop(re, None)
            if rc is None:                 # a stale entry of a cancelled term
                continue
            qe = tuple(map(sub, re, de))
            if any(map(int.__lt__, qe, floor)):
                raise ValueError("not an exact division")
            qc, r = divmod(rc, dc)
            if r:
                raise ValueError("not an exact division")
            q_terms[qe] = qc
            for e, c in lower:             # rem -= qc * x^qe * P
                k = tuple(map(add, qe, e))
                s = rem.get(k)
                if s is None:
                    rem[k] = -qc * c
                    heappush(heap, (-sum(k), tuple(map(neg, k))))
                else:
                    s -= qc * c
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
        # self / d = (Q / self._den) / (content * P / d._den)
        if d._den != 1:
            q_terms = {e: c * d._den for e, c in q_terms.items()}
        return MultiPoly._reduce(self.vars, q_terms, self._den * content, laurent)

    def __divmod__(self, d: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
        """Quotient and remainder of one-variable polynomials: self = q*d + r
        with deg r < deg d.

        A pseudo-division on the numerators N of self and D of d: with L the
        leading coefficient of D and k = deg N - deg D, every quotient
        coefficient of s*N by D is an integer for s = |L|^(k+1), so long
        division of s*N gives s*N = Q*D + R over Z."""
        d = self._coerce(d)
        if len(self.vars) != 1:
            raise ValueError("univariate polynomial expected")
        if not d._num:
            raise ZeroDivisionError("division by zero polynomial")
        (dd,) = max(d._num)
        dc = d._num[(dd,)]
        lower = [(e, c) for (e,), c in d._num.items() if e != dd]
        scale = abs(dc) ** max(self.max_exp() - dd + 1, 0)
        rem = {e: c * scale for e, c in self._num.items()}
        heap = [-e for (e,) in rem]
        heapify(heap)
        q_terms: dict[tuple[int, ...], int] = {}
        while heap:
            top = -heap[0]
            if top < dd:
                break
            heappop(heap)
            rc = rem.pop((top,), None)
            if rc is None:
                continue
            qc = rc // dc
            k = top - dd
            q_terms[(k,)] = qc
            for e, c in lower:             # rem -= qc * t^k * D
                key = (e + k,)
                s = rem.get(key)
                if s is None:
                    rem[key] = -qc * c
                    heappush(heap, -(e + k))
                else:
                    s -= qc * c
                    if s:
                        rem[key] = s
                    else:
                        del rem[key]
        # self = N / a and d = D / b, so self = (Q*b / (s*a)) * d + R / (s*a)
        den = self._den * scale
        if d._den != 1:
            q_terms = {e: c * d._den for e, c in q_terms.items()}
        return (MultiPoly._reduce(self.vars, q_terms, den, self.laurent),
                MultiPoly._reduce(self.vars, rem, den, self.laurent))

    def divides(self, other: MultiPoly) -> bool:
        try:
            other.exact_div(self)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    # -- printing -----------------------------------------------------

    def __repr__(self):
        if not self._num:
            return "MultiPoly(0)"
        parts = []
        for e in sorted(self._num, key=grlex_key, reverse=True):
            c = self._fraction(self._num[e])
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
    num = f._num
    c = int_gcd(*num.values())
    if num[max(num, key=grlex_key)] < 0:
        c = -c
    if c != 1:
        num = {e: x // c for e, x in num.items()}
    return MultiPoly._clean(f.vars, num, 1, f.laurent)


def _split_main(f: MultiPoly) -> dict[int, MultiPoly]:
    """View the integer polynomial f (denominator 1) as univariate in its
    first variable with coefficients in the remaining variables."""
    rest = f.vars[1:]
    out: dict[int, dict] = {}
    for e, c in f._num.items():
        out.setdefault(e[0], {})[e[1:]] = c
    return {k: MultiPoly._clean(rest, v, 1, False) for k, v in out.items()}


def _join_main(coeffs: dict[int, MultiPoly], variables) -> MultiPoly:
    """Inverse of ``_split_main`` on integer coefficient polynomials."""
    num: dict[tuple[int, ...], int] = {}
    for k, p in coeffs.items():
        for e, c in p._num.items():
            num[(k,) + e] = c
    return MultiPoly._clean(variables, num, 1, False)


def _pseudo_rem(f: dict[int, MultiPoly], g: dict[int, MultiPoly], rest) -> dict[int, MultiPoly]:
    """Pseudo-remainder of f by g, both univariate with MultiPoly coefficients."""
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

    Works on the integer numerators (the gcd over Q ignores scalars).  One
    variable: Euclid with each remainder made primitive.  Several: the
    heuristic gcd (GCDHEU, see the module docstring), each level's
    candidate verified by exact division of both inputs; when it gives up
    (six values of xi, or xi^deg past HEURISTIC_GCD_BITS bits) the
    primitive PRS of ``_prs_gcd`` decides.  Both give the same normalized
    gcd.
    """
    if f.vars != g.vars:
        raise ValueError("variable mismatch")
    if f.is_zero():
        return normalize(g)
    if g.is_zero():
        return normalize(f)
    if not f.vars or (f.is_constant() or g.is_constant()):
        return MultiPoly.constant(f.vars, 1)

    if len(f.vars) == 1:
        # Euclid with each remainder made primitive: a primitive PRS over Z,
        # since divmod runs on the numerators
        f, g = normalize(f), normalize(g)
        while g:
            f, g = g, normalize(divmod(f, g)[1])
        return f

    h = _heuristic_gcd(f.vars, f._num, g._num)
    if h is not None:
        return normalize(MultiPoly._clean(f.vars, h, 1, False))
    return _prs_gcd(f, g)


# Largest bit length of xi^deg (deg the larger degree in the evaluated
# variable) at any level of the heuristic gcd.  It bounds every integer the
# heuristic builds to about this many bits plus the input's own size; the
# braid, Coxeter and sextic divisors of the benchmark stay under 2^12.
HEURISTIC_GCD_BITS = 2**15
HEURISTIC_GCD_TRIES = 6


def _heuristic_start(a: dict, b: dict) -> int:
    """The first evaluation point: 2 min(|a|_inf, |b|_inf) + 29."""
    return 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 29


def _heuristic_gcd(variables, a: dict, b: dict) -> dict | None:
    """gcd of the nonzero integer polynomials a and b (numerator maps over
    `variables`), with its integer content and up to sign, or None when the
    heuristic gives up.

    The last variable is set to an integer xi larger than twice the
    coefficients of a or of b, and the gcd gamma of the images (one variable
    fewer; plain integers at the bottom) is found the same way.  G, the
    polynomial whose coefficients in the last variable are gamma's
    symmetric xi-adic digits, is the candidate.  Its primitive part P is
    kept only if P divides a and b exactly; then P is their primitive gcd
    (the correctness theorem of GCDHEU, which needs xi >= 2 min(|a|, |b|)
    + 2), and P times the gcd of the integer contents is returned.  After a
    failure xi grows by 73794/27011, at most HEURISTIC_GCD_TRIES times.
    """
    if not variables:
        return {(): int_gcd(a[()], b[()])}
    rest = variables[:-1]
    deg = max(e[-1] for part in (a, b) for e in part)
    xi = _heuristic_start(a, b)
    for _ in range(HEURISTIC_GCD_TRIES):
        if xi.bit_length() * deg > HEURISTIC_GCD_BITS:
            return None
        av, bv = _evaluate_last(a, xi, deg), _evaluate_last(b, xi, deg)
        if av and bv:
            gamma = _heuristic_gcd(rest, av, bv)
            if gamma is None:      # an inner failure ends the heuristic
                return None
            cand = _symmetric_digits(gamma, xi)
            content = int_gcd(*cand.values())
            cand = {e: c // content for e, c in cand.items()}
            p = MultiPoly._clean(variables, cand, 1, False)
            if all(p.divides(MultiPoly._clean(variables, x, 1, False)) for x in (a, b)):
                common = int_gcd(*a.values(), *b.values())
                return cand if common == 1 else {e: c * common for e, c in cand.items()}
        xi = xi * 73794 // 27011
    return None


def _evaluate_last(a: dict, xi: int, deg: int) -> dict:
    """The integer polynomial a with its last variable set to xi."""
    powers = [1]
    for _ in range(deg):
        powers.append(powers[-1] * xi)
    out: dict = {}
    get = out.get
    for e, c in a.items():
        k = e[:-1]
        out[k] = get(k, 0) + c * powers[e[-1]]
    return {e: c for e, c in out.items() if c}


def _symmetric_digits(gamma: dict, xi: int) -> dict:
    """The polynomial sum_i g_i * x^i, x a new last variable, with
    gamma = sum_i g_i * xi^i and every coefficient of each g_i in
    (-xi/2, xi/2]."""
    half = xi // 2
    out: dict = {}
    for e, c in gamma.items():
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[e + (i,)] = d
            c = (c - d) // xi
            i += 1
    return out


def _prs_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Normalized gcd of nonconstant polynomials in two or more variables by
    a primitive polynomial remainder sequence: pseudo-remainders in the
    first variable with content extraction at each step, recursing on the
    trailing variables through ``gcd``."""
    rest = f.vars[1:]
    fu = _split_main(normalize(f))
    gu = _split_main(normalize(g))

    def primitive(u: dict[int, MultiPoly]) -> tuple[MultiPoly, dict[int, MultiPoly]]:
        """Content in the trailing variables and the primitive part, with the
        integer content of all coefficients divided out first."""
        ic = int_gcd(*(c for v in u.values() for c in v._num.values()))
        if ic != 1:
            u = {k: MultiPoly._clean(rest, {e: c // ic for e, c in v._num.items()}, 1, False)
                 for k, v in u.items()}
        c = MultiPoly.zero(rest)
        for coef in u.values():
            c = gcd(c, coef)
            if c.is_constant():        # normalized, so c = 1
                return c, u
        return c, {k: v.exact_div(c) for k, v in u.items()}

    cf, fp = primitive(fu)
    cg, gp = primitive(gu)
    if max(fp) < max(gp):
        fp, gp = gp, fp
    # primitive PRS on primitive parts
    a, b = fp, gp
    while True:
        r = _pseudo_rem(a, b, rest)
        if not r:
            break
        a, b = b, primitive(r)[1]
    cont_gcd = gcd(cf, cg)
    prim = _join_main(b, f.vars)
    return normalize(prim * _lift(cont_gcd, f.vars))


def _lift(p: MultiPoly, variables) -> MultiPoly:
    """Lift a polynomial in trailing variables to the full variable list."""
    return MultiPoly._clean(variables, {(0,) + e: c for e, c in p._num.items()},
                            p._den, False)


def _reduced_on_line(f: MultiPoly) -> bool:
    """True when one fixed line certifies that f is reduced; False means
    the line cannot decide, not that f has a square factor.

    g(t) = f(a + t*b) is taken mod p = 2^31 - 1 on fixed integer a, b.  If
    g mod p keeps degree deg f and gcd(g, g') = 1 in F_p[t], then disc(g)
    is nonzero, so g is squarefree over Q; a square h^2 dividing f would
    restrict to a square of positive degree on a line that keeps the
    degree, so f is reduced.  The numerators of f are used: when p does not
    divide the denominator, they are a unit multiple of f mod p.
    """
    p = 2**31 - 1
    d = f.total_degree()
    if not 0 <= d < p or f._den % p == 0:
        return False

    def mul(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] += x * y
        return [c % p for c in out]

    def rem(u, v):                 # u mod v for trimmed lists, low degree first
        u, inv = list(u), pow(v[-1], -1, p)
        while len(u) >= len(v):
            off = len(u) - len(v)
            q = u.pop() * inv % p
            for j, y in enumerate(v[:-1]):
                u[off + j] = (u[off + j] - q * y) % p
        while u and not u[-1]:
            u.pop()
        return u

    # powers[i][k] = (a_i + t*b_i)^k mod p; the line comes from a fixed seed
    rng, powers = random.Random(2023), []
    for i in range(len(f.vars)):
        line = [rng.randrange(1, p), rng.randrange(1, p)]
        powers.append([[1]])
        for _ in range(f.max_exp(i)):
            powers[i].append(mul(powers[i][-1], line))
    g = [0] * (d + 1)
    for e, c in f._num.items():
        term = [c % p]
        for i, k in enumerate(e):
            if k:
                term = mul(term, powers[i][k])
        for j, x in enumerate(term):
            g[j] += x
    g = [x % p for x in g]
    if not g[d]:
        return False
    u, v = g, [k * g[k] % p for k in range(1, d + 1)]
    while v:
        u, v = v, rem(u, v)
    return len(u) == 1


def is_reduced(f: MultiPoly) -> bool:
    """Whether the polynomial f has no repeated factor: certified on one line
    mod p when that decides, else the exact ``squarefree_part(f)[1]``."""
    return _reduced_on_line(f) or squarefree_part(f)[1]


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
