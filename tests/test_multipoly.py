"""Exact multivariate polynomial arithmetic: ring axioms at random points,
exact division, gcd, normalization, squarefree detection, the line
certificate of reducedness against the exact squarefree part, and the
integer kernels against the Fraction oracles of tests/_oracles.py."""
import random
from fractions import Fraction
from math import prod

import pytest

from _oracles import (fraction_divmod, fraction_exact_div, fraction_gcd,
                      fraction_normalize, fraction_poly_mul)
from logflat import multipoly
from logflat.castling import minor_product_divisor, minor_product_variables
from logflat.multipoly import MultiPoly, gcd, is_reduced, normalize, squarefree_part
from logflat.saito import SaitoSystem, VectorField, saito_check

VS = ("x", "y", "z")


def rand_poly(rng, nterms=4, deg=3, dim=3):
    vs = VS[:dim]
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in vs)
        terms[e] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return MultiPoly(vs, terms)


def rand_point(rng, dim=3):
    return {v: Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
            for v in VS[:dim]}


def test_constructor_drops_zero_terms():
    p = MultiPoly(VS, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert p.terms == {(0, 1, 0): Fraction(2)}


def test_ring_axioms_at_random_points():
    rng = random.Random(1)
    for _ in range(30):
        a, b, c = (rand_poly(rng) for _ in range(3))
        pt = rand_point(rng)
        ev = lambda p: p.evaluate(pt)
        assert ev(a + b) == ev(a) + ev(b)
        assert ev(a * b) == ev(a) * ev(b)
        assert ev(a * (b + c)) == ev(a * b + a * c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_power_and_neg():
    x = MultiPoly.var(VS, "x")
    y = MultiPoly.var(VS, "y")
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert -(x - y) == y - x
    assert (x + y) ** 0 == MultiPoly.constant(VS, 1)


def test_derivative_leibniz():
    rng = random.Random(2)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        for v in VS:
            lhs = (a * b).derivative(v)
            rhs = a.derivative(v) * b + a * b.derivative(v)
            assert lhs == rhs


def test_exact_div_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_rejects_nondivisor():
    x = MultiPoly.var(VS, "x")
    y = MultiPoly.var(VS, "y")
    with pytest.raises(ValueError):
        (x * x + y).exact_div(x)


def test_gcd_divides_both_and_scales():
    rng = random.Random(4)
    for _ in range(12):
        a = rand_poly(rng, nterms=3, deg=2, dim=2)
        b = rand_poly(rng, nterms=3, deg=2, dim=2)
        g = rand_poly(rng, nterms=2, deg=2, dim=2)
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        d = gcd(a * g, b * g)
        assert g.divides(d)
        assert d.divides(a * g) and d.divides(b * g)


def test_gcd_of_coprime_is_constant():
    vs = ("x", "y")
    x = MultiPoly.var(vs, "x")
    y = MultiPoly.var(vs, "y")
    assert gcd(x, y).is_constant()
    assert gcd(x + y, x - y).is_constant()


def test_normalize_idempotent_and_proportional():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_poly(rng)
        if a.is_zero():
            continue
        n = normalize(a)
        assert normalize(n) == n
        assert normalize(a * Fraction(-7, 3)) == n


def test_squarefree_part_detects_squares():
    vs = ("x", "y")
    x = MultiPoly.var(vs, "x")
    y = MultiPoly.var(vs, "y")
    f = (x + y) ** 2 * (x - y)
    sf, was_reduced = squarefree_part(f)
    assert not was_reduced
    assert normalize(sf) == normalize((x + y) * (x - y))
    sf2, reduced2 = squarefree_part((x + y) * (x - y))
    assert reduced2


# -- reducedness: the line certificate and its exact fallback -------------------

P = 2**31 - 1          # the prime of the line certificate
VS4 = ("x", "y", "z", "w")


def counting_squarefree_part(monkeypatch):
    """Record every exact squarefree-part computation is_reduced falls back to."""
    calls = []

    def counting(f):
        calls.append(f)
        return squarefree_part(f)

    monkeypatch.setattr(multipoly, "squarefree_part", counting)
    return calls


def rand_rational_poly(rng, dim, nterms, deg):
    """Coefficients with denominators up to 10^6, exponents up to deg."""
    return MultiPoly(VS4[:dim], {
        tuple(rng.randrange(deg + 1) for _ in range(dim)):
        Fraction(rng.randint(-9, 9), rng.randint(1, 10**6))
        for _ in range(nterms)})


def test_is_reduced_agrees_with_squarefree_part(monkeypatch):
    calls = counting_squarefree_part(monkeypatch)
    rng = random.Random(12)
    planted = certified = 0
    for _ in range(80):
        dim = rng.randint(1, 4)
        h = rand_rational_poly(rng, dim, rng.randint(1, 3), 2 if dim < 3 else 1)
        k = rand_rational_poly(rng, dim, rng.randint(1, 3), 1)
        if h.total_degree() < 1 or k.is_zero():
            continue
        for f in (h * k, h * h * k):
            del calls[:]
            verdict = is_reduced(f)
            assert verdict == squarefree_part(f)[1]
            certified += not calls
        # a planted square is never certified: the exact part decides
        assert not verdict and len(calls) == 1
        planted += 1
    assert planted >= 40 and certified >= 20


def test_is_reduced_falls_back_on_a_denominator_divisible_by_p(monkeypatch):
    calls = counting_squarefree_part(monkeypatch)
    x, y = (MultiPoly.var(VS4[:2], v) for v in "xy")
    assert is_reduced(x * Fraction(1, 3 * P) + y ** 2)
    assert len(calls) == 1
    assert not is_reduced((x * Fraction(1, P) + y) ** 2 * x)
    assert len(calls) == 2


def test_is_reduced_falls_back_when_the_top_form_vanishes_on_the_direction(monkeypatch):
    calls = counting_squarefree_part(monkeypatch)
    # the line's direction b, drawn as in multipoly._reduced_on_line
    rng = random.Random(2023)
    (_, bx), (_, by) = [(rng.randrange(1, P), rng.randrange(1, P)) for _ in "xy"]
    x, y = (MultiPoly.var(VS4[:2], v) for v in "xy")
    # the top-degree form (by*x - bx*y)*x vanishes at b, so g(t) loses its degree
    assert is_reduced((x * by - y * bx) * (x + 1))
    assert len(calls) == 1
    assert is_reduced((x + 1) * (y - 2))
    assert len(calls) == 1


def test_is_reduced_of_constants_and_zero():
    assert is_reduced(MultiPoly.constant(VS4[:2], Fraction(-3, 7)))
    with pytest.raises(ValueError):
        is_reduced(MultiPoly.zero(VS4[:2]))


# -- Laurent values: the same class with the Laurent flag ------------------------

XY = ("x", "y")


def rand_laurent(rng, nterms=3, lo=-2, hi=2):
    return MultiPoly(XY, {(rng.randrange(lo, hi + 1), rng.randrange(lo, hi + 1)):
                          Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
                          for _ in range(nterms)}, laurent=True)


def test_two_variable_laurent_exact_div_roundtrip():
    rng = random.Random(7)
    for _ in range(25):
        q, d = rand_laurent(rng), rand_laurent(rng)
        if d.is_zero():
            continue
        quotient = (q * d).exact_div(d)
        assert quotient == q and quotient.laurent


def test_two_variable_laurent_exact_div_rejects_nondivisor():
    x_inv = MultiPoly(XY, {(-1, 0): 1}, laurent=True)
    y = MultiPoly(XY, {(0, 1): 1}, laurent=True)
    with pytest.raises(ValueError):
        (x_inv + y).exact_div(x_inv * y + 1)
    with pytest.raises(ZeroDivisionError):
        x_inv.exact_div(MultiPoly(XY, laurent=True))


def test_one_over_x_only_in_the_laurent_ring():
    one = MultiPoly.constant(XY, 1)
    x = MultiPoly.var(XY, "x")
    with pytest.raises(ValueError):
        one.exact_div(x)
    x_laurent = MultiPoly(XY, {(1, 0): 1}, laurent=True)
    inverse = MultiPoly.constant(XY, 1, laurent=True).exact_div(x_laurent)
    assert inverse.terms == {(-1, 0): Fraction(1)}
    assert inverse * x == 1


def test_polynomial_times_laurent_is_laurent():
    x = MultiPoly.var(XY, "x")
    y_inv = MultiPoly(XY, {(0, -1): 2}, laurent=True)
    for product in (x * y_inv, y_inv * x, x + y_inv, x - y_inv):
        assert product.laurent
    assert (x * y_inv).terms == {(1, -1): Fraction(2)}
    assert not (x * x).laurent


def test_polynomial_and_laurent_values_compare_and_hash_equal():
    x = MultiPoly.var(XY, "x")
    y = MultiPoly.var(XY, "y")
    p = x * x - 3 * y
    lp = MultiPoly(XY, dict(p.terms), laurent=True)
    assert p == lp and lp == p
    assert hash(p) == hash(lp)
    assert len({p, lp}) == 1


def test_negative_exponent_needs_the_laurent_flag():
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly(XY, {(0, -1): 1})
    p = MultiPoly(XY, {(0, -1): 1, (2, 0): 3}, laurent=True)
    assert p.min_exp(1) == -1 and p.max_exp(0) == 2
    assert p.coeff(2, 0) == 3 and not p.is_polynomial()
    assert not MultiPoly(XY, {(1, -1): 1}, laurent=True).is_constant()


# -- the integer kernels against the Fraction oracles ------------------------------

def rand_oracle_poly(rng, dim, laurent, nterms=None):
    """1-4 variables, denominators up to 10^6; Laurent exponents in [-2, 2]."""
    lo = -2 if laurent else 0
    return MultiPoly(VS4[:dim], {
        tuple(rng.randint(lo, 2) for _ in range(dim)):
        Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        for _ in range(nterms or rng.randint(1, 4))}, laurent)


def outcome(kernel, *args):
    """The kernel's result, or the exception type it raised."""
    try:
        return kernel(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


def test_mul_and_exact_div_match_the_fraction_oracle():
    rng = random.Random(13)
    raised = 0
    for _ in range(120):
        dim, laurent = rng.randint(1, 4), rng.random() < 0.4
        a, d = (rand_oracle_poly(rng, dim, laurent) for _ in range(2))
        product = a * d
        assert product.terms == fraction_poly_mul(a.terms, d.terms)
        # d's content is generic: scale it by an integer on top
        d = d * rng.randint(1, 30)
        inexact = product + rand_oracle_poly(rng, dim, laurent, nterms=1)
        for p in (product, inexact):
            got = outcome(p.exact_div, d)
            want = outcome(fraction_exact_div, p.terms, d.terms, laurent)
            if isinstance(got, MultiPoly):
                assert got.terms == want
            else:
                assert got is want
                raised += got is ValueError
    assert raised >= 40


def test_exact_div_examples_against_the_oracle():
    x, y = (MultiPoly.var(XY, v) for v in XY)
    cases = [
        (x + 1, 2 * x + 2, False),                         # divisor with content
        (x * x * Fraction(3, 4) - y * Fraction(3, 4), x * 6 * x - 6 * y, False),
        (x * x + 1, 2 * x + 2, False),                     # non-exact over Z and Q
        (x * x + 1, 2 * x + 3, False),                     # 2 does not divide 1
        (x, 2 * x + 3, False),
        (x + y, x, False),
        (MultiPoly(XY, {(-1, 0): 3, (0, 2): Fraction(1, 7)}, laurent=True),
         MultiPoly(XY, {(-2, 1): 2}, laurent=True), True),  # the Laurent floor
        (MultiPoly(XY, {(-1, 0): 1, (0, 1): 1}, laurent=True),
         MultiPoly(XY, {(-1, 1): 1, (0, 0): 1}, laurent=True), True),
    ]
    for p, d, laurent in cases:
        got = outcome(p.exact_div, d)
        want = outcome(fraction_exact_div, p.terms, d.terms, laurent)
        assert got.terms == want if isinstance(got, MultiPoly) else got is want
    assert (x + 1).exact_div(2 * x + 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        (x * x + 1).exact_div(2 * x + 2)


def test_gcd_and_normalize_match_the_fraction_oracle():
    rng = random.Random(14)
    for _ in range(40):
        dim = rng.randint(1, 3)
        a, b, g = (rand_oracle_poly(rng, dim, False, nterms=rng.randint(1, 3))
                   for _ in range(3))
        f, h = a * g, b * g
        assert normalize(f).terms == fraction_normalize(f.terms)
        assert gcd(f, h).terms == fraction_gcd(f.terms, h.terms, dim)
    # four variables, smaller factors
    for _ in range(6):
        a, b, g = (rand_oracle_poly(rng, 4, False, nterms=2) for _ in range(3))
        assert gcd(a * g, b * g).terms == fraction_gcd((a * g).terms, (b * g).terms, 4)


# -- the heuristic gcd against the primitive PRS ------------------------------------

XY_X, XY_Y = (MultiPoly.var(XY, v) for v in XY)


def braid_factors(n):
    """The n(n-1)/2 hyperplanes x_i - x_j of the braid arrangement A_{n-1}."""
    vs = tuple(f"x{i}" for i in range(n))
    x = [MultiPoly.var(vs, v) for v in vs]
    return [x[i] - x[j] for i in range(n) for j in range(i + 1, n)]


def coxeter_b_factors(n):
    """The n^2 hyperplanes x_i and x_i -+ x_j of the Coxeter arrangement B_n."""
    vs = tuple(f"x{i}" for i in range(n))
    x = [MultiPoly.var(vs, v) for v in vs]
    return x + [x[i] + s * x[j] for i in range(n) for j in range(i + 1, n) for s in (1, -1)]


def heuristic(f, g):
    """The heuristic gcd alone, normalized; None when it gives up."""
    h = multipoly._heuristic_gcd(f.vars, f._num, g._num)
    return None if h is None else normalize(MultiPoly(f.vars, h))


def test_heuristic_gcd_equals_the_prs_on_seeded_inputs():
    """Coprime pairs, pairs with integer content and rational scalars, and a
    shared factor, in two to four variables: the heuristic answers, and its
    normalized gcd is exactly the PRS's."""
    rng = random.Random(34)
    coprime = shared = 0
    for _ in range(30):
        dim = rng.randint(2, 4)
        a, b, g = (MultiPoly(VS4[:dim], {
            tuple(rng.randint(0, 2) for _ in range(dim)): rng.randint(-9, 9)
            for _ in range(rng.randint(2, 4))}) for _ in range(3))
        if not (a and b and g) or a.is_constant() or b.is_constant():
            continue
        pairs = [(a, b),                                              # coprime or not
                 (a * g * 6, b * g * 10),                             # integer content 2
                 (a * g * Fraction(3, 7), b * g * Fraction(-5, 4))]   # rational scalars
        for f, h in pairs:
            want = multipoly._prs_gcd(f, h)
            assert heuristic(f, h) == want == gcd(f, h)
            coprime += want.is_constant()
            shared += not want.is_constant()
    assert coprime >= 15 and shared >= 60


def sextic_factors():
    """The three 2 x 2 minors whose product is the minor-product sextic."""
    vs = minor_product_variables(3)
    v = {name: MultiPoly.var(vs, name) for name in vs}
    return [v[a + "1"] * v[b + "2"] - v[a + "2"] * v[b + "1"]
            for a, b in ("uv", "vw", "wu")]


@pytest.mark.parametrize("factors", [braid_factors(3), braid_factors(4), coxeter_b_factors(3),
                                     sextic_factors()],
                         ids=["braid3", "braid4", "B3", "sextic"])
def test_heuristic_gcd_on_the_free_divisors(factors):
    """gcd(f, df/dv) for a free divisor f, for f with one factor squared, and
    for two products sharing all but one factor each: the heuristic answers
    and agrees with the PRS, and the squarefree part removes the square."""
    f = prod(factors)
    squared = f * factors[-1]
    cases = [(p, p.derivative(v)) for p in (f, squared) for v in f.vars]
    cases.append((prod(factors[1:]), prod(factors[:-1])))
    for p, q in cases:
        want = multipoly._prs_gcd(p, q)
        assert heuristic(p, q) == want == gcd(p, q)
    assert squarefree_part(squared) == (normalize(f), False)
    assert squarefree_part(f) == (normalize(f), True)


def test_sextic_factors_multiply_to_the_minor_product_divisor():
    assert prod(sextic_factors()) == minor_product_divisor(3)


def test_heuristic_gcd_rejects_a_wrong_candidate(monkeypatch):
    """Started at the top level from xi = 11, below 2 min(|f|, |g|) + 29 =
    133 (the inner levels keep their own start), the first candidate's
    digits overflow: y^2 - 3x - y - 2 does not divide the inputs and is
    rejected, xi grows to 30 by 73794/27011, and the second candidate is the
    gcd 3x - 11y + 13 that the PRS finds."""
    f, g = 7 * XY_X * XY_X + 5 * XY_Y, XY_X - 4 * XY_Y * XY_Y
    d = 3 * XY_X - 11 * XY_Y + 13
    start, digits, candidates = multipoly._heuristic_start, multipoly._symmetric_digits, []

    def top_level_start(a, b):
        return 11 if len(next(iter(a))) == 2 else start(a, b)

    def recording(gamma, xi):
        cand = digits(gamma, xi)
        if len(next(iter(cand))) == 2:
            candidates.append((xi, normalize(MultiPoly(XY, cand))))
        return cand

    monkeypatch.setattr(multipoly, "_heuristic_start", top_level_start)
    monkeypatch.setattr(multipoly, "_symmetric_digits", recording)
    assert start((f * d)._num, (g * d)._num) == 133
    assert heuristic(f * d, g * d) == multipoly._prs_gcd(f * d, g * d) == d
    assert candidates == [(11, XY_Y * XY_Y - 3 * XY_X - XY_Y - 2), (30, d)]


def test_gcd_falls_back_to_the_prs_past_the_bit_budget(monkeypatch):
    """xi^deg past HEURISTIC_GCD_BITS ends the heuristic at once, and the PRS
    decides: on a real input of degree 3000 in the evaluated variable, and on
    the braid divisor under a budget lowered to 8 bits."""
    calls = []
    prs = multipoly._prs_gcd
    monkeypatch.setattr(multipoly, "_prs_gcd", lambda f, g: calls.append(f) or prs(f, g))
    f = (XY_X * 2**20 + XY_Y ** 3000) * (XY_X + XY_Y)
    g = (XY_X * 2**20 - XY_Y ** 3000) * (XY_X + XY_Y)
    assert heuristic(f, g) is None
    assert gcd(f, g) == XY_X + XY_Y and len(calls) == 1
    braid = prod(braid_factors(4))
    want = gcd(braid, braid.derivative("x0"))
    monkeypatch.setattr(multipoly, "HEURISTIC_GCD_BITS", 8)
    assert heuristic(braid, braid.derivative("x0")) is None
    assert gcd(braid, braid.derivative("x0")) == want and len(calls) >= 2


def test_univariate_divmod_matches_the_fraction_oracle():
    rng = random.Random(15)
    t = ("t",)
    for _ in range(60):
        f, d = (MultiPoly(t, {(rng.randint(0, 6),): Fraction(rng.randint(-10**6, 10**6),
                                                             rng.randint(1, 10**6))
                              for _ in range(rng.randint(1, 5))}) for _ in range(2))
        if d.is_zero():
            continue
        q, r = divmod(f, d)
        want_q, want_r = fraction_divmod(f.terms, d.terms)
        assert (q.terms, r.terms) == (want_q, want_r)
        assert q * d + r == f


def test_rational_view_is_fractions_only():
    """Every coefficient the API hands out is a Fraction, never the int
    numerator (int / int would give a float) or a float."""
    x, y = (MultiPoly.var(XY, v) for v in XY)
    values = []
    for p in (x * 3 - y, x * Fraction(1, 6) + Fraction(1, 4), MultiPoly.constant(XY, 5),
              MultiPoly.zero(XY), MultiPoly(XY, {(-1, 2): 4}, laurent=True)):
        values += list(p.terms.values())
        values += [p.coeff(0, 0), p.coeff(1, 0), p.evaluate({"x": 2, "y": 3})]
        if p:
            values.append(p.leading()[1])
        if p.is_constant():
            values.append(p.constant_value())
    fx = x * y * (x - y)
    fields = [VectorField((x, y)), VectorField((x * x, y * y))]
    verdict = saito_check(SaitoSystem(tuple(fields), fx * 2))
    assert verdict.free
    values.append(verdict.unit)
    assert values and all(type(v) is Fraction for v in values)
