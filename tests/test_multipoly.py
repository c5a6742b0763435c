"""Exact multivariate polynomial arithmetic: ring axioms at random points,
exact division, gcd, normalization, squarefree detection."""
import random
from fractions import Fraction

import pytest

from logflat.multipoly import MultiPoly, gcd, normalize, squarefree_part

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


def test_substitute_matches_evaluate():
    rng = random.Random(6)
    for _ in range(10):
        a = rand_poly(rng)
        pt = rand_point(rng)
        partial = a.substitute({"x": pt["x"], "y": pt["y"]})
        assert partial.vars == ("z",)
        assert partial.evaluate({"z": pt["z"]}) == a.evaluate(pt)
        full = a.substitute(pt)
        assert full.is_constant()
        assert full.constant_value() == a.evaluate(pt)


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
