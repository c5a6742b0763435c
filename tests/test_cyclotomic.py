"""Cyclotomic polynomials, the quotient-ring number type, and univariate
division, gcd and squarefree parts of one-variable MultiPoly values."""
import random
from fractions import Fraction

import pytest

from logflat.cyclotomic import (QuotientNum, candidate_orders, cyclotomic_split,
                                cyclotomic_upoly, euler_phi)
from logflat.multipoly import MultiPoly, gcd, squarefree_part

T = ("t",)


def upoly(coeffs):
    """A polynomial in t from its coefficients in ascending degree."""
    return MultiPoly(T, {(k,): c for k, c in enumerate(coeffs)})


def cyclo(m, coeffs):
    """The class of upoly(coeffs) in Q[t]/Phi_m."""
    return QuotientNum(cyclotomic_upoly(m), upoly(coeffs))


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_upoly_small_orders():
    assert cyclotomic_upoly(1) == upoly([-1, 1])
    assert cyclotomic_upoly(2) == upoly([1, 1])
    assert cyclotomic_upoly(4) == upoly([1, 0, 1])
    assert cyclotomic_upoly(6) == upoly([1, -1, 1])


def test_product_of_cyclotomics_is_t_power_minus_one():
    for n in (1, 2, 3, 4, 6, 12):
        prod = upoly([1])
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_upoly(d)
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert prod == upoly(expected)


def test_cyclotomic_split_peels_cyclotomic_factors():
    t = MultiPoly.var(("t",), "t")
    one = MultiPoly.constant(("t",), 1)
    p = (t - one) * (t * t + one) * (t - 2 * one)
    factors, rem = cyclotomic_split(p)
    assert dict(factors) == {1: 1, 4: 1}
    assert rem * (1 / rem.leading()[1]) == t - 2 * one


def test_candidate_orders_complete_for_small_degree():
    orders = candidate_orders(2)
    for d in (1, 2, 3, 4, 6):
        assert d in orders


def test_cyclonum_field_axioms():
    rng = random.Random(20)
    m = 12
    def rand_num():
        return cyclo(m, [Fraction(rng.randrange(-3, 4)) for _ in range(4)])
    for _ in range(20):
        a, b = rand_num(), rand_num()
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_zeta_has_exact_order():
    one = QuotientNum(cyclotomic_upoly(6), 1)
    z = QuotientNum.zeta(6, 1)
    powers = [one]
    for _ in range(6):
        powers.append(powers[-1] * z)
    assert powers[6] == one
    assert all(powers[k] != one for k in range(1, 6))
    assert powers[3] == -1


def test_univariate_division_and_gcd():
    rng = random.Random(21)
    for _ in range(15):
        a = upoly([rng.randrange(-4, 5) for _ in range(5)])
        b = upoly([rng.randrange(-4, 5) for _ in range(3)])
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.total_degree() < b.total_degree() or not r
        g = gcd(a, b)
        if a and b:
            _, r1 = divmod(a, g)
            _, r2 = divmod(b, g)
            assert not r1 and not r2


def test_ext_gcd_bezout():
    """The extended Euclid behind QuotientNum.inverse: s * a = 1 modulo Phi_m."""
    rng = random.Random(22)
    for m in (1, 2, 3, 4, 5, 6, 8, 12):
        phi = cyclotomic_upoly(m)
        for _ in range(5):
            a = cyclo(m, [rng.randrange(-3, 4) for _ in range(4)])
            if not a:
                continue
            s = a.inverse()
            assert not divmod(s.poly * a.poly - 1, phi)[1]
    with pytest.raises(ZeroDivisionError):
        cyclo(4, []).inverse()
    # t + 1 is Phi_2 itself, and t^2 - 1 = -2 modulo Phi_4 = t^2 + 1
    assert not cyclo(2, [1, 1])
    assert cyclo(4, [-1, 0, 1]) == QuotientNum(cyclotomic_upoly(4), -2)


def test_quotient_ring_with_a_repeated_factor():
    """Q[t]/(g) for g = (t - 1)^2 (t + 2), which is not a field: a class is
    a unit exactly when its representative vanishes at neither root, the
    inverse is checked by multiplication, and substitute against p(rep)
    expanded in Q[t] and then reduced."""
    g = upoly([-1, 1]) ** 2 * upoly([2, 1])
    rng = random.Random(23)
    units = 0
    for _ in range(30):
        rep = upoly([Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(4)])
        a = QuotientNum(g, rep)
        assert a.poly.total_degree() < 3 and not divmod(rep - a.poly, g)[1]
        p = upoly([rng.randrange(-3, 4) for _ in range(6)])
        expanded = sum((rep ** k * p.coeff(k) for k in range(6)), upoly([]))
        assert a.substitute(p) == QuotientNum(g, expanded)
        if rep.evaluate({"t": 1}) and rep.evaluate({"t": -2}):
            units += 1
            assert a * a.inverse() == 1 and a / a == 1
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
    assert units > 20
    # zero divisors, and g itself, whose class is 0
    for bad in (upoly([-1, 1]), upoly([2, 1]), upoly([-1, 1]) * upoly([3, 1]), g):
        with pytest.raises(ZeroDivisionError):
            QuotientNum(g, bad).inverse()
    # g = t^3 - 3t + 2, so t * (3 - t^2)/2 = 1 in Q[t]/(g)
    assert QuotientNum(g, upoly([0, 1])).inverse() == \
        QuotientNum(g, upoly([Fraction(3, 2), 0, Fraction(-1, 2)]))


def test_squarefree_detection():
    sq = upoly([1, 1]) * upoly([1, 1])
    assert not squarefree_part(sq)[1]
    assert squarefree_part(upoly([-1, 0, 1]))[1]
    assert squarefree_part(sq)[0] == upoly([1, 1])
