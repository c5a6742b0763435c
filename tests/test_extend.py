"""Gluing chart-wise logarithmic connections on the punctured plane into
global polynomial connections."""
import random
from fractions import Fraction

import pytest

from logflat import matrices as qm
from logflat.extend import (DIVISORS, ConnectionData, extend_connection,
                            frame_fields, generate_connection_corpus)
from logflat.laurent import Transition
from logflat.multipoly import MultiPoly
from logflat.saito import flatness_check, lie_bracket

XY = ("x", "y")


def bl(c=0):
    """A constant Laurent polynomial in (x, y)."""
    return MultiPoly.constant(XY, c, laurent=True)


def mono(e, c=1):
    """The Laurent monomial c z^e."""
    return MultiPoly(("z",), {(e,): c}, laurent=True)


def zero():
    return mono(0, 0)


def cross_divisor():
    return MultiPoly.var(XY, "x") * MultiPoly.var(XY, "y")


def cusp_divisor():
    return MultiPoly.var(XY, "x") ** 2 - MultiPoly.var(XY, "y") ** 3


def test_frame_fields_bracket_weight():
    # [E, delta] = w delta with w = deg f - p - q
    for name, (p, q, _) in DIVISORS.items():
        f = cross_divisor() if name == "cross" else cusp_divisor()
        e, d = frame_fields(f, p, q)
        br = lie_bracket(e, d)
        w = {"cross": 0, "cusp": 1}[name]
        expected = tuple(c * w for c in d.coefficients)
        assert br.coefficients == expected


def _identity_data(alpha):
    f = cross_divisor()
    om_e = [[bl(alpha)]]
    om_d = [[bl()]]
    t = Transition([[mono(0)]])
    return ConnectionData(1, 1, f, (om_e, om_d), (om_e, om_d), t)


def test_identity_transition_roundtrip():
    ext = extend_connection(_identity_data(Fraction(1, 2)))
    assert ext.twist_exponents == (0,)
    conn = ext.connection
    assert conn.omegas[0][0][0] == MultiPoly.constant(XY, Fraction(1, 2))
    assert conn.omegas[1][0][0].is_zero()


def test_corpus_extends_on_both_divisors():
    for name in ("cross", "cusp"):
        corpus = generate_connection_corpus(name, 8, seed=3)
        assert len(corpus) == 8
        for data in corpus:
            ext = extend_connection(data)
            conn = ext.connection
            assert flatness_check(conn).flat
            for om in conn.omegas:
                for row in om:
                    for p in row:
                        assert all(e[0] >= 0 and e[1] >= 0 for e in p.terms)


def test_extension_gauge_identity_holds():
    # G_x = T~ G_y as matrices of functions on the overlap, where T~ is the
    # transition in (x, y) form; verified at sample points by re-gluing
    from math import gcd

    from logflat.bilaurent import bmat_from_laurent, bmat_mul
    corpus = generate_connection_corpus("cross", 4, seed=9)
    for data in corpus:
        ext = extend_connection(data)
        gg = gcd(data.p, data.q)
        t_bl = bmat_from_laurent(data.transition.matrix,
                                 -data.q // gg, data.p // gg)
        assert qm.mat_eq(ext.gauge_x, bmat_mul(t_bl, ext.gauge_y))


def test_rejects_incompatible_charts():
    data = _identity_data(Fraction(1, 2))
    bad = ConnectionData(data.p, data.q, data.divisor,
                         data.omega_x,
                         ([[bl(Fraction(1, 3))]], [[bl()]]),
                         data.transition)
    with pytest.raises(ValueError):
        extend_connection(bad)


def test_rejects_nonflat_chart_data():
    # rank-2 with non-commuting constant matrices on the cross is not flat
    f = cross_divisor()
    a = [[bl(0), bl(1)],
         [bl(0), bl(0)]]
    b = [[bl(0), bl(0)],
         [bl(1), bl(0)]]
    t = Transition([[mono(0), zero()],
                    [zero(), mono(0)]])
    data = ConnectionData(1, 1, f, (a, b), (a, b), t)
    with pytest.raises(ValueError):
        extend_connection(data)


def test_rejects_non_homogeneous_divisor():
    f = MultiPoly.var(XY, "x") + MultiPoly.var(XY, "y") ** 2
    om = [[bl()]]
    t = Transition([[mono(0)]])
    data = ConnectionData(1, 1, f, (om, om), (om, om), t)
    with pytest.raises(ValueError):
        extend_connection(data)


def test_twist_exponents_match_transition_factorization():
    from logflat.birkhoff import birkhoff_factorize
    corpus = generate_connection_corpus("cusp", 5, seed=11)
    for data in corpus:
        ext = extend_connection(data)
        t_hat = Transition([[p.invert_variable() for p in row]
                            for row in data.transition.matrix])
        fac = birkhoff_factorize(t_hat)
        assert list(ext.twist_exponents) == [-e for e in fac.diag]


def test_corpus_is_deterministic_per_seed():
    a = generate_connection_corpus("cross", 3, seed=5)
    b = generate_connection_corpus("cross", 3, seed=5)
    for da, db in zip(a, b):
        assert da.divisor == db.divisor
        assert da.transition.matrix == db.transition.matrix
