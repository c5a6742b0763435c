"""Logarithmic vector fields: brackets, weighted homogeneity, the freeness
criterion, flatness in a frame of fields, and residues."""
import random
from fractions import Fraction

import pytest

from _oracles import sextic_system, window_structure_constants
from logflat import matrices as qm
from logflat import multipoly, saito
from logflat.extend import DIVISORS, frame_fields
from logflat.multipoly import MultiPoly
from logflat.saito import (LogConnection, NotASaitoSystemError, SaitoSystem,
                           VectorField, euler_check, euler_field,
                           flatness_check, lie_bracket,
                           saito_check, structure_constants)

XY = ("x", "y")


def v2(name):
    return MultiPoly.var(XY, name)


def field2(cx, cy):
    return VectorField((cx, cy))


def const_pmat(a, vs=XY):
    return [[MultiPoly.constant(vs, c) for c in row] for row in a]


def test_bracket_torus_fields_commute():
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    assert lie_bracket(field2(x, z), field2(z, y)).is_zero()


def test_bracket_sl2_relation():
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    e = field2(z, x)    # x d/dy
    f = field2(y, z)    # y d/dx
    h = lie_bracket(f, e)
    assert h.coefficients == (-x, y)


def rand_linear_field(rng):
    return VectorField(tuple(
        MultiPoly(XY, {(1, 0): Fraction(rng.randrange(-2, 3)),
                       (0, 1): Fraction(rng.randrange(-2, 3))})
        for _ in XY))


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(30)
    z = VectorField((MultiPoly.zero(XY), MultiPoly.zero(XY)))
    def add(a, b):
        return VectorField(tuple(p + q for p, q in
                                 zip(a.coefficients, b.coefficients)))
    for _ in range(10):
        a, b, c = (rand_linear_field(rng) for _ in range(3))
        ab = lie_bracket(a, b)
        ba = lie_bracket(b, a)
        assert add(ab, ba).is_zero()
        jac = add(add(lie_bracket(a, lie_bracket(b, c)),
                      lie_bracket(b, lie_bracket(c, a))),
                  lie_bracket(c, lie_bracket(a, b)))
        assert jac.is_zero()


def test_euler_check_examples():
    vs = ("x", "y", "z")
    xyz = MultiPoly.var(vs, "x") * MultiPoly.var(vs, "y") * MultiPoly.var(vs, "z")
    assert euler_check(xyz, (1, 1, 1)) == 3
    cusp = v2("x") ** 2 - v2("y") ** 3
    assert euler_check(cusp, (3, 2)) == 6
    # doubling the weights doubles the degree
    assert euler_check(cusp, (6, 4)) == 12
    assert euler_check(v2("x") + v2("y") ** 2, (1, 1)) is None


def test_saito_check_coordinate_hyperplanes():
    for n in range(2, 6):
        vs = tuple(f"x{i}" for i in range(n))
        f = MultiPoly.constant(vs, 1)
        fields = []
        for i, v in enumerate(vs):
            f = f * MultiPoly.var(vs, v)
            coeffs = [MultiPoly.zero(vs)] * n
            coeffs[i] = MultiPoly.var(vs, v)
            fields.append(VectorField(tuple(coeffs)))
        verdict = saito_check(SaitoSystem(tuple(fields), f))
        assert verdict.free and verdict.unit == 1 and verdict.reduced


def test_saito_check_rejects_nonreduced():
    vs = XY
    x = MultiPoly.var(vs, "x")
    fields = (VectorField((x, MultiPoly.zero(vs))),
              VectorField((MultiPoly.zero(vs), x)))
    verdict = saito_check(SaitoSystem(fields, x * x))
    assert not verdict.free and not verdict.reduced


def test_vanishing_determinant_still_reports_reducedness():
    """A vanishing Saito determinant says nothing about f: xy with the fields
    x d/dx twice is reduced, x^2 y is not, and a zero f is not either."""
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    fields = (field2(x, z), field2(x, z))
    for f, reduced in ((x * y, True), (x * x * y, False), (z, False)):
        verdict = saito_check(SaitoSystem(fields, f))
        assert (verdict.free, verdict.reduced) == (False, reduced)
        assert verdict.witness == "saito determinant vanishes"


def _reflection_arrangement(n, kind):
    """A_{n-1} (the braid arrangement) or B_n with its basic invariant
    derivations sum_i x_i^k d_i (Saito 1980; both are free)."""
    vs = tuple(f"x{i}" for i in range(n))
    x = [MultiPoly.var(vs, v) for v in vs]
    f = MultiPoly.constant(vs, 1)
    if kind == "A":
        powers = range(n)
        factors = [x[i] - x[j] for i in range(n) for j in range(i + 1, n)]
    else:
        powers = range(1, 2 * n, 2)
        factors = x + [x[i] ** 2 - x[j] ** 2 for i in range(n) for j in range(i + 1, n)]
    for h in factors:
        f = f * h
    fields = tuple(VectorField(tuple(xi ** k for xi in x)) for k in powers)
    return SaitoSystem(fields, f)


def test_saito_check_certifies_reflection_arrangements_without_a_gcd(monkeypatch):
    counts = {"squarefree_part": 0, "gcd": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    for name in counts:
        fn = getattr(multipoly, name)
        for module in (multipoly, saito):
            monkeypatch.setattr(module, name, counting(name, fn), raising=False)
    for n, kind in ((5, "A"), (4, "B")):
        verdict = saito_check(_reflection_arrangement(n, kind))
        assert verdict.free and verdict.reduced
    assert counts == {"squarefree_part": 0, "gcd": 0}


def test_saito_check_rejects_wrong_divisor():
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    fields = (field2(x, z), field2(z, y))
    verdict = saito_check(SaitoSystem(fields, x * x - y ** 3))
    assert not verdict.free and verdict.reduced


def _cross_connection(a, b):
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    fields = (field2(x, z), field2(z, y))
    sys = SaitoSystem(fields, x * y)
    return LogConnection(sys, (const_pmat(a), const_pmat(b)), len(a))


def test_flatness_constant_commuting_matrices():
    conn = _cross_connection([[1, 0], [0, 2]], [[3, 0], [0, 4]])
    assert flatness_check(conn).flat


def test_flatness_rejects_noncommuting_constants():
    result = flatness_check(_cross_connection([[0, 1], [0, 0]],
                                              [[0, 0], [1, 0]]))
    assert not result.flat
    assert result.witness == (0, 1)


def test_flatness_polynomial_example_with_point_oracle():
    # Omega_1 = N*y, Omega_2 = -N*y with N = e12 on the coordinate cross:
    # delta_1(Omega_2) - delta_2(Omega_1) + [Omega_1, Omega_2] = -N*y - N*y + 0,
    # while the bracket [x d/dx, y d/dy] = 0 demands zero: not flat.
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    n_mat = [[z, y], [z, z]]
    neg = [[z, -y], [z, z]]
    fields = (field2(x, z), field2(z, y))
    sys = SaitoSystem(fields, x * y)
    conn = LogConnection(sys, (n_mat, neg), 2)
    verdict = flatness_check(conn)

    # independent evaluator: check the flatness equation at random points
    rng = random.Random(31)
    holds_everywhere = True
    for _ in range(20):
        pt = {"x": Fraction(rng.randrange(1, 9)), "y": Fraction(rng.randrange(1, 9))}
        def ev(m):
            return [[p.evaluate(pt) for p in row] for row in m]
        d1o2 = ev(fields[0].apply_matrix(neg))
        d2o1 = ev(fields[1].apply_matrix(n_mat))
        o1, o2 = ev(n_mat), ev(neg)
        rhs = qm.mat_add(qm.mat_sub(d1o2, d2o1), qm.commutator(o1, o2))
        if not qm.is_zero_matrix(rhs):
            holds_everywhere = False
    assert verdict.flat == holds_everywhere
    assert not verdict.flat


def test_flatness_gauge_covariance_constant_conjugation():
    g = qm.qmat([[1, 2], [1, 3]])
    ginv = qm.mat_inv(g)
    for a, b in (([[1, 1], [0, 2]], [[1, 1], [0, 2]]),
                 ([[0, 1], [0, 0]], [[0, 0], [1, 0]])):
        conn = _cross_connection(a, b)
        conj = tuple(const_pmat(qm.mat_mul(qm.mat_mul(ginv, qm.qmat(m)), g))
                     for m in (a, b))
        conj_conn = LogConnection(conn.system, conj, 2)
        assert flatness_check(conj_conn).flat == flatness_check(conn).flat


def test_structure_constants_reject_non_closing_fields():
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    # [y d/dx, x^2 d/dy] = -x^2 d/dx + 2xy d/dy, outside the polynomial span
    with pytest.raises(NotASaitoSystemError):
        structure_constants((field2(y, z), field2(z, x * x)))


def test_euler_field_applies_grading():
    e = euler_field(XY, (3, 2))
    cusp = v2("x") ** 2 - v2("y") ** 3
    assert e.apply(cusp) == 6 * cusp


def test_structure_constants_reject_dependent_fields():
    # the bracket of x d/dx and 2x d/dx vanishes, yet they are no basis
    x = v2("x")
    z = MultiPoly.zero(XY)
    with pytest.raises(NotASaitoSystemError, match="dependent"):
        structure_constants((field2(x, z), field2(x * 2, z)))


def _unimodular_change(rng, fields):
    """The fields U delta for a seeded unimodular polynomial matrix U: a
    product of elementary matrices whose off-diagonal entry has degree <= 1."""
    fields = list(fields)
    vs = fields[0].vars
    for _ in range(3):
        i, j = rng.sample(range(len(fields)), 2)
        a = MultiPoly.constant(vs, rng.randint(-2, 2))
        for v in vs:
            a = a + MultiPoly.var(vs, v) * rng.randint(-2, 2)
        fields[i] = VectorField(tuple(ci + a * cj for ci, cj in
                                      zip(fields[i].coefficients, fields[j].coefficients)))
    return tuple(fields)


def test_cramer_constants_match_the_window_solve():
    """Cramer's rule against the degree-window solve it replaced, exactly: on
    the extend frames, the coordinate cross, the six minor-product fields,
    and seeded unimodular changes of basis of the plane frames."""
    x, y = v2("x"), v2("y")
    z = MultiPoly.zero(XY)
    planes = {"coordinate cross": (field2(x, z), field2(z, y))}
    for name, (p, q, terms) in DIVISORS.items():
        planes[f"{name} frame"] = frame_fields(MultiPoly(XY, terms), p, q)
    cases = dict(planes)
    cases["minor-product fields, n = 3"] = sextic_system().fields
    rng = random.Random(28)
    for name, fields in planes.items():
        for k in range(4):
            cases[f"{name}, change {k}"] = _unimodular_change(rng, fields)
    for name, fields in cases.items():
        expected = window_structure_constants(fields)
        assert expected is not None, name
        assert structure_constants(fields) == expected, name
