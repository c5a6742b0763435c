"""Gluing chart-wise logarithmic flat connections on the punctured plane
into a single polynomial connection.

The geometry is fixed: weights (p, q), the scaling action
mu * (x, y) = (mu^p x, mu^q y), a reduced weighted-homogeneous divisor
f(x, y), and the two charts x != 0 and y != 0.  Connection matrices are
taken against the frame (E, delta) with E = p x d/dx + q y d/dy and
delta = f_y d/dx - f_x d/dy, which satisfy [E, delta] = w delta for
w = deg(f) - p - q.

The gluing factors the transition as T = Q(z) diag(z^{d_i}) R(1/z) with
z = x^{-q/g} y^{p/g} the basic invariant (g = gcd(p, q)); the frame
change G_x = Q diag(x^{-q d_i / g}) is regular on the x-chart,
G_y = R^{-1} diag(y^{-p d_i / g}) on the y-chart, and G_x = T G_y, so the
regauged connection matrices agree on the overlap and are polynomial.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .bilaurent import VARS, bmat_diag_monomial, bmat_from_laurent, bmat_mul
from .birkhoff import birkhoff_factorize
from .laurent import Transition, lmat_identity, lmat_inverse, lmat_mul
from .multipoly import MultiPoly
from .saito import (LogConnection, SaitoSystem, VectorField, euler_check,
                    flatness_check)
from . import matrices as qm


@dataclass(frozen=True)
class ConnectionData:
    """Chart-wise presentation of a logarithmic flat connection on the
    punctured plane: one connection matrix per frame field (E, delta) per
    chart, plus the transition between the chart frames."""
    p: int
    q: int
    divisor: MultiPoly
    omega_x: tuple      # (Omega_E, Omega_delta), Laurent matrices in (x, y), x-chart
    omega_y: tuple
    transition: Transition

    @property
    def rank(self) -> int:
        return self.transition.rank


@dataclass(frozen=True)
class ExtendedConnection:
    """A global polynomial connection with the verified chart gauges."""
    connection: LogConnection
    twist_exponents: tuple   # d_i of the transition factorization
    gauge_x: tuple           # Laurent matrix G_x (global frame = chart frame . G)
    gauge_y: tuple


def frame_fields(divisor: MultiPoly, p: int, q: int):
    """The weighted Euler field and the Hamiltonian field of the divisor."""
    if divisor.vars != VARS:
        raise ValueError("divisor must be a polynomial in (x, y)")
    x = MultiPoly.var(VARS, "x")
    y = MultiPoly.var(VARS, "y")
    e = VectorField((x * p, y * q))
    d = VectorField((divisor.derivative("y"), -divisor.derivative("x")))
    return e, d


def _bl(terms=None):
    """A two-variable Laurent polynomial in (x, y)."""
    return MultiPoly(VARS, terms, laurent=True)


def _gauge(omega: list, g: list, g_inv: list, field: VectorField) -> list:
    """G^{-1} Omega G + G^{-1} xi(G): the connection matrix in the frame
    (old frame) . G."""
    return qm.mat_add(bmat_mul(bmat_mul(g_inv, omega), g),
                      bmat_mul(g_inv, field.apply_matrix(g)))


def _chart_gauges(p: int, q: int, q_mat: list, r_mat: list, d_exps) -> tuple:
    """(G_x, G_x^{-1}, G_y, G_y^{-1}) for T = Q(z) diag(z^{d_i}) R(1/z):
    G_x = Q diag(x^{-q d_i / g}) and G_y = R^{-1} diag(y^{-p d_i / g}),
    with z = x^{-q/g} y^{p/g}."""
    g = int_gcd(p, q)
    zx, zy = -q // g, p // g
    gx = bmat_mul(bmat_from_laurent(q_mat, zx, zy),
                  bmat_diag_monomial([-q * d // g for d in d_exps], "x"))
    gx_inv = bmat_mul(bmat_diag_monomial([q * d // g for d in d_exps], "x"),
                      bmat_from_laurent(lmat_inverse(q_mat), zx, zy))
    gy = bmat_mul(bmat_from_laurent(lmat_inverse(r_mat), zx, zy),
                  bmat_diag_monomial([-p * d // g for d in d_exps], "y"))
    gy_inv = bmat_mul(bmat_diag_monomial([p * d // g for d in d_exps], "y"),
                      bmat_from_laurent(r_mat, zx, zy))
    return gx, gx_inv, gy, gy_inv


def _flat_bilaurent(omega_e, omega_d, fields, w: Fraction) -> bool:
    """w Omega_delta = E(Omega_delta) - delta(Omega_E) + [Omega_E, Omega_delta],
    over two-variable Laurent polynomials."""
    e_field, d_field = fields
    lhs = qm.mat_scale(omega_d, w)
    rhs = qm.mat_sub(e_field.apply_matrix(omega_d), d_field.apply_matrix(omega_e))
    rhs = qm.mat_add(rhs, qm.mat_sub(bmat_mul(omega_e, omega_d),
                                     bmat_mul(omega_d, omega_e)))
    return qm.mat_eq(lhs, rhs)


def extend_connection(data: ConnectionData) -> ExtendedConnection:
    """Glue the chart data into one polynomial logarithmic flat connection.

    Every flat logarithmic connection on the punctured plane extends
    (Mebkhout's theorem for weighted homogeneous curves), so ValueError
    means only that the data do not present one: invalid geometry, a pole
    off the chart's axis, a non-flat chart, or charts incompatible across
    the transition.  The returned connection is verified (polynomiality,
    flatness, and both chart gauge identities, exactly).
    """
    p, q, f = data.p, data.q, data.divisor
    if p < 1 or q < 1:
        raise ValueError("weights must be positive")
    deg = euler_check(f, (p, q))
    if deg is None:
        raise ValueError("divisor is not weighted homogeneous for these weights")
    fields = frame_fields(f, p, q)
    w = deg - p - q
    m = data.rank
    for mat in data.omega_x:
        if not all(entry.min_exp(1) >= 0 for row in mat for entry in row):
            raise ValueError("x-chart matrix has a pole off x = 0")
    for mat in data.omega_y:
        if not all(entry.min_exp(0) >= 0 for row in mat for entry in row):
            raise ValueError("y-chart matrix has a pole off y = 0")
    if not _flat_bilaurent(*data.omega_x, fields, w):
        raise ValueError("x-chart connection is not flat")
    if not _flat_bilaurent(*data.omega_y, fields, w):
        raise ValueError("y-chart connection is not flat")

    # transition as a two-variable object: z = x^{-q/g} y^{p/g}
    g = int_gcd(p, q)
    zx, zy = -q // g, p // g
    t_bl = bmat_from_laurent(data.transition.matrix, zx, zy)
    t_inv_bl = bmat_from_laurent(lmat_inverse(data.transition.matrix), zx, zy)
    for k, field in enumerate(fields):
        expected = _gauge(data.omega_x[k], t_bl, t_inv_bl, field)
        if not qm.mat_eq(expected, data.omega_y[k]):
            raise ValueError(f"charts are incompatible across the transition "
                             f"(frame field {k})")

    # factor T = Q(z) diag(z^{d_i}) R(1/z) by factorizing in the inverted
    # variable, where the polynomial factor comes out on the left.
    t_hat = Transition([[entry.invert_variable() for entry in row]
                        for row in data.transition.matrix])
    fac = birkhoff_factorize(t_hat)
    d_exps = tuple(-e for e in fac.diag)
    q_mat = [[entry.invert_variable() for entry in row] for row in fac.pminus]
    r_mat = [[entry.invert_variable() for entry in row] for row in fac.pplus]
    gx, gx_inv, gy, gy_inv = _chart_gauges(p, q, q_mat, r_mat, d_exps)

    omegas = []
    for k, field in enumerate(fields):
        from_x = _gauge(data.omega_x[k], gx, gx_inv, field)
        from_y = _gauge(data.omega_y[k], gy, gy_inv, field)
        if not qm.mat_eq(from_x, from_y):
            raise AssertionError("the two chart regaugings disagree")
        if not all(entry.is_polynomial() for row in from_x for entry in row):
            raise AssertionError("regauged connection matrix is not polynomial")
        omegas.append([[MultiPoly(VARS, entry.terms) for entry in row]
                       for row in from_x])

    system = SaitoSystem(fields=fields, divisor=f)
    conn = LogConnection(system=system,
                         omegas=tuple(tuple(tuple(r) for r in om) for om in omegas),
                         rank=m)
    if not flatness_check(conn):
        raise AssertionError("glued connection failed the flatness check")
    return ExtendedConnection(
        connection=conn,
        twist_exponents=d_exps,
        gauge_x=tuple(tuple(row) for row in gx),
        gauge_y=tuple(tuple(row) for row in gy))


# -- corpus generation ------------------------------------------------------

DIVISORS = {
    "cross": (1, 1, {(1, 1): 1}),                      # f = x y
    "cusp": (3, 2, {(2, 0): 1, (0, 3): -1}),           # f = x^2 - y^3
}


def _weighted_monomials(p: int, q: int, max_exp: int = 2):
    out = []
    for i in range(max_exp + 1):
        for j in range(max_exp + 1):
            out.append((i, j, p * i + q * j))
    return out


def _random_unimodular(rng, m: int, var: str, antivariable: bool):
    out = lmat_identity(m, var)
    for _ in range(rng.randint(1, 2)):
        if m == 1:
            break
        i, j = rng.sample(range(m), 2)
        e = rng.randint(0, 2) * (-1 if antivariable else 1)
        c = Fraction(rng.choice([1, -1, 2]))
        op = lmat_identity(m, var)
        op[i][j] = MultiPoly((var,), {(e,): c}, laurent=True)
        out = lmat_mul(out, op)
    return out


def generate_connection_corpus(divisor: str, count: int, seed: int = 0):
    """Random chart-wise flat connection data on the named divisor.

    Each instance is built from a planted global flat connection pushed out
    to the charts through random equivariant gauges, so every instance is
    extendable by construction; the generator records nothing about the
    plant, and the extension pipeline re-derives everything.
    """
    p, q, fterms = DIVISORS[divisor]
    f = MultiPoly(VARS, fterms)
    fields = frame_fields(f, p, q)
    w = euler_check(f, (p, q)) - p - q
    rng = random.Random(seed)
    monos = _weighted_monomials(p, q)
    out = []
    while len(out) < count:
        m = rng.choice([1, 2, 2])
        if m == 1:
            alpha = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            omega_e = [[_bl({(0, 0): alpha})]]
            omega_d = [[_bl()]]
        else:
            i, j, mu = rng.choice(monos)
            alpha2 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            alpha1 = alpha2 + w - mu
            c = Fraction(rng.choice([0, 1, -1, 2]))
            omega_e = [[_bl({(0, 0): alpha1}), _bl()],
                       [_bl(), _bl({(0, 0): alpha2})]]
            omega_d = [[_bl(), _bl({(i, j): c})],
                       [_bl(), _bl()]]
        if not _flat_bilaurent(omega_e, omega_d, fields, Fraction(w)):
            raise AssertionError("planted connection is not flat")
        q0 = _random_unimodular(rng, m, "z", antivariable=False)
        r0 = _random_unimodular(rng, m, "z", antivariable=True)
        d = [rng.randint(-2, 2) for _ in range(m)]
        dmat = [[MultiPoly(("z",), {(d[i],): int(i == j)}, laurent=True)
                 for j in range(m)] for i in range(m)]
        t = Transition(lmat_mul(lmat_mul(q0, dmat), r0))
        gx, gx_inv, gy, gy_inv = _chart_gauges(p, q, q0, r0, d)
        glob = (omega_e, omega_d)
        omega_x, omega_y = [], []
        for k, field in enumerate(fields):
            # inverse of the regauging: chart matrix from the global one
            ox = qm.mat_sub(bmat_mul(bmat_mul(gx, glob[k]), gx_inv),
                            bmat_mul(field.apply_matrix(gx), gx_inv))
            oy = qm.mat_sub(bmat_mul(bmat_mul(gy, glob[k]), gy_inv),
                            bmat_mul(field.apply_matrix(gy), gy_inv))
            omega_x.append(ox)
            omega_y.append(oy)
        out.append(ConnectionData(p=p, q=q, divisor=f,
                                  omega_x=tuple(omega_x), omega_y=tuple(omega_y),
                                  transition=t))
    return out
