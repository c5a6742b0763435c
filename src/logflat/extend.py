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

Gauge identities are checked by multiplication, not through an inverse:
Omega' is the matrix of Omega in the frame (old frame) . G exactly when
G Omega' = Omega G + xi(G) for each frame field xi.  The chart data must
satisfy T Omega_y = Omega_x T + xi(T).  The glued Omega is built once,
from the y-chart, as G_y^{-1} (Omega_y G_y + xi(G_y)), so the y-chart
identity holds by construction; the x-chart identity
G_x Omega = Omega_x G_x + xi(G_x) is checked.  The diagonal twists
diag(x^k) and diag(y^k) are exponent shifts of columns or rows, so the
gluing inverts one Laurent matrix, R for G_y.

Flatness is tested once, on the glued connection.  Under a gauge G the
curvature transforms by conjugation, F' = G^{-1} F G, and the glued Omega
is a gauge transform of each chart's matrices (of the y-chart's by
construction, of the x-chart's by the checked identity), so it is flat
exactly when each chart is.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd

from .bilaurent import VARS, bmat_from_laurent, bmat_mul
from .birkhoff import birkhoff_factorize
from .laurent import Transition, lmat_identity, lmat_inverse, lmat_mul
from .multipoly import MultiPoly
from .saito import (LogConnection, SaitoSystem, VectorField, euler_check,
                    euler_field, flatness_check)
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
    d = VectorField((divisor.derivative("y"), -divisor.derivative("x")))
    return euler_field(VARS, (p, q)), d


def _bl(terms=None):
    """A two-variable Laurent polynomial in (x, y)."""
    return MultiPoly(VARS, terms, laurent=True)


def _transport(omega: list, g: list, field: VectorField) -> list:
    """Omega G + xi(G)."""
    return qm.mat_add(bmat_mul(omega, g), field.apply_matrix(g))


def _gauge(omega: list, g: list, g_inv: list, field: VectorField) -> list:
    """G^{-1} (Omega G + xi(G)): the connection matrix in the frame
    (old frame) . G."""
    return bmat_mul(g_inv, _transport(omega, g, field))


def _is_gauge(omega: list, g: list, omega_g: list, field: VectorField) -> bool:
    """Whether omega_g is omega in the frame (old frame) . G, checked by
    multiplication: G omega_g = omega G + xi(G)."""
    return qm.mat_eq(bmat_mul(g, omega_g), _transport(omega, g, field))


def _chart_gauges(p: int, q: int, q_mat: list, r_mat: list, d_exps) -> tuple:
    """(G_x, G_y, G_y^{-1}) for T = Q(z) diag(z^{d_i}) R(1/z):
    G_x = Q diag(x^{-q d_i / g}) and G_y = R^{-1} diag(y^{-p d_i / g}),
    with z = x^{-q/g} y^{p/g}; each diagonal factor shifts the exponents
    of a column (or, in G_y^{-1}, of a row)."""
    g = int_gcd(p, q)
    zx, zy = -q // g, p // g
    gx = [[e.shift(zx * d, 0) for e, d in zip(row, d_exps)]
          for row in bmat_from_laurent(q_mat, zx, zy)]
    gy = [[e.shift(0, -zy * d) for e, d in zip(row, d_exps)]
          for row in bmat_from_laurent(lmat_inverse(r_mat), zx, zy)]
    gy_inv = [[e.shift(0, zy * d) for e in row]
              for row, d in zip(bmat_from_laurent(r_mat, zx, zy), d_exps)]
    return gx, gy, gy_inv


def extend_connection(data: ConnectionData) -> ExtendedConnection:
    """Glue the chart data into one polynomial logarithmic flat connection.

    Every flat logarithmic connection on the punctured plane extends
    (Mebkhout's theorem for weighted homogeneous curves), so ValueError
    means only that the data do not present one: invalid geometry, chart
    matrices of the wrong number or size, a pole off the chart's axis,
    charts incompatible across the transition, or a non-flat chart.  The
    returned connection is verified exactly: it is polynomial and flat, and
    it satisfies the x-chart gauge identity; the y-chart identity holds by
    construction.  Flatness is checked once, on
    the glued connection: it is a gauge transform of each chart's, and a
    gauge conjugates the curvature.
    """
    p, q, f = data.p, data.q, data.divisor
    if p < 1 or q < 1:
        raise ValueError("weights must be positive")
    deg = euler_check(f, (p, q))
    if deg is None:
        raise ValueError("divisor is not weighted homogeneous for these weights")
    fields = frame_fields(f, p, q)
    system = SaitoSystem(fields=fields, divisor=f)
    m = data.rank
    for chart, other, omegas in (("x", 1, data.omega_x), ("y", 0, data.omega_y)):
        LogConnection(system, omegas, m)    # one rank x rank matrix per frame field
        if any(e.min_exp(other) < 0 for mat in omegas for row in mat for e in row):
            raise ValueError(f"{chart}-chart matrix has a pole off {chart} = 0")

    # transition as a two-variable object: z = x^{-q/g} y^{p/g}
    g = int_gcd(p, q)
    t_bl = bmat_from_laurent(data.transition.matrix, -q // g, p // g)
    for k, field in enumerate(fields):
        if not _is_gauge(data.omega_x[k], t_bl, data.omega_y[k], field):
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
    gx, gy, gy_inv = _chart_gauges(p, q, q_mat, r_mat, d_exps)

    omegas = []
    for k, field in enumerate(fields):
        omega = _gauge(data.omega_y[k], gy, gy_inv, field)
        if not all(entry.is_polynomial() for row in omega for entry in row):
            raise AssertionError("regauged connection matrix is not polynomial")
        if not _is_gauge(data.omega_x[k], gx, omega, field):
            raise AssertionError("the x-chart gauge identity fails")
        omegas.append(tuple(tuple(MultiPoly(VARS, entry.terms) for entry in row)
                            for row in omega))
    conn = LogConnection(system=system, omegas=tuple(omegas), rank=m)
    if not flatness_check(conn):
        raise ValueError("the chart connections are not flat")
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
    system = SaitoSystem(fields=fields, divisor=f)
    w = euler_check(f, (p, q)) - p - q
    g = int_gcd(p, q)
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
        glob = (omega_e, omega_d)
        if not flatness_check(LogConnection(system, glob, m)):
            raise AssertionError("planted connection is not flat")
        q0 = _random_unimodular(rng, m, "z", antivariable=False)
        r0 = _random_unimodular(rng, m, "z", antivariable=True)
        d = [rng.randint(-2, 2) for _ in range(m)]
        q0_d = [[e.shift(k) for e, k in zip(row, d)] for row in q0]    # Q diag(z^d)
        t = Transition(lmat_mul(q0_d, r0))
        gx, gy, gy_inv = _chart_gauges(p, q, q0, r0, d)
        q0_inv = bmat_from_laurent(lmat_inverse(q0), -q // g, p // g)
        gx_inv = [[e.shift(q * k // g, 0) for e in row] for row, k in zip(q0_inv, d)]
        # the chart matrices are the global one in the frames (global frame) . G^{-1}
        omega_x = tuple(_gauge(om, gx_inv, gx, fld) for om, fld in zip(glob, fields))
        omega_y = tuple(_gauge(om, gy_inv, gy, fld) for om, fld in zip(glob, fields))
        out.append(ConnectionData(p=p, q=q, divisor=f, omega_x=omega_x,
                                  omega_y=omega_y, transition=t))
    return out
