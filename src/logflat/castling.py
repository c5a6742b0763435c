"""Castling bookkeeping for prehomogeneous descriptors, minor-product
divisors, the weight rescaling of the induced equivalence, and the
residual-SL test that separates extendable from non-extendable residue
representations.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from . import matrices as qm
from .matrices import QMatrix, commutator, det_bareiss, is_zero_matrix, mat_eq, zeros
from .multipoly import MultiPoly


# -- descriptors -----------------------------------------------------------

@dataclass(frozen=True)
class PrehomDescriptor:
    """(G x SL(r)) acting on r copies of an n-dimensional space, or the
    dual-side partner; the SL factor is listed among the group factors."""
    n: int
    r: int
    factors: tuple   # tuples ("Torus", rank) | ("SL", size) | ("Abstract", name, dim)
    side: str        # "primal" | "dual"

    def __post_init__(self):
        if not 1 <= self.r < self.n:
            raise ValueError("need 1 <= r < n")
        if self.side not in ("primal", "dual"):
            raise ValueError("side must be primal or dual")

    def ambient_dim(self) -> int:
        return self.r * self.n


def castling_transform(d: PrehomDescriptor) -> PrehomDescriptor:
    """Swap to the partner descriptor: r -> n - r, flip the side, and
    replace the SL(r) symmetry by SL(n - r).  Involutive."""
    new_r = d.n - d.r
    factors = []
    replaced = False
    for f in d.factors:
        if f[0] == "SL" and f[1] == d.r:
            replaced = True
            if new_r > 1:
                factors.append(("SL", new_r))
        else:
            factors.append(f)
    if not replaced and new_r > 1 and ("SL", new_r) not in factors:
        factors.append(("SL", new_r))
    return PrehomDescriptor(n=d.n, r=new_r, factors=tuple(factors),
                            side="dual" if d.side == "primal" else "primal")


def castling_chain(d: PrehomDescriptor, steps: int) -> list:
    """Iterated castling, rebasing each time: the transformed ambient space
    becomes the new base with a single copy (r = 1).  Returns the ambient
    dimensions visited, starting with the input's."""
    dims = [d.ambient_dim()]
    current = d
    for _ in range(steps):
        current = castling_transform(current)
        dims.append(current.ambient_dim())
        current = PrehomDescriptor(n=current.ambient_dim(), r=1,
                                   factors=current.factors, side="primal")
    return dims


# -- minor-product divisors --------------------------------------------------

def minor_product_variables(n: int) -> tuple:
    if n == 2:
        return ("u1", "u2")
    letters = ["u", "v", "w"] if n == 3 else [f"c{j + 1}" for j in range(n)]
    return tuple(f"{letter}{i + 1}" for letter in letters for i in range(n - 1))


def minor_product_divisor(n: int) -> MultiPoly:
    """Product of the n maximal minors of a generic (n-1) x n matrix.

    The minor omitting column i is taken over columns i+1, ..., i+n-1 in
    cyclic order, so for n = 3 the factors are (u1 v2 - u2 v1),
    (v1 w2 - v2 w1), (w1 u2 - w2 u1).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    variables = minor_product_variables(n)
    if n == 2:
        return MultiPoly.var(variables, "u1") * MultiPoly.var(variables, "u2")
    def entry(row, col):
        return MultiPoly.var(variables, variables[col * (n - 1) + row])
    product = MultiPoly.constant(variables, 1)
    for omit in range(n):
        cols = [(omit + 1 + k) % n for k in range(n - 1)]
        minor = [[entry(row, col) for col in cols] for row in range(n - 1)]
        product = product * det_bareiss(minor)
    return product


def morita_rescale(r: int, n: int, w) -> Fraction:
    """The weight rescaling w -> (r / (r - n)) w carried by the castling
    equivalence."""
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")
    return Fraction(r, r - n) * Fraction(w)


# -- residue representations --------------------------------------------------

def sl_basis(k: int) -> list:
    """Chevalley-style basis of sl(k): E_ij for i != j, then
    H_i = E_ii - E_{i+1,i+1}; returned as (name, matrix) pairs."""
    if k < 2:
        raise ValueError("need k >= 2")
    basis = []
    for i in range(k):
        for j in range(k):
            if i != j:
                m = zeros(k)
                m[i][j] = Fraction(1)
                basis.append((f"e{i + 1}{j + 1}", m))
    for i in range(k - 1):
        m = zeros(k)
        m[i][i] = Fraction(1)
        m[i + 1][i + 1] = Fraction(-1)
        basis.append((f"h{i + 1}", m))
    return basis


def _sl_coordinates(m: QMatrix) -> list:
    """Coordinates of a traceless k x k matrix X in sl_basis(k), read off X
    (indices from 1): X_ij on e_ij, and X_11 + ... + X_ii on h_i, since
    X_ll = a_l - a_(l-1) for the h coordinates a (a_0 = a_k = 0)."""
    k = len(m)
    return ([m[i][j] for i in range(k) for j in range(k) if i != j]
            + list(accumulate(m[i][i] for i in range(k - 1))))


def check_sl_relations(k: int, images: list) -> None:
    """Verify that the map sending the sl(k) basis to the given matrices
    respects every bracket, exactly.  Raises ValueError on failure."""
    basis = sl_basis(k)
    if len(images) != len(basis):
        raise ValueError(f"need one image per basis element ({len(basis)})")
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            br = commutator(basis[a][1], basis[b][1])
            coords = _sl_coordinates(br)
            expected = zeros(len(images[0]))
            for c, img in zip(coords, images):
                if c != 0:
                    expected = qm.mat_add(expected, qm.mat_scale(img, c))
            if not mat_eq(commutator(images[a], images[b]), expected):
                raise ValueError(
                    f"bracket relation [{basis[a][0]}, {basis[b][0]}] is violated")


@dataclass(frozen=True)
class ResidueRep:
    """Residue-level representation data: commuting torus generators, an
    sl(k) action given on the basis of sl_basis(k)."""
    rank: int
    torus_gens: tuple
    sl_size: int
    sl_gens: tuple

    def verify(self) -> None:
        for m in list(self.torus_gens) + list(self.sl_gens):
            if len(m) != self.rank or any(len(r) != self.rank for r in m):
                raise ValueError("generator size does not match the rank")
        for i, a in enumerate(self.torus_gens):
            for b in list(self.torus_gens)[i + 1:] + list(self.sl_gens):
                if not is_zero_matrix(commutator(a, b)):
                    raise ValueError("torus generators must be central")
        check_sl_relations(self.sl_size, [qm.qmat(m) for m in self.sl_gens])


def residual_sl_trivial(rep: ResidueRep) -> bool:
    """Whether the residual special-linear action vanishes; this is the
    exact criterion for the representation to come from the other side of
    the castling."""
    rep.verify()
    return all(is_zero_matrix(m) for m in rep.sl_gens)


@dataclass(frozen=True)
class NonExtendable:
    """Certificate that a residue representation has nonzero residual SL
    action, naming an offending generator."""
    generator_name: str
    generator: tuple

    def __bool__(self):
        return False


def gen_nonextendable(psi: list, n: int, rank: int):
    """Build the residue representation acting purely through a nonzero
    sl(n-1) homomorphism psi, with the non-extendability certificate.

    psi lists one rank x rank matrix per element of sl_basis(n - 1); it
    must satisfy the bracket relations exactly and must not vanish
    identically (a vanishing psi factors through the torus and extends).
    """
    k = n - 1
    images = [qm.qmat(m) for m in psi]
    rep = ResidueRep(rank=rank, torus_gens=(zeros(rank),), sl_size=k,
                     sl_gens=tuple(tuple(tuple(r) for r in m) for m in images))
    if residual_sl_trivial(rep):
        raise ValueError("psi vanishes identically; the induced representation "
                         "is pulled back and extends")
    offender = next(i for i, m in enumerate(images) if not is_zero_matrix(m))
    cert = NonExtendable(generator_name=sl_basis(k)[offender][0],
                         generator=tuple(tuple(r) for r in images[offender]))
    return rep, cert


def pullback_residue(rank: int, sl_size: int, torus_gens=None) -> ResidueRep:
    """Residue data of a representation pulled back through the quotient
    that kills the special-linear factor: the sl generators are zero.

    No subcommand emits it; acceptance criterion 10 checks it."""
    k = sl_size
    gens = tuple(torus_gens) if torus_gens else (tuple(tuple(r) for r in zeros(rank)),)
    n_sl = len(sl_basis(k))
    zero = tuple(tuple(r) for r in zeros(rank))
    return ResidueRep(rank=rank, torus_gens=gens, sl_size=k,
                      sl_gens=tuple(zero for _ in range(n_sl)))
