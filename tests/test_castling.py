"""Castling transforms, minor-product divisors, weight rescaling, and the
residual special-linear criterion."""
from fractions import Fraction

import pytest

from logflat import castling, matrices as qm
from logflat.castling import (NonExtendable, PrehomDescriptor, ResidueRep,
                              castling_chain, castling_transform,
                              check_sl_relations, gen_nonextendable,
                              minor_product_divisor, minor_product_variables,
                              morita_rescale, pullback_residue,
                              residual_sl_trivial, sl2_adjoint,
                              sl2_fundamental, sl_basis)
from logflat.multipoly import MultiPoly


BASE = PrehomDescriptor(n=3, r=1, factors=(("Torus", 3),), side="primal")


def test_transform_swaps_and_flips():
    t = castling_transform(BASE)
    assert (t.n, t.r, t.side) == (3, 2, "dual")
    assert ("SL", 2) in t.factors


def test_transform_is_involutive():
    t = castling_transform(castling_transform(BASE))
    assert t == BASE
    with_sl = PrehomDescriptor(n=5, r=2, factors=(("Torus", 1), ("SL", 2)),
                               side="primal")
    assert castling_transform(castling_transform(with_sl)) == with_sl


def test_ambient_dimension_chain():
    assert castling_chain(BASE, 2) == [3, 6, 30]
    assert castling_chain(BASE, 3) == [3, 6, 30, 870]


def test_descriptor_validation():
    with pytest.raises(ValueError):
        PrehomDescriptor(n=3, r=3, factors=(), side="primal")
    with pytest.raises(ValueError):
        PrehomDescriptor(n=3, r=1, factors=(), side="up")


def test_morita_rescale_values():
    assert morita_rescale(1, 3, 1) == Fraction(-1, 2)
    # the round trip r -> n-r multiplies the factors to exactly 1
    w = Fraction(5, 7)
    assert morita_rescale(2, 3, morita_rescale(1, 3, w)) == w
    factor_there = Fraction(1, 1 - 3)
    factor_back = Fraction(3 - 1, (3 - 1) - 3)
    assert factor_there * factor_back == 1
    with pytest.raises(ValueError):
        morita_rescale(3, 3, 1)


def test_minor_product_divisor_n3_is_the_sextic():
    vs = minor_product_variables(3)
    v = lambda s: MultiPoly.var(vs, s)
    expected = ((v("u1") * v("v2") - v("u2") * v("v1"))
                * (v("v1") * v("w2") - v("v2") * v("w1"))
                * (v("w1") * v("u2") - v("w2") * v("u1")))
    assert minor_product_divisor(3) == expected


def test_minor_product_divisor_n2():
    vs = minor_product_variables(2)
    assert vs == ("u1", "u2")
    assert minor_product_divisor(2) == \
        MultiPoly.var(vs, "u1") * MultiPoly.var(vs, "u2")


def test_minor_product_divisor_n4_degree():
    f = minor_product_divisor(4)
    assert f.total_degree() == 4 * 3
    assert len(minor_product_variables(4)) == 12


def test_sl_basis_brackets_selfconsistent():
    for k in (2, 3):
        basis = sl_basis(k)
        check_sl_relations(k, [m for _, m in basis])


def test_check_sl_relations_rejects_scaled_generator():
    bad = sl2_fundamental()
    bad[0] = qm.mat_scale(bad[0], 2)
    with pytest.raises(ValueError):
        check_sl_relations(2, bad)


def test_gen_nonextendable_fundamental():
    rep, cert = gen_nonextendable(sl2_fundamental(), 3, 2)
    assert isinstance(cert, NonExtendable)
    assert not cert
    assert cert.generator_name.startswith("e")
    assert not residual_sl_trivial(rep)


def test_gen_nonextendable_adjoint():
    adj = sl2_adjoint()
    check_sl_relations(2, [qm.qmat(m) for m in adj])
    rep, cert = gen_nonextendable(adj, 3, 3)
    assert not residual_sl_trivial(rep)
    assert any(c != 0 for row in cert.generator for c in row)


def test_gen_nonextendable_rejects_zero_psi():
    zero = [qm.zeros(2) for _ in sl_basis(2)]
    with pytest.raises(ValueError):
        gen_nonextendable(zero, 3, 2)


def test_gen_nonextendable_checks_relations_once(monkeypatch):
    calls = []

    def counting(k, images):
        calls.append(k)
        return check_sl_relations(k, images)

    monkeypatch.setattr(castling, "check_sl_relations", counting)
    gen_nonextendable(sl2_fundamental(), 3, 2)
    assert calls == [2]
    bad = sl2_fundamental()
    bad[2] = qm.mat_scale(bad[2], Fraction(-1))     # [e12, e21] != h1
    with pytest.raises(ValueError, match="bracket relation"):
        gen_nonextendable(bad, 3, 2)


def test_pullback_residue_is_extendable():
    rep = pullback_residue(rank=2, sl_size=2)
    assert residual_sl_trivial(rep)
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(3))
                  for i in range(3))
    rep3 = pullback_residue(rank=3, sl_size=2, torus_gens=(ident,))
    assert residual_sl_trivial(rep3)


def test_residue_rep_rejects_noncentral_torus():
    e12 = qm.zeros(2)
    e12[0][1] = Fraction(1)
    rep = ResidueRep(rank=2, torus_gens=(tuple(tuple(r) for r in e12),),
                     sl_size=2,
                     sl_gens=tuple(tuple(tuple(r) for r in m)
                                   for m in sl2_fundamental()))
    with pytest.raises(ValueError):
        rep.verify()
