"""Burnside-ring arithmetic: idempotents, marks, basis conversion,
m-constants, and the five elementary operations (plain and shifted)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bgroups.burnside import (
    BurnsideElement,
    IDEMPOTENT,
    TRANSITIVE,
    deflate,
    gluck_idempotent,
    identity_element,
    induce,
    inflate,
    m_const,
    marks_of,
    multiply,
    restrict,
    shift_hom,
    shifted_deflate,
    shifted_restrict,
    shifted_transport,
    to_idempotent_basis,
    to_transitive_basis,
    transitive_basis_element,
    transport,
    zero,
)
from bgroups.groups import (
    GroupError,
    Homomorphism,
    Subgroup,
    alternating_4,
    dicyclic_3,
    dihedral_group,
    direct_product,
    full_subgroup,
    make_cyclic,
    mask_of,
    quaternion_group,
    quotient,
    subgroup_as_group,
    subgroup_embedding,
    subgroup_generated,
    symmetric_group,
    trivial_group,
    trivial_subgroup,
)
from bgroups.subgroups import enumerate_subgroups, normal_subgroups

SMALL_GROUPS = [
    make_cyclic(6),
    direct_product(make_cyclic(2), make_cyclic(2)).group,
    symmetric_group(3),
    dihedral_group(4),
    quaternion_group(),
    alternating_4(),
    dicyclic_3(),
]


# ---------------------------------------------------------------------------
# idempotents and marks


def test_trivial_group_idempotent():
    G = trivial_group()
    e = gluck_idempotent(G, full_subgroup(G))
    assert e.coeffs == (Fraction(1),)


def test_cp_idempotents_closed_form():
    for p in (2, 3, 5, 7):
        G = make_cyclic(p)
        etop = gluck_idempotent(G, full_subgroup(G))
        assert etop.coeffs == (Fraction(-1, p), Fraction(1))
        ebot = gluck_idempotent(G, trivial_subgroup(G))
        assert ebot.coeffs == (Fraction(1, p), Fraction(0))


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.label)
def test_idempotent_marks_are_indicators(G):
    """Independent cross-check of the explicit idempotent formula against
    the marks linear system."""
    lat = enumerate_subgroups(G)
    for c in range(lat.n_classes()):
        e = gluck_idempotent(G, lat.class_rep(c))
        marks = marks_of(e)
        assert marks == tuple(
            Fraction(1 if i == c else 0) for i in range(lat.n_classes())
        )


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.label)
def test_idempotents_orthogonal_and_complete(G):
    lat = enumerate_subgroups(G)
    es = [gluck_idempotent(G, lat.class_rep(c)) for c in range(lat.n_classes())]
    total = zero(G)
    for i, ei in enumerate(es):
        total = total + ei
        for j, ej in enumerate(es):
            prod = multiply(ei, ej)
            assert prod.coeffs == (ei.coeffs if i == j else zero(G).coeffs)
    assert total.coeffs == identity_element(G).coeffs


def test_marks_of_identity_and_zero():
    G = symmetric_group(3)
    nc = enumerate_subgroups(G).n_classes()
    assert marks_of(identity_element(G)) == (Fraction(1),) * nc
    assert marks_of(zero(G)) == (Fraction(0),) * nc


# ---------------------------------------------------------------------------
# basis conversion


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=60
)


@settings(max_examples=25, deadline=None)
@given(st.lists(rationals, min_size=8, max_size=8))
def test_basis_roundtrip_s4(coeffs):
    G = symmetric_group(4)  # pre-warm lattice via fixture-free cache
    nc = enumerate_subgroups(G).n_classes()
    vec = tuple(Fraction(c) for c in (coeffs * nc)[:nc])
    elem = BurnsideElement(G, TRANSITIVE, vec)
    back = to_transitive_basis(to_idempotent_basis(elem))
    assert back.coeffs == vec
    elem_i = BurnsideElement(G, IDEMPOTENT, vec)
    back_i = to_idempotent_basis(to_transitive_basis(elem_i))
    assert back_i.coeffs == vec


def test_multiply_matches_transitive_combinatorics():
    """[G/X] * [G/X] for X of index 2: the product of two copies of a
    2-point set is 2 copies of it."""
    G = make_cyclic(4)
    X = subgroup_generated(G, [2])
    b = transitive_basis_element(G, X)
    prod = multiply(b, b)
    assert prod.coeffs == (2 * b).coeffs


# ---------------------------------------------------------------------------
# m-constants


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.label)
def test_m_of_trivial_is_one(G):
    assert m_const(G, trivial_subgroup(G)) == 1


def test_m_cp_closed_form():
    for p in (2, 3, 5):
        G = make_cyclic(p)
        assert m_const(G, full_subgroup(G)) == Fraction(p - 1, p)


def test_m_klein_four_zeros():
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    for N in normal_subgroups(V):
        expected = Fraction(1) if N.is_trivial() else Fraction(0)
        assert m_const(V, N) == expected


def _m_in(G, N):
    return m_const(G, N)


@pytest.mark.parametrize("G", SMALL_GROUPS + [symmetric_group(4)],
                         ids=lambda g: g.label)
def test_m_multiplicativity(G):
    """m_{L,P} = m_{L,Q} * m_{L/Q, P/Q} for normal Q <= P."""
    norms = normal_subgroups(G)
    for Q in norms:
        GQ, pi = quotient(G, Q)
        for P in norms:
            if Q.mask & P.mask != Q.mask:
                continue
            PQ = Subgroup(GQ, mask_of(pi.image[x] for x in P.elements()))
            assert m_const(G, P) == m_const(G, Q) * m_const(GQ, PQ)


@pytest.mark.parametrize("G", SMALL_GROUPS + [symmetric_group(4)],
                         ids=lambda g: g.label)
def test_m_central_complement_identity(G):
    """m_{G,Z} = 1 - k_G(Z)/p for central Z of prime order p."""
    from bgroups.subgroups import count_complements

    for N in normal_subgroups(G):
        p = N.order
        if p not in (2, 3, 5, 7):
            continue
        central = all(
            G.mul(z, g) == G.mul(g, z) for z in N.elements() for g in range(G.order)
        )
        if not central:
            continue
        assert m_const(G, N) == 1 - Fraction(count_complements(G, N), p)


# ---------------------------------------------------------------------------
# elementary operations


def test_restrict_along_full_group_is_identity():
    G = symmetric_group(3)
    ident = Homomorphism(G, G, tuple(range(G.order)))
    lat = enumerate_subgroups(G)
    for c in range(lat.n_classes()):
        b = transitive_basis_element(G, lat.class_rep(c))
        assert restrict(b, ident).coeffs == b.coeffs


def test_restrict_free_orbit_counts():
    """[G/1] restricted to H is [G:H] copies of [H/1]."""
    G = symmetric_group(4)
    lat = enumerate_subgroups(G)
    b = transitive_basis_element(G, trivial_subgroup(G))
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        r = restrict(b, subgroup_embedding(H))
        Hlat = enumerate_subgroups(subgroup_as_group(H))
        expected = [Fraction(0)] * Hlat.n_classes()
        expected[0] = Fraction(G.order // H.order)
        assert list(r.coeffs) == expected


def test_restriction_commutes_with_marks():
    """The mark of res(b) at X <= H equals the mark of b at X viewed in G."""
    G = symmetric_group(4)
    lat = enumerate_subgroups(G)
    H = next(lat.class_rep(c) for c in range(lat.n_classes()) if lat.class_rep(c).order == 8)
    incl = subgroup_embedding(H)
    Hgrp = incl.source
    Hlat = enumerate_subgroups(Hgrp)
    for c in range(lat.n_classes()):
        b = transitive_basis_element(G, lat.class_rep(c))
        r = restrict(b, incl)
        rmarks = marks_of(r)
        bmarks = marks_of(b)
        for cx in range(Hlat.n_classes()):
            X = Hlat.class_rep(cx)
            up = mask_of(incl.image[i] for i in X.elements())
            cg = lat.conj_class[lat.index_of[up]]
            assert rmarks[cx] == bmarks[cg]


def test_induce_relabels_subgroup():
    G = symmetric_group(3)
    lat = enumerate_subgroups(G)
    H = next(lat.class_rep(c) for c in range(lat.n_classes()) if lat.class_rep(c).order == 3)
    incl = subgroup_embedding(H)
    b = transitive_basis_element(incl.source, trivial_subgroup(incl.source))
    up = induce(b, incl)
    assert up.coeffs == transitive_basis_element(G, trivial_subgroup(G)).coeffs


def test_inflate_idempotent_fibre():
    """Inflation of e_1 along C4 ->> C2 is e_1 + e_{order-2 subgroup}."""
    C4, C2 = make_cyclic(4), make_cyclic(2)
    pi = Homomorphism(C4, C2, (0, 1, 0, 1))
    e1 = gluck_idempotent(C2, trivial_subgroup(C2))
    lifted = inflate(e1, pi)
    expected = gluck_idempotent(C4, trivial_subgroup(C4)) + gluck_idempotent(
        C4, subgroup_generated(C4, [2])
    )
    assert lifted.coeffs == expected.coeffs


def test_deflate_identity_element():
    G = symmetric_group(3)
    N = next(N for N in normal_subgroups(G) if N.order == 3)
    Q, pi = quotient(G, N)
    d = deflate(identity_element(G), pi)
    assert d.coeffs == identity_element(Q).coeffs


def test_transport_roundtrip():
    G = dicyclic_3()
    from bgroups.overk import isomorphisms

    f = next(isomorphisms(G, G))
    lat = enumerate_subgroups(G)
    for c in range(lat.n_classes()):
        b = transitive_basis_element(G, lat.class_rep(c))
        moved = transport(b, f)
        back = transport(moved, f.inverse_map())
        assert back.coeffs == b.coeffs


def _biset_bad_inputs():
    C2, C3, C4 = make_cyclic(2), make_cyclic(3), make_cyclic(4)
    S3 = symmetric_group(3)
    square = Homomorphism(C4, C4, (0, 2, 0, 2))  # neither injective nor onto
    onto_c2 = Homomorphism(C4, C2, (0, 1, 0, 1))
    into_c4 = Homomorphism(C2, C4, (0, 2))
    into_s3 = subgroup_embedding(subgroup_generated(S3, [1]))
    ident_c2 = Homomorphism(C2, C2, (0, 1))
    res = "restriction needs an injective map into the ambient group"
    ind = "induction needs an injective map from the element's group"
    inf = "inflation needs a surjection onto the element's group"
    dfl = "deflation needs a surjection from the element's group"
    tra = "transport needs an isomorphism from the element's group"
    return [
        pytest.param(restrict, C4, square, res, id="restrict-not-injective"),
        pytest.param(restrict, C4, into_s3, res, id="restrict-wrong-group"),
        pytest.param(induce, C4, onto_c2, ind, id="induce-not-injective"),
        pytest.param(induce, C4, into_c4, ind, id="induce-wrong-group"),
        pytest.param(inflate, C4, into_c4, inf, id="inflate-not-surjective"),
        pytest.param(inflate, C3, onto_c2, inf, id="inflate-wrong-group"),
        pytest.param(deflate, C4, square, dfl, id="deflate-not-surjective"),
        pytest.param(deflate, C2, onto_c2, dfl, id="deflate-wrong-group"),
        pytest.param(transport, C4, onto_c2, tra, id="transport-not-bijective"),
        pytest.param(transport, C4, ident_c2, tra, id="transport-wrong-group"),
    ]


@pytest.mark.parametrize("op,G,f,message", _biset_bad_inputs())
def test_biset_operation_preconditions(op, G, f, message):
    """Each elementary operation rejects a map of the wrong kind, or one on
    the wrong ambient group, with its own message."""
    with pytest.raises(GroupError) as info:
        op(identity_element(G), f)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# deflation of idempotents (closed form)


from util import deflation_closed_form_holds as _deflation_closed_form_holds


def test_deflation_closed_form_samples():
    assert _deflation_closed_form_holds(symmetric_group(3), make_cyclic(2))
    assert _deflation_closed_form_holds(make_cyclic(4), make_cyclic(4))
    assert _deflation_closed_form_holds(alternating_4(), trivial_group())


# ---------------------------------------------------------------------------
# shifted operations


def test_shift_of_restriction_is_plain_restriction_on_product():
    G = symmetric_group(3)
    K = make_cyclic(2)
    P = direct_product(G, K)
    lat = enumerate_subgroups(G)
    H = next(lat.class_rep(c) for c in range(lat.n_classes()) if lat.class_rep(c).order == 3)
    platt = enumerate_subgroups(P.group)
    for c in range(platt.n_classes()):
        b = transitive_basis_element(P.group, platt.class_rep(c))
        via_shift = shifted_restrict(b, H, K)
        via_plain = restrict(b, shift_hom(subgroup_embedding(H), K))
        assert via_shift.coeffs == via_plain.coeffs


def test_shifted_transport_is_componentwise():
    G = make_cyclic(4)
    K = make_cyclic(2)
    f = Homomorphism(G, G, (0, 3, 2, 1))  # inversion automorphism
    fs = shift_hom(f, K)
    m = K.order
    for i in range(G.order * K.order):
        assert fs.image[i] == f.image[i // m] * m + (i % m)


def test_shifted_deflation_closed_form():
    assert _deflation_closed_form_holds(make_cyclic(6), make_cyclic(2))
