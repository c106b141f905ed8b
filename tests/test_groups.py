"""Core group constructions: Cayley tables, homomorphisms, products,
quotients, residual subgroups."""

import pytest
from hypothesis import given, strategies as st

from bgroups.groups import (
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    alternating_4,
    dicyclic_3,
    dihedral_group,
    direct_product,
    full_subgroup,
    image,
    inner_automorphisms,
    is_normal,
    kernel,
    make_cyclic,
    o_p_subgroup,
    p_residual_quotient,
    quaternion_group,
    quotient,
    semidirect_product,
    subgroup_embedding,
    subgroup_generated,
    symmetric_group,
    trivial_group,
    trivial_subgroup,
)
from bgroups.overk import is_isomorphic


# ---------------------------------------------------------------------------
# cyclic groups


def test_cyclic_trivial():
    G = make_cyclic(1)
    assert G.order == 1 and G.table == ((0,),)


def test_cyclic_four_inverse():
    G = make_cyclic(4)
    assert G.table[1][3] == 0
    assert G.inverse == (0, 3, 2, 1)


def test_cyclic_six_element_order():
    assert make_cyclic(6).element_order(2) == 3


def test_cyclic_zero_rejected():
    with pytest.raises(GroupError):
        make_cyclic(0)


@given(st.integers(min_value=1, max_value=30))
def test_cyclic_is_cyclic_group(n):
    G = make_cyclic(n)
    assert G.is_cyclic() and G.is_abelian()
    assert G.element_order(1 % n) == n
    for a in range(n):
        assert G.mul(a, G.inv(a)) == 0


# ---------------------------------------------------------------------------
# validation


def test_bad_table_rejected():
    # 0 is not an identity here
    with pytest.raises(GroupError):
        Group(2, ((1, 0), (0, 1)), (0, 1), "bad")


def test_non_associative_table_rejected():
    # identity law holds but (1*1)*2 != 1*(1*2)
    table = ((0, 1, 2), (1, 0, 0), (2, 0, 1))
    with pytest.raises(GroupError):
        Group(3, table, (0, 1, 2), "bad")


def test_bad_homomorphism_rejected():
    C4, C2 = make_cyclic(4), make_cyclic(2)
    with pytest.raises(GroupError):
        Homomorphism(C4, C2, (0, 1, 1, 0))


def test_non_closed_subgroup_rejected():
    C4 = make_cyclic(4)
    with pytest.raises(GroupError):
        Subgroup(C4, 0b0011)  # {0, 1} not closed


# ---------------------------------------------------------------------------
# direct products


def test_product_c2_c2():
    P = direct_product(make_cyclic(2), make_cyclic(2))
    assert P.group.order == 4 and P.group.exponent() == 2


def test_product_c3_c4_is_cyclic():
    P = direct_product(make_cyclic(3), make_cyclic(4))
    assert sorted(P.group.element_orders())[-1] == 12
    assert P.group.is_cyclic()


def test_product_with_trivial():
    G = symmetric_group(3)
    P = direct_product(G, trivial_group())
    assert is_isomorphic(P.group, G)


def test_product_projections_and_injections():
    G, H = make_cyclic(3), symmetric_group(3)
    P = direct_product(G, H)
    for g in range(G.order):
        assert P.proj1(P.inj1(g)) == g
    for h in range(H.order):
        assert P.proj2(P.inj2(h)) == h
    assert kernel(P.proj1).order == H.order
    assert kernel(P.proj2).order == G.order


# ---------------------------------------------------------------------------
# semidirect products


def _inversion_action(N, H):
    """Each odd element of H acts on N by inversion."""
    ident = tuple(range(N.order))
    inv = tuple(N.inverse)
    return tuple(inv if H.element_order(h) % 2 == 0 and h % 2 == 1 else ident
                 for h in range(H.order))


def test_semidirect_c3_c4():
    C3, C4 = make_cyclic(3), make_cyclic(4)
    ident = (0, 1, 2)
    inv = (0, 2, 1)
    G = semidirect_product(C3, C4, (ident, inv, ident, inv))
    assert G.order == 12 and not G.is_abelian()
    order3 = [a for a in range(12) if G.element_order(a) == 3]
    assert len(order3) == 2  # a unique subgroup of order 3


def test_semidirect_trivial_action_is_direct_product():
    C3, C4 = make_cyclic(3), make_cyclic(4)
    ident = (0, 1, 2)
    G = semidirect_product(C3, C4, (ident,) * 4)
    assert G.table == direct_product(C3, C4).group.table


def test_semidirect_c3_c2_is_s3():
    C3, C2 = make_cyclic(3), make_cyclic(2)
    G = semidirect_product(C3, C2, ((0, 1, 2), (0, 2, 1)))
    assert sum(1 for a in range(6) if G.element_order(a) == 2) == 3
    assert is_isomorphic(G, symmetric_group(3))


def test_semidirect_invalid_action_rejected():
    C3, C2 = make_cyclic(3), make_cyclic(2)
    with pytest.raises(GroupError):
        semidirect_product(C3, C2, ((0, 1, 2), (0, 1, 1)))  # not a bijection
    with pytest.raises(GroupError):
        # bijection but not an automorphism-valued homomorphism
        semidirect_product(make_cyclic(4), C2, ((0, 1, 2, 3), (0, 2, 1, 3)))


# ---------------------------------------------------------------------------
# quotients, kernels, images


def test_quotient_by_trivial():
    G = symmetric_group(3)
    Q, pi = quotient(G, trivial_subgroup(G))
    assert pi.is_bijective() and is_isomorphic(Q, G)


def _order24_example():
    """C2 x (C3 : C4) with generators a (order 2), b (order 3), c (order 4)
    satisfying c b c^-1 = b^-1."""
    L = direct_product(make_cyclic(2), dicyclic_3()).group
    a, b, c = 12, 4, 1
    assert L.element_order(a) == 2
    assert L.element_order(b) == 3
    assert L.element_order(c) == 4
    assert L.conj(b, c) == L.inv(b)
    return L, a, b, c


def test_quotient_central_order2_gives_c2_x_s3():
    L, a, b, c = _order24_example()
    c2 = L.mul(c, c)
    N = subgroup_generated(L, [c2])
    assert N.order == 2 and is_normal(N)
    Q, _ = quotient(L, N)
    C2S3 = direct_product(make_cyclic(2), symmetric_group(3)).group
    assert is_isomorphic(Q, C2S3)


def test_quotient_twisted_order2_gives_c3_c4():
    L, a, b, c = _order24_example()
    ac2 = L.mul(a, L.mul(c, c))
    N = subgroup_generated(L, [ac2])
    assert N.order == 2 and is_normal(N)
    Q, _ = quotient(L, N)
    assert is_isomorphic(Q, dicyclic_3())


def test_quotient_kernel_roundtrip():
    for G in (make_cyclic(12), symmetric_group(4), quaternion_group()):
        from bgroups.subgroups import normal_subgroups

        for N in normal_subgroups(G):
            _, pi = quotient(G, N)
            assert kernel(pi).mask == N.mask


def test_kernel_of_identity_map():
    G = symmetric_group(3)
    ident = Homomorphism(G, G, tuple(range(G.order)))
    assert kernel(ident).is_trivial()


def test_kernel_of_c4_to_c2():
    C4, C2 = make_cyclic(4), make_cyclic(2)
    f = Homomorphism(C4, C2, (0, 1, 0, 1))
    assert kernel(f).mask == 0b0101  # {0, 2}


def test_image_of_projection_is_full():
    L, a, b, _ = _order24_example()
    P = subgroup_generated(L, [a, b])
    K, phi = quotient(L, P)
    assert K.order == 4 and image(phi).is_full()


# ---------------------------------------------------------------------------
# p-residual subgroups


def test_o2_of_c4_trivial():
    assert o_p_subgroup(make_cyclic(4), 2).is_trivial()


def test_o2_of_s3_is_c3():
    S3 = symmetric_group(3)
    O = o_p_subgroup(S3, 2)
    assert O.order == 3


def test_o3_of_s3_is_s3():
    assert o_p_subgroup(symmetric_group(3), 3).is_full()


def test_p_residual_quotients():
    Q, _ = p_residual_quotient(symmetric_group(3), 2)
    assert Q.order == 2
    Q, _ = p_residual_quotient(make_cyclic(4), 2)
    assert Q.order == 4
    Q, _ = p_residual_quotient(make_cyclic(3), 2)
    assert Q.order == 1


def test_op_requires_prime():
    with pytest.raises(GroupError):
        o_p_subgroup(make_cyclic(6), 4)


def test_op_minimality_by_enumeration():
    """O^p(G) is normal with p-power quotient, and is contained in every
    normal subgroup with p-power quotient."""
    from bgroups.subgroups import normal_subgroups

    for G in (make_cyclic(12), symmetric_group(3), symmetric_group(4),
              alternating_4(), dihedral_group(6)):
        for p in (2, 3):
            O = o_p_subgroup(G, p)
            assert is_normal(O)
            idx = G.order // O.order
            while idx % p == 0:
                idx //= p
            assert idx == 1
            for N in normal_subgroups(G):
                q = G.order // N.order
                while q % p == 0:
                    q //= p
                if q == 1:
                    assert O.mask & N.mask == O.mask


def test_cached_constructions_keep_their_labels():
    C3 = make_cyclic(3)
    assert direct_product(make_cyclic(2, "A"), C3).group.label == "AxC3"
    assert direct_product(make_cyclic(2, "B"), C3).group.label == "BxC3"
    assert subgroup_embedding(full_subgroup(make_cyclic(2, "A"))).source.label == "A|2"
    assert subgroup_embedding(full_subgroup(make_cyclic(2, "B"))).source.label == "B|2"


# ---------------------------------------------------------------------------
# inner automorphisms


def test_inner_automorphisms_abelian():
    assert len(inner_automorphisms(make_cyclic(4))) == 1
    assert len(inner_automorphisms(make_cyclic(1))) == 1


def test_inner_automorphisms_s3():
    inns = inner_automorphisms(symmetric_group(3))
    assert len(inns) == 6
    assert len({i.image for i in inns}) == 6
