"""Core group constructions: Cayley tables, homomorphisms, products,
quotients, residual subgroups."""

import re
import time
from itertools import permutations
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from bgroups.catalog import groups_up_to_order
from bgroups.groups import (
    MAX_GROUP_ORDER,
    MAX_PERM_DEGREE,
    Group,
    GroupError,
    Homomorphism,
    Product,
    ResourceLimit,
    Subgroup,
    _MR_BOUND,
    _TABLES,
    _Table,
    _group,
    _is_prime,
    _trusted,
    alternating_4,
    center_mask,
    close_subset,
    cyclic_extension,
    dicyclic_3,
    dihedral_group,
    direct_product,
    elements_of,
    full_subgroup,
    group_from_permutations,
    image,
    inner_automorphisms,
    is_normal,
    kernel,
    make_cyclic,
    mask_of,
    o_p_subgroup,
    quaternion_group,
    quotient,
    relabel,
    semidirect_product,
    subgroup_embedding,
    subgroup_generated,
    symmetric_group,
    trivial_group,
    trivial_subgroup,
)
from bgroups.overk import GroupOverK, homomorphisms, is_isomorphic, isomorphisms
from bgroups.subgroups import enumerate_subgroups, normal_subgroups
from util import (
    conjugate_elements,
    cyclic_extension_table_oracle,
    cyclic_table_oracle,
    greedy_generators_oracle,
    is_action,
    is_group_table,
    is_homomorphism,
    p_residual_quotient,
    pairwise_closure,
    perm_table_oracle,
    product_table_oracle,
    semidirect_table_oracle,
    subgroup_as_group,
    symmetric_table_oracle,
)


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


@pytest.mark.parametrize(
    "table, inverse",
    [
        (((0, 1), (1, 0, 5)), (0, 1)),  # row too long
        (((0, 1), (1,)), (0, 1)),  # row too short
        (((0, 1), (1, 2)), (0, 1)),  # entry out of range
        (((0, 1), (1, -1)), (0, 1)),  # negative entry
        (((0, 1), (1, 0)), (0, 2)),  # inverse out of range
    ],
    ids=["long-row", "short-row", "big-entry", "negative-entry", "big-inverse"],
)
def test_malformed_table_rejected(table, inverse):
    with pytest.raises(GroupError):
        Group(2, table, inverse, "bad")


def test_non_associative_table_rejected():
    # identity law holds but (1*1)*2 != 1*(1*2)
    table = ((0, 1, 2), (1, 0, 0), (2, 0, 1))
    with pytest.raises(GroupError):
        Group(3, table, (0, 1, 2), "bad")


def test_bad_homomorphism_rejected():
    C4, C2 = make_cyclic(4), make_cyclic(2)
    with pytest.raises(GroupError):
        Homomorphism(C4, C2, (0, 1, 1, 0))


@pytest.mark.parametrize(
    "image", [(0, 5), (0, -1), (0, 1, 0)], ids=["big", "negative", "long"]
)
def test_malformed_homomorphism_rejected(image):
    C2 = make_cyclic(2)
    with pytest.raises(GroupError):
        Homomorphism(C2, C2, image)


def test_homomorphism_keeps_its_own_image_tuple():
    """A map built from a list is the map built from the tuple: hashable,
    equal, and not changed by a later change to the list."""
    C2 = make_cyclic(2)
    image = [0, 1]
    f = Homomorphism(C2, C2, image)
    image[1] = 0
    g = Homomorphism(C2, C2, (0, 1))
    assert f.image == (0, 1) and f == g and hash(f) == hash(g)


@pytest.mark.parametrize(
    "build",
    [lambda: symmetric_group(-2), lambda: symmetric_group(-1),
     lambda: group_from_permutations(-1, [()])],
    ids=["symmetric-2", "symmetric-1", "perm-1"],
)
def test_negative_degree_rejected(build):
    with pytest.raises(GroupError):
        build()


@pytest.mark.parametrize(
    "build, order",
    [(lambda: make_cyclic(MAX_GROUP_ORDER + 1), MAX_GROUP_ORDER + 1),
     (lambda: dihedral_group(MAX_GROUP_ORDER), 2 * MAX_GROUP_ORDER),
     (lambda: symmetric_group(10**12), "1000000000000!"),
     (lambda: direct_product(make_cyclic(64), make_cyclic(33)).group, 64 * 33),
     (lambda: semidirect_product(make_cyclic(64), make_cyclic(64), ()), 64 * 64),
     (lambda: group_from_permutations(7, [(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)]),
      f"at least {MAX_GROUP_ORDER + 1}")],
    ids=["cyclic", "dihedral", "symmetric", "product", "semidirect", "perm"],
)
def test_constructions_refuse_an_order_past_the_limit(build, order):
    """Each construction checks the order of its result against the one
    limit before it builds a table; a permutation closure stops as soon as
    it passes the limit."""
    with pytest.raises(ResourceLimit, match=f"^group order {re.escape(str(order))} exceeds "
                                            f"construction limit {MAX_GROUP_ORDER}$"):
        build()


def _cycle(n: int, points) -> tuple[int, ...]:
    image = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        image[a] = b
    return tuple(image)


@pytest.mark.parametrize("n, gens", [
    (3, [(1, 2, 0), (1, 0, 2)]),  # the CLI tests' perm 3 (0 1 2), (0 1)
    (4, [(1, 2, 0, 3), (0, 2, 3, 1)]),  # A4p of the named corpus
    (5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),  # the subgroup tests' A5
    (5, [(1, 2, 0, 4, 3), (1, 0, 2, 3, 4)]),  # perm 5 (0 1 2)(3 4), (0 1) of the README
    (4, [(1, 2, 3, 0), (0, 3, 2, 1)]),  # D8 on the square's corners
    (6, [_cycle(6, [0, 1, 2, 3, 4, 5]), _cycle(6, [0, 1])]),  # S6, order 720
    (12, [_cycle(12, list(range(12)))]),
    (7, [_cycle(7, [0, 1, 2]), _cycle(7, [0, 1, 2]), _cycle(7, [3, 4])]),  # a repeated generator
    (0, [()]),
    (4, []),
], ids=["S3", "A4p", "A5", "P5", "D8", "S6", "C12", "C6-repeated", "0-points", "no-generators"])
def test_perm_table_equals_the_pairwise_oracle(n, gens):
    """The table built from per-generator rows is the one that composing
    every pair of permutations gives, element order included."""
    assert group_from_permutations(n, gens).table == perm_table_oracle(n, gens)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 150])
def test_cyclic_table_equals_the_per_cell_oracle(n):
    assert make_cyclic(n).table == cyclic_table_oracle(n)


@pytest.mark.parametrize("n", range(7))
def test_symmetric_table_equals_the_per_cell_oracle(n):
    """S_n from the rows of (0 1) and (0 1 … n-1) by the row walk is the
    table of every pair composed, lexicographic ids included."""
    assert symmetric_group(n).table == symmetric_table_oracle(n)


def test_product_tables_equal_the_per_cell_oracle():
    """Every ordered pair of catalog groups of order <= 8, S4 x C4, and each
    step of the chain C2^2, …, C2^6."""
    small = groups_up_to_order(8)
    pairs = [(G, H) for G in small for H in small]
    pairs.append((symmetric_group(4), make_cyclic(4)))
    E, C2 = make_cyclic(2), make_cyclic(2)
    for _ in range(5):
        pairs.append((E, C2))
        E = direct_product(E, C2).group
    for G, H in pairs:
        assert direct_product(G, H).group.table == product_table_oracle(G, H), (G, H)


def test_semidirect_tables_equal_the_per_cell_oracle():
    """The five catalog semidirect products, each acted on by a cyclic H,
    and two whose H has two generators: V4 : S3 (S4), S3 permuting V4's
    involutions, and C3 : V4, V4's first generator acting trivially and its
    second by inversion."""
    C3, C4, C7 = make_cyclic(3), make_cyclic(4), make_cyclic(7)
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    S3 = symmetric_group(3)
    on_involutions = tuple((0, *(p[i] + 1 for i in range(3))) for p in permutations(range(3)))
    for N, H, action in [
        (V, S3, on_involutions),
        (C3, V, ((0, 1, 2), (0, 1, 2), (0, 2, 1), (0, 2, 1))),
        (C3, C4, ((0, 1, 2), (0, 2, 1)) * 2),
        (C4, C4, ((0, 1, 2, 3), (0, 3, 2, 1)) * 2),
        (V, C4, ((0, 1, 2, 3), (0, 2, 1, 3)) * 2),
        (V, C3, ((0, 1, 2, 3), (0, 3, 1, 2), (0, 2, 3, 1))),
        (C7, C3, ((0, 1, 2, 3, 4, 5, 6), (0, 2, 4, 6, 1, 3, 5), (0, 4, 1, 5, 2, 6, 3))),
    ]:
        assert semidirect_product(N, H, action).table == semidirect_table_oracle(N, H, action)


@pytest.mark.parametrize("n, t, r", [
    *((n, 0, -1) for n in range(3, 9)),  # the catalog's dihedral groups D6 … D16
    (4, 2, 3), (8, 0, 3), (8, 4, 7), (8, 0, 5),  # Q8, SD16, Q16, M16
    (50, 0, -1),  # D100
])
def test_cyclic_extension_table_equals_the_per_cell_oracle(n, t, r):
    assert cyclic_extension(n, t, r).table == cyclic_extension_table_oracle(n, t, r)


def test_perm_degree_past_the_limit_is_refused():
    """A degree past MAX_PERM_DEGREE is refused before any point list is
    built: the generators are not even read."""
    with pytest.raises(ResourceLimit, match=f"^permutation degree {MAX_PERM_DEGREE + 1} exceeds "
                                            f"construction limit {MAX_PERM_DEGREE}$"):
        group_from_permutations(MAX_PERM_DEGREE + 1, [None])
    assert group_from_permutations(MAX_PERM_DEGREE, [tuple(range(MAX_PERM_DEGREE))]).order == 1


def test_a_1000_point_cycle_builds_within_a_time_budget():
    """perm 1000 (0 ... 999): |P|·n for the generator row and |P|^2 for the
    table, about 10^6 steps; composing every pair would take 10^9."""
    start = time.perf_counter()
    G = group_from_permutations(1000, [_cycle(1000, list(range(1000)))])
    assert time.perf_counter() - start < 5.0
    assert G.order == 1000 and G.table[1][999] == 0 and G.table[999][1] == 0


def test_subgroup_mask_outside_parent_rejected():
    with pytest.raises(GroupError):
        Subgroup(make_cyclic(4), 0b10001)


def test_non_closed_subgroup_rejected():
    C4 = make_cyclic(4)
    with pytest.raises(GroupError):
        Subgroup(C4, 0b0011)  # {0, 1} not closed


# ---------------------------------------------------------------------------
# the exact group check against the brute-force oracle


def _swapped_c66():
    """C66 with t[1][3] and t[1][5] swapped: the identity and inverse laws
    hold, associativity fails, and sampling every fourth element misses it."""
    C = make_cyclic(66)
    rows = [list(r) for r in C.table]
    rows[1][3], rows[1][5] = rows[1][5], rows[1][3]
    return tuple(map(tuple, rows)), C.inverse


def test_non_associative_table_above_order_64_rejected():
    table, inverse = _swapped_c66()
    assert not is_group_table(66, table, inverse)
    with pytest.raises(GroupError):
        Group(66, table, inverse, "bad")


def test_non_associative_table_with_associative_first_generator_rejected():
    # loop of order 5 in which every element is its own inverse, so not a
    # group; times C2, whose generator gets id 1 and associates with all
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
    table = tuple(
        tuple(loop[a][c] * 2 + (b ^ d) for c in range(5) for d in range(2))
        for a in range(5) for b in range(2)
    )
    inverse = tuple(range(10))
    assert not is_group_table(10, table, inverse)
    with pytest.raises(GroupError):
        Group(10, table, inverse, "bad")


_SMALL = [G for G in groups_up_to_order(16) if G.order > 1]


@given(st.data())
def test_group_check_agrees_with_oracle_on_one_changed_entry(data):
    G = data.draw(st.sampled_from(_SMALL))
    n = G.order
    x = data.draw(st.integers(1, n - 1))
    y = data.draw(st.integers(1, n - 1))
    rows = [list(r) for r in G.table]
    rows[x][y] = data.draw(st.integers(0, n - 1))
    table = tuple(map(tuple, rows))
    try:
        Group(n, table, G.inverse)
        accepted = True
    except GroupError:
        accepted = False
    assert accepted == is_group_table(n, table, G.inverse)


@given(st.data())
def test_close_subset_agrees_with_pairwise_closure(data):
    G = data.draw(st.sampled_from(_SMALL))
    S = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    assert close_subset(G, S) == pairwise_closure(G, S)


def _subgroup_masks(G):
    return [S.mask for S in enumerate_subgroups(G).subgroups]


@st.composite
def _group_and_mask(draw):
    """A catalog group of order <= 16 with a random mask, a subgroup's mask
    with one bit flipped, the union of two subgroups' masks, or a subgroup K
    with one coset Kg added."""
    G = draw(st.sampled_from(_SMALL))
    n = G.order
    kind = draw(st.sampled_from(("random", "flip", "union", "coset")))
    if kind == "random":
        return G, draw(st.integers(0, (1 << n) - 1))
    subs = _subgroup_masks(G)
    m = draw(st.sampled_from(subs))
    if kind == "flip":
        return G, m ^ (1 << draw(st.integers(0, n - 1)))
    if kind == "union":
        return G, m | draw(st.sampled_from(subs))
    g = draw(st.integers(0, n - 1))
    return G, m | sum(1 << G.table[k][g] for k in range(n) if (m >> k) & 1)


@given(_group_and_mask())
def test_subgroup_check_agrees_with_pairwise_closure(case):
    """Subgroup(G, mask) raises exactly when the mask lacks the identity or
    is not closed by the reference closure; elements() lists the set bits
    in ascending order."""
    G, mask = case
    bits = [x for x in range(G.order) if (mask >> x) & 1]
    closed = sum(1 << x for x in pairwise_closure(G, bits))
    try:
        S = Subgroup(G, mask)
        accepted = True
    except GroupError:
        accepted = False
    assert accepted == (bool(mask & 1) and closed == mask)
    if accepted:
        assert S.elements() == bits


def _fresh_copy(G):
    """G on a table of its own, not interned, so it has no lattice."""
    return _group(_Table(G.table, G.inverse), G.label)


def _check_error(G, mask):
    """The text of the GroupError that Subgroup(G, mask) raises, or None."""
    try:
        Subgroup(G, mask)
    except GroupError as exc:
        return str(exc)
    return None


def test_subgroup_check_agrees_with_pairwise_closure_on_every_small_mask():
    """The check reads the lattice when the table has one and walks the
    greedy generators when it has none, and never enumerates to check:
    both give the reference closure's verdict with the same error text."""
    for G in groups_up_to_order(8):
        enumerate_subgroups(G)
        fresh = _fresh_copy(G)
        for mask in range(1 << G.order):
            bits = [x for x in range(G.order) if (mask >> x) & 1]
            closed = sum(1 << x for x in pairwise_closure(G, bits))
            error = _check_error(G, mask)
            assert error == _check_error(fresh, mask), (G.label, bin(mask))
            assert (error is None) == (bool(mask & 1) and closed == mask), (G.label, bin(mask))
        assert fresh._t.lattice is None


def test_generating_sequence_matches_the_greedy_oracle():
    for G in groups_up_to_order(16) + [symmetric_group(4)]:
        assert list(G.generating_sequence()) == greedy_generators_oracle(G, range(G.order)), G


def test_center_mask_matches_brute_force():
    """The elements that commute with the generating sequence are the ones
    that commute with every element."""
    for G in groups_up_to_order(16) + [symmetric_group(4), symmetric_group(5)]:
        t, r = G.table, range(G.order)
        want = mask_of(g for g in r if all(t[g][x] == t[x][g] for x in r))
        assert center_mask(G) == want, G


def test_every_lattice_subgroup_passes_the_subgroup_check():
    """Each lattice member is closed by the reference closure, which does
    not read the lattice the check reads, and passes the check both on its
    own table and on a fresh table with no lattice."""
    for G in groups_up_to_order(16):
        fresh = _fresh_copy(G)
        for S in enumerate_subgroups(G).subgroups:
            bits = [x for x in range(G.order) if (S.mask >> x) & 1]
            assert S.elements() == bits and sorted(pairwise_closure(G, bits)) == bits
            assert Subgroup(G, S.mask) == S and Subgroup(fresh, S.mask).mask == S.mask
        assert fresh._t.lattice is None


def _valid_maps():
    """Inner automorphisms, quotient maps and subgroup inclusions of the
    small groups."""
    for G in _SMALL:
        yield from inner_automorphisms(G)
        for N in normal_subgroups(G):
            yield quotient(G, N)[1]
        lat = enumerate_subgroups(G)
        for c in range(lat.n_classes()):
            yield subgroup_embedding(lat.class_rep(c))


_MAPS = list(_valid_maps())


@given(st.data())
def test_hom_check_agrees_with_oracle_on_one_changed_entry(data):
    f = data.draw(st.sampled_from(_MAPS))
    image = list(f.image)
    image[data.draw(st.integers(0, f.source.order - 1))] = data.draw(
        st.integers(0, f.target.order - 1))
    try:
        Homomorphism(f.source, f.target, tuple(image))
        accepted = True
    except GroupError:
        accepted = False
    assert accepted == is_homomorphism(f.source, f.target, image)


def _constructions():
    """The catalog plus every named construction, with the products,
    quotients and subgroups built from them."""
    S4 = symmetric_group(4)
    V = full_subgroup(direct_product(make_cyclic(2), make_cyclic(2)).group)
    yield from groups_up_to_order(16)
    yield from (symmetric_group(n) for n in (1, 2, 3, 4))
    yield from (dihedral_group(n) for n in (1, 2, 3, 9))
    yield from (cyclic_extension(16, t, r) for t, r in ((0, 7), (8, 15), (0, 9)))
    yield group_from_permutations(4, [(1, 2, 0, 3), (0, 2, 3, 1)], "A4p")
    yield semidirect_product(make_cyclic(7), make_cyclic(3),
                             ((0, 1, 2, 3, 4, 5, 6), (0, 2, 4, 6, 1, 3, 5),
                              (0, 4, 1, 5, 2, 6, 3)))
    yield direct_product(S4, make_cyclic(2)).group
    for N in normal_subgroups(S4):
        yield quotient(S4, N)[0]
    lat = enumerate_subgroups(S4)
    for c in range(lat.n_classes()):
        yield subgroup_embedding(lat.class_rep(c)).source
    yield relabel(V.parent, "V")


def test_constructions_pass_the_oracle():
    for G in _constructions():
        assert is_group_table(G.order, G.table, G.inverse), G.label


def test_derived_maps_and_subgroups_pass_the_public_checks():
    """Values built without checks are accepted by the public constructors."""
    S3, C2 = symmetric_group(3), make_cyclic(2)
    P = direct_product(S3, dihedral_group(4))
    maps = [P.proj1, P.proj2, P.inj1, P.inj2, P.proj2.compose(P.inj2)]
    subs = [trivial_subgroup(S3), full_subgroup(S3), subgroup_generated(S3, [1])]
    for G in (symmetric_group(4), quaternion_group(), dicyclic_3()):
        for N in normal_subgroups(G):
            _, pi = quotient(G, N)
            maps.append(pi)
            subs += [kernel(pi), image(pi)]
        lat = enumerate_subgroups(G)
        for c in range(lat.n_classes()):
            maps.append(subgroup_embedding(lat.class_rep(c)))
            subs.append(lat.class_rep(c))
        maps += inner_automorphisms(G)
    maps += homomorphisms(S3, C2) + [f.inverse_map() for f in isomorphisms(S3, S3)]
    for f in maps:
        Homomorphism(f.source, f.target, f.image)
    for S in subs:
        Subgroup(S.parent, S.mask)


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


def _actions():
    """Valid actions: C_m on C_n by x -> r^h x with r^m = 1 mod n, C3 on
    C2 x C2 (as in A4), and C2 on S3 and on D8 by conjugation with an
    involution."""
    for n in (3, 4, 5, 7, 8, 9):
        for m in (2, 3, 4, 6):
            for r in range(1, n):
                if gcd(r, n) == 1 and pow(r, m, n) == 1:
                    yield make_cyclic(n), make_cyclic(m), tuple(
                        tuple(x * pow(r, h, n) % n for x in range(n)) for h in range(m))
    yield (direct_product(make_cyclic(2), make_cyclic(2)).group, make_cyclic(3),
           ((0, 1, 2, 3), (0, 3, 1, 2), (0, 2, 3, 1)))
    for N in (symmetric_group(3), dihedral_group(4)):
        g = N.element_orders().index(2)
        yield N, make_cyclic(2), (tuple(range(N.order)), tuple(N.conj(a, g) for a in range(N.order)))


_ACTIONS = list(_actions())


@given(st.data())
def test_action_check_agrees_with_oracle_on_one_changed_entry(data):
    N, H, action = data.draw(st.sampled_from(_ACTIONS))
    rows = [list(a) for a in action]
    rows[data.draw(st.integers(0, H.order - 1))][data.draw(
        st.integers(0, N.order - 1))] = data.draw(st.integers(0, N.order - 1))
    action = tuple(map(tuple, rows))
    try:
        semidirect_product(N, H, action)
        accepted = True
    except GroupError:
        accepted = False
    assert accepted == is_action(N, H, action)


def test_cyclic_extension_bounds():
    """n = 1 gives C2 (r*r = 1 mod 1 holds); n < 1 is refused."""
    assert cyclic_extension(1, 0, 0).table == make_cyclic(2).table
    for n, t, r in ((0, 0, 0), (-2, 0, 1)):
        with pytest.raises(GroupError, match="do not define a group"):
            cyclic_extension(n, t, r)


def test_dihedral_matches_the_semidirect_oracle():
    """D_2n as C_n with C_2 acting by inversion, built by `semidirect_product`."""
    for n in range(1, 25):
        Cn = make_cyclic(n)
        oracle = semidirect_product(Cn, make_cyclic(2), (tuple(range(n)), tuple(Cn.inverse)))
        D = dihedral_group(n)
        assert D.table == oracle.table and D.label == f"D{2*n}", n


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


def _normal_by_brute_force(G, N, L):
    """gNg^-1 = N for every element g of L."""
    nset = set(N.elements())
    return all(conjugate_elements(G, nset, g) == nset for g in L.elements())


def test_is_normal_matches_brute_force():
    """is_normal(N, L), and is_normal(N) for L = G, on every pair N <= L of
    subgroups of the catalog groups up to order 16 and of S4."""
    for G in (*groups_up_to_order(16), symmetric_group(4)):
        subs = enumerate_subgroups(G).subgroups
        for N in subs:
            assert is_normal(N) == _normal_by_brute_force(G, N, subs[-1]), G.label
            for L in subs:
                if N <= L:
                    assert is_normal(N, L) == _normal_by_brute_force(G, N, L), G.label


def test_quotient_is_built_once_per_table_and_normal_subgroup():
    """The projection is kept once per normal subgroup mask on G's table,
    between the own groups of the two tables, and returned for every label
    of G; only the quotient group carries G's label."""
    S4 = symmetric_group(4)
    N = next(N for N in normal_subgroups(S4) if N.order == 4)
    Q1, pi1 = quotient(S4, N)
    T = relabel(S4, "T")
    Q2, pi2 = quotient(T, Subgroup(T, N.mask))
    assert pi2 is pi1 and S4._t.quotients[N.mask] is pi1 and Q1.table is Q2.table
    assert pi1.source is S4._t.group and pi1.target is Q1._t.group
    assert (Q1.label, Q2.label, pi1.source.label, pi1.target.label) == ("S4/N4", "T/N4", "T24", "T6")
    assert quotient(relabel(S4, "A"), N)[1] is pi1 and Q1 is quotient(S4, N)[0]
    H = subgroup_generated(S4, [1])  # order 2, not normal
    for _ in range(2):
        with pytest.raises(GroupError):
            quotient(S4, H)
    C24 = make_cyclic(24)
    with pytest.raises(GroupError):  # a subgroup of another group
        quotient(S4, subgroup_generated(C24, [6]))


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
    assert o_p_subgroup(full_subgroup(make_cyclic(4)), 2).is_trivial()


def test_o2_of_s3_is_c3():
    S3 = symmetric_group(3)
    O = o_p_subgroup(full_subgroup(S3), 2)
    assert O.order == 3


def test_o3_of_s3_is_s3():
    assert o_p_subgroup(full_subgroup(symmetric_group(3)), 3).is_full()


def test_op_of_a_subgroup_is_op_of_its_own_group():
    """O^p of a subgroup H, taken in the parent, is the image under H's
    inclusion of O^p of H as a group on its own table."""
    G = direct_product(symmetric_group(4), make_cyclic(2)).group
    for H in enumerate_subgroups(G).subgroups:
        f = subgroup_embedding(H)
        for p in (2, 3):
            O = o_p_subgroup(full_subgroup(f.source), p)
            assert o_p_subgroup(H, p).mask == mask_of(f.image[a] for a in O.elements())


def test_p_residual_quotients():
    Q, _ = p_residual_quotient(symmetric_group(3), 2)
    assert Q.order == 2
    Q, _ = p_residual_quotient(make_cyclic(4), 2)
    assert Q.order == 4
    Q, _ = p_residual_quotient(make_cyclic(3), 2)
    assert Q.order == 1


def test_op_requires_prime():
    with pytest.raises(GroupError):
        o_p_subgroup(full_subgroup(make_cyclic(6)), 4)


def test_is_prime_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert [n for n in range(10**4) if _is_prime(n)] == [n for n in range(10**4) if trial(n)]


def test_is_prime_on_large_inputs():
    # strong pseudoprimes to the first 4 and to the first 11 prime bases
    assert not _is_prime(3215031751) and not _is_prime(3825123056546413051)
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)
    assert not _is_prime((2**31 - 1) * 1000003)
    with pytest.raises(GroupError, match=f"primality-test bound {_MR_BOUND}"):
        _is_prime(_MR_BOUND)


def test_op_minimality_by_enumeration():
    """O^p(G) is normal with p-power quotient, and is contained in every
    normal subgroup with p-power quotient."""
    from bgroups.subgroups import normal_subgroups

    for G in (make_cyclic(12), symmetric_group(3), symmetric_group(4),
              alternating_4(), dihedral_group(6)):
        for p in (2, 3):
            O = o_p_subgroup(full_subgroup(G), p)
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
    """A constructed group keeps the label built from its factors' labels,
    as one object per label; an inclusion map is one object for every
    parent label, over the own groups of its tables."""
    C3, A, B = make_cyclic(3), make_cyclic(2, "A"), make_cyclic(2, "B")
    PA, PB = direct_product(A, C3).group, direct_product(B, C3).group
    assert PA.label == "AxC3" and PB.label == "BxC3"
    assert direct_product(A, C3).group is PA and direct_product(B, C3).group is PB
    f = subgroup_embedding(full_subgroup(A))
    assert subgroup_embedding(full_subgroup(B)) is f
    assert f.source is f.target is A._t.group and f.source.label == "T2"


def test_relabelled_constructions_share_their_tables():
    """A product under any labels of its factors has the labelled group
    and the four maps kept on the first factor's table once per second
    factor's table, between own groups."""
    C3 = make_cyclic(3)
    PA = direct_product(make_cyclic(2, "A"), C3)
    PB = direct_product(make_cyclic(2, "B"), C3)
    assert PA.group.table is PB.group.table and (PA.group.label, PB.group.label) == ("AxC3", "BxC3")
    kept = make_cyclic(2)._t.products[C3._t]
    for name in ("proj1", "proj2", "inj1", "inj2"):
        assert getattr(PA, name) is getattr(PB, name) is getattr(kept, name)
    assert kept.group is PB.group._t.group and PB.proj1.source is kept.group
    assert PB.proj1.target is make_cyclic(2)._t.group and PB.proj1.target.label == "T2"
    assert PB.inj2.source is C3._t.group and PB.pair(1, 2) == 5
    D8 = dihedral_group(4)
    assert D8.label == "D8" and relabel(D8, "X").table is D8.table


def test_equal_tables_share_one_table_and_one_lattice():
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    rows = tuple(tuple(list(row)) for row in V.table)  # equal rows, new objects
    W = Group(4, rows, V.inverse, "W")
    assert W == V and hash(W) == hash(V) and W.label == "W"
    assert W.table is V.table and W.inverse is V.inverse
    assert enumerate_subgroups(W) is enumerate_subgroups(V)
    with pytest.raises(GroupError):  # an interned table is still checked in full
        Group(4, rows, (0, 2, 1, 3))


def test_derived_groups_and_embeddings_are_kept_per_table_and_label():
    """A derived group is the one object on its table under its label, and
    an inclusion map the one object per subgroup, for every parent label,
    between the own groups of the two tables; the checked constructor
    builds its own group, and ==, hash and repr go by the table and label
    as before."""
    S4, C2 = symmetric_group(4), make_cyclic(2)
    N = next(N for N in normal_subgroups(S4) if N.order == 4)
    S = subgroup_generated(S4, [1])
    assert relabel(S4, "B") is relabel(S4, "B")
    assert quotient(S4, N)[0] is quotient(S4, N)[0]
    assert direct_product(S4, C2).group is direct_product(S4, C2).group
    f = subgroup_embedding(S)
    assert subgroup_embedding(S) is f and subgroup_embedding(Subgroup(S4, S.mask)) is f
    assert f.image == tuple(S.elements()) and f.source._t is _TABLES[f.source.table]
    assert f.source is subgroup_as_group(S) is f.source._t.group and f.source.label == "T2"
    B = relabel(S4, "B")
    assert subgroup_embedding(Subgroup(B, S.mask)) is f and f.target is S4._t.group
    W = Group(S4.order, S4.table, S4.inverse, "S4")
    assert W is not S4 and W is not Group(S4.order, S4.table, S4.inverse, "S4")
    assert W._t is S4._t and S4._t.groups["S4"] is S4
    assert W == S4 == B and hash(W) == hash(S4) == hash(B)
    assert repr(W) == repr(S4) == "Group(S4, order=24)" and repr(B) == "Group(B, order=24)"


def test_a_relabelled_parent_reuses_the_subgroup_table(monkeypatch):
    """The inclusion map is kept once per mask on the parent's table: an
    embedding under a second parent label builds and interns no table and
    returns the kept map, whose groups are the own groups of the two
    tables."""
    import bgroups.groups as groups

    G = dihedral_group(6)
    S = subgroup_generated(G, [2])
    fa = subgroup_embedding(S)
    assert G._t.embeddings[S.mask] is fa
    calls, n_tables = [], len(groups._TABLES)
    intern = groups._intern
    monkeypatch.setattr(groups, "_intern", lambda table: calls.append(table) or intern(table))
    B = relabel(G, "B")
    fb = subgroup_embedding(Subgroup(B, S.mask))
    assert calls == [] and len(groups._TABLES) == n_tables and fb is fa
    assert fa.source is fa.source._t.group and fa.target is G._t.group
    assert (fa.source.label, fa.target.label) == ("T6", "T12")


@pytest.mark.parametrize("G", [trivial_group(), make_cyclic(2), symmetric_group(3), dihedral_group(4)],
                         ids=lambda G: G.label)
def test_trivial_and_full_subgroups_embed(G):
    """A one-element subgroup is the trivial group on ((0,),), and the full
    subgroup is G's own table under the identity map."""
    one = subgroup_embedding(trivial_subgroup(G))
    assert one.image == (0,) and one.source.table == ((0,),) and one.source.order == 1
    assert one.is_injective() and one.is_surjective() == (G.order == 1)
    full = subgroup_embedding(full_subgroup(G))
    assert full.image == tuple(range(G.order)) and full.source._t is G._t
    assert full.is_bijective()


def test_every_lattice_subgroup_keeps_its_members():
    """On every lattice subgroup of the catalog, the kept member tuple is
    the mask's set bits, ascending, and one object on each read."""
    for G in groups_up_to_order(16):
        for S in enumerate_subgroups(G).subgroups:
            assert S.members() == tuple(elements_of(S.mask)) and S.members() is S.members()
            assert S.elements() == list(S.members())


def test_elements_is_a_new_list_each_call():
    S = subgroup_generated(symmetric_group(4), [1, 2])
    first = S.elements()
    assert first is not S.elements() and first == S.elements()
    first.append(99)
    first[0] = 5
    assert S.elements() == elements_of(S.mask) and S.members() == tuple(elements_of(S.mask))


def test_kept_members_and_image_size_are_not_fields():
    """What a subgroup or a map keeps outside its fields changes neither its
    fields, nor ==, hash or repr, whether it was built checked or trusted,
    and cannot be assigned from outside."""
    assert Subgroup._fields == ("parent", "mask")
    assert Homomorphism._fields == ("source", "target", "image")
    S3 = symmetric_group(3)
    A3 = subgroup_generated(S3, [3])
    sign = quotient(S3, A3)[1]
    builds = [
        (lambda: Subgroup(S3, A3.mask), lambda S: S.members(), "Subgroup(order=3 of S3)"),
        (lambda: _trusted(Subgroup, S3, A3.mask), lambda S: S.members(), "Subgroup(order=3 of S3)"),
        # the kept projection runs between own groups: S3's is labelled T6
        (lambda: Homomorphism(sign.source, sign.target, sign.image), lambda f: f.is_surjective(),
         repr(sign)),
        (lambda: _trusted(Homomorphism, sign.source, sign.target, sign.image),
         lambda f: f.is_injective(), repr(sign)),
    ]
    for build, fill, text in builds:
        value, other = build(), build()
        fields, digest = value._key(value), hash(value)
        fill(value)
        assert value._key(value) == fields and hash(value) == digest == hash(other)
        assert value == other and repr(value) == repr(other) == text
    f = _trusted(Homomorphism, S3, sign.target, sign.image)
    assert f._image_size is None and f.is_surjective() and f._image_size == 2
    with pytest.raises(AttributeError):
        f._image_size = 6
    with pytest.raises(AttributeError):
        A3._members = ()
    assert f.is_surjective() and not f.is_injective() and A3.members() == (0, 3, 4)


def test_a_second_pass_of_products_adds_no_group():
    catalog, C2 = groups_up_to_order(16), make_cyclic(2)
    first = [direct_product(G, C2).group for G in catalog]
    kept = {id(t): len(t.groups) for t in _TABLES.values()}
    second = [direct_product(G, C2).group for G in catalog]
    assert all(P is Q for P, Q in zip(first, second))
    assert {id(t): len(t.groups) for t in _TABLES.values()} == kept


def _values():
    """(builder, (class, *fields)) for each immutable value class; a builder
    calls the checked constructor, or `direct_product` for a `Product`."""
    S3 = symmetric_group(3)
    A3 = subgroup_generated(S3, [3])
    sign = quotient(S3, A3)[1]
    P = direct_product(S3, make_cyclic(2))
    fields = (P.group, P.proj1, P.proj2, P.inj1, P.inj2)
    return [
        (lambda: Subgroup(S3, A3.mask), (Subgroup, S3, A3.mask)),
        (lambda: Homomorphism(S3, sign.target, sign.image), (Homomorphism, S3, sign.target, sign.image)),
        (lambda: GroupOverK(S3, sign, "S3"), (GroupOverK, S3, sign, "S3")),
        (lambda: P, (Product, *fields)),
    ]


@pytest.mark.parametrize("build,fields", _values(), ids=["Subgroup", "Homomorphism", "GroupOverK", "Product"])
def test_values_are_read_only_and_compare_by_their_fields(build, fields):
    checked, trusted = build(), _trusted(*fields)
    assert type(checked) is type(trusted) is fields[0]
    assert checked == trusted and not checked != trusted
    assert hash(checked) == hash(trusted) and repr(checked) == repr(trusted)
    assert checked != fields[1:] and checked != object()
    for value in (checked, trusted):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = None
    assert {checked, trusted} == {checked}


def test_a_fresh_homomorphism_has_no_class_map():
    f = Homomorphism(make_cyclic(2), make_cyclic(2), (0, 1))
    g = _trusted(Homomorphism, f.source, f.target, f.image)
    assert f._biset is None and g._biset is None and f._shifted is None and g._shifted is None
    assert f == inner_automorphisms(make_cyclic(2))[0] and repr(f) == (
        "Homomorphism(source=Group(C2, order=2), target=Group(C2, order=2), image=(0, 1))")


# ---------------------------------------------------------------------------
# inner automorphisms


def test_inner_automorphisms_abelian():
    assert len(inner_automorphisms(make_cyclic(4))) == 1
    assert len(inner_automorphisms(make_cyclic(1))) == 1


def test_inner_automorphisms_s3():
    inns = inner_automorphisms(symmetric_group(3))
    assert len(inns) == 6
    assert len({i.image for i in inns}) == 6
