"""Subgroup lattices, Moebius function, table of marks, complements.

The enumeration is cross-checked against a brute-force oracle (closure of
every generating set of size <= 3, saturated) and, with its classes, against
a plain cyclic-join oracle that closes every join, the marks table against the
count |{g : g^-1 X g <= Y}| / |Y|, normalizer orders against a count of
the elements that conjugate X to itself, and the Moebius function against
its defining recursion and the closed forms of elementary abelian and
cyclic groups.  The oracles conjugate and close with their own loops over
the Cayley table, not with the code they check.
"""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bgroups.catalog import groups_up_to_order
from bgroups.groups import (
    Group,
    GroupError,
    alternating_4,
    dicyclic_3,
    dihedral_group,
    direct_product,
    full_subgroup,
    group_from_permutations,
    is_normal,
    mask_of,
    make_cyclic,
    quaternion_group,
    relabel,
    semidirect_product,
    subgroup_embedding,
    subgroup_generated,
    symmetric_group,
    trivial_subgroup,
)
import bgroups.subgroups
from bgroups.subgroups import (
    _coset_join,
    _cyclic_generators,
    count_complements,
    enumerate_subgroups,
    m_const,
    m_constant,
    normal_subgroups,
)
from closed_forms import (
    abelian_mark,
    abelian_mark_column,
    elementary_abelian_m_constant,
    elementary_abelian_subgroup_count,
)
from util import (
    brute_mark,
    conjugate_elements,
    cyclic_join_oracle,
    m_constant_oracle,
    mark_columns_oracle,
    moebius_oracle,
    pairwise_closure,
    ring_pairs,
)

ORACLE_GROUPS = [
    make_cyclic(12),
    direct_product(make_cyclic(2), make_cyclic(2)).group,
    direct_product(
        direct_product(make_cyclic(2), make_cyclic(2)).group, make_cyclic(2)
    ).group,
    symmetric_group(3),
    dihedral_group(4),
    quaternion_group(),
    alternating_4(),
    dicyclic_3(),
    symmetric_group(4),
    direct_product(make_cyclic(2), dicyclic_3()).group,
]


def brute_force_subgroups(G: Group) -> set[int]:
    """Close every subset of at most 3 generators, then saturate by joins."""
    found = {mask_of(pairwise_closure(G, gens))
             for gens in [()]
             + [(a,) for a in range(G.order)]
             + [(a, b) for a in range(G.order) for b in range(a)]
             + [(a, b, c) for a in range(G.order)
                for b in range(a) for c in range(b)]}
    changed = True
    while changed:
        changed = False
        for m1 in list(found):
            for m2 in list(found):
                join = mask_of(pairwise_closure(
                    G, [i for i in range(G.order) if ((m1 | m2) >> i) & 1]))
                if join not in found:
                    found.add(join)
                    changed = True
    return found


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.label)
def test_enumeration_matches_brute_force(G):
    lat = enumerate_subgroups(G)
    assert {S.mask for S in lat.subgroups} == brute_force_subgroups(G)


def _frobenius_21() -> Group:
    """C7 ⋊ C3, the generator of C3 acting on C7 by x -> 2x."""
    return semidirect_product(make_cyclic(7), make_cyclic(3),
                              tuple(tuple(x * 2**i % 7 for x in range(7)) for i in range(3)))


def _alternating_5() -> Group:
    return relabel(group_from_permutations(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]), "A5")


# the catalog up to order 16, S4, products whose centre is neither 1 nor the
# whole group, where some joins are central coset unions and some are not,
# C7 ⋊ C3, whose least prime 3 puts the Lagrange stop at |G|/3, S4xC2, and
# A5 (59 subgroups in 9 classes of up to 15) and S3xS3 (60 in 22), where
# the extended member of a class is often not its least member
JOIN_ORACLE_GROUPS = groups_up_to_order(16) + [
    symmetric_group(4),
    direct_product(symmetric_group(3), make_cyclic(4)).group,
    direct_product(alternating_4(), make_cyclic(2)).group,
    direct_product(dihedral_group(4), make_cyclic(3)).group,
    _frobenius_21(),
    direct_product(symmetric_group(4), make_cyclic(2)).group,
    _alternating_5(),
    direct_product(symmetric_group(3), symmetric_group(3)).group,
]


@pytest.mark.parametrize("G", JOIN_ORACLE_GROUPS, ids=lambda g: f"{g.label}-{g.order}")
def test_enumeration_matches_cyclic_join_oracle(G):
    """The skipped joins, the coset unions, extending one member per class
    and the orbit walk that leaves out central generators give the masks
    and classes of joining every subgroup with every cyclic subgroup and
    conjugating by every element."""
    lat = enumerate_subgroups(G)
    got = ([S.mask for S in lat.subgroups], lat.conj_class, lat.class_reps, lat.class_sizes)
    assert got == cyclic_join_oracle(G)


@pytest.mark.parametrize("G, most", [
    pytest.param(symmetric_group(4), 45, id="S4"),
    pytest.param(symmetric_group(5), 288, id="S5"),
    pytest.param(_alternating_5(), 75, id="A5"),
])
def test_enumeration_extends_one_subgroup_per_class(G, most, monkeypatch):
    """A fresh enumeration passes `_coset_join` an h from each conjugacy
    class at most once: the other members of the class are not extended.
    Joins that give a known cover of h or an h-conjugate of an earlier
    join are skipped, so the coset joins stay within the counts recorded
    when those skips were added (extending one member per class alone
    took 92, 866 and 180)."""
    extended = []

    def recording_join(t, h, *rest):
        extended.append(h)
        return _coset_join(t, h, *rest)

    monkeypatch.setattr(bgroups.subgroups, "_coset_join", recording_join)
    monkeypatch.setattr(G._t, "lattice", None)
    lat = enumerate_subgroups(G)
    classes = [lat.conj_class[lat.index_of[h]] for h in set(extended)]
    assert len(classes) == len(set(classes))
    assert len(extended) <= most


@pytest.mark.parametrize("G", groups_up_to_order(16) + [symmetric_group(4), symmetric_group(5)],
                         ids=lambda g: f"{g.label}-{g.order}")
def test_least_cyclic_generators(G):
    """Each element's least generator generates the element's cyclic
    subgroup, and no smaller element does."""
    least = _cyclic_generators(G)
    cyclic = [mask_of(pairwise_closure(G, [a])) for a in range(G.order)]
    assert len(least) == G.order
    for g, a in enumerate(least):
        assert cyclic[a] == cyclic[g]
        assert cyclic.index(cyclic[g]) == a


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coset_join_matches_pairwise_closure(data):
    """The coset join of h = <gens> and a is the pairwise closure of h's
    elements and a.  Every join that is G ends at the Lagrange stop, before
    its last coset, and many drawn joins are G."""
    G = data.draw(st.sampled_from(groups_up_to_order(16) + [symmetric_group(4), _frobenius_21()]))
    element = st.integers(0, G.order - 1)
    gens = data.draw(st.lists(element, max_size=2))
    a = data.draw(element)
    h = pairwise_closure(G, gens)
    p = next((p for p in range(2, G.order + 1) if G.order % p == 0), 1)
    t = G.table
    got = _coset_join(t, mask_of(h), sorted(h), [t[s] for s in gens + [a]],
                      G.order // p // len(h))
    assert got == mask_of(pairwise_closure(G, h | {a}))


def _elementary_abelian(rank: int, p: int = 2) -> Group:
    G = make_cyclic(1)
    for _ in range(rank):
        G = direct_product(G, make_cyclic(p)).group
    return G


def _lattice_corpus() -> list[Group]:
    """S4xC2, C2^5, S4xC4, S5 and C2^6, the five groups of the benchmark's
    `lattice` workload."""
    S4 = symmetric_group(4)
    return [direct_product(S4, make_cyclic(2)).group, _elementary_abelian(5),
            direct_product(S4, make_cyclic(4)).group, symmetric_group(5),
            _elementary_abelian(6)]


def _ring_corpus() -> list[Group]:
    """The 108 products G x K of the benchmark's `ring` workload."""
    return [direct_product(G, K).group for G, K in ring_pairs()]


# SHA-256 over each group's (masks, conj_class, class_reps, class_sizes), in
# corpus order, recorded from an enumeration that closed every non-central
# join element by element; a faster join must reproduce them byte for byte
PINNED_LATTICES = {
    "lattice": (_lattice_corpus, 5,
                "77eed690352056fbea0007e755b735d6df83961290ab71382a62fb11691db7c4"),
    "ring": (_ring_corpus, 108,
             "96f4cdd7bf267060658fab317f3cd487478bb180c89d1a33d791d766bef51014"),
}


@pytest.mark.parametrize("corpus", sorted(PINNED_LATTICES))
def test_enumeration_output_is_pinned(corpus):
    """Masks, classes, class representatives and class sizes are the
    recorded ones, byte for byte, on the benchmark's two lattice corpora."""
    build, size, want = PINNED_LATTICES[corpus]
    groups = build()
    assert len(groups) == size
    digest = hashlib.sha256()
    for G in groups:
        lat = enumerate_subgroups(G)
        data = ([S.mask for S in lat.subgroups], lat.conj_class, lat.class_reps, lat.class_sizes)
        digest.update(repr(data).encode())
    assert digest.hexdigest() == want


def test_counts():
    assert len(enumerate_subgroups(make_cyclic(5))) == 2
    latv = enumerate_subgroups(direct_product(make_cyclic(2), make_cyclic(2)).group)
    assert len(latv) == 5 and latv.n_classes() == 5
    lat3 = enumerate_subgroups(symmetric_group(3))
    assert len(lat3) == 6 and lat3.n_classes() == 4
    lat5 = enumerate_subgroups(symmetric_group(5))
    assert (len(lat5), lat5.n_classes()) == (156, 19)


def test_counts_elementary_abelian_64():
    lat = enumerate_subgroups(_elementary_abelian(6))
    assert len(lat) == lat.n_classes() == 2825
    assert len(lat) == elementary_abelian_subgroup_count(2, 6)


def test_counts_elementary_abelian_128():
    """C2^7 has sum_k [7 k]_2 subgroups, each its own class."""
    lat = enumerate_subgroups(_elementary_abelian(7))
    assert len(lat) == lat.n_classes() == 29212
    assert len(lat) == elementary_abelian_subgroup_count(2, 7)


def _rank(order: int, p: int) -> int:
    n = 0
    while order > 1:
        order //= p
        n += 1
    return n


# the catalog's elementary abelian groups C_p^n, n >= 1, with p and n
_ELEMENTARY_ABELIAN_CATALOG = [
    (G, p, _rank(G.order, p))
    for G in groups_up_to_order(16) if G.order > 1 and G.is_abelian()
    for p in [min(o for o in G.element_orders() if o > 1)] if G.exponent() == p
]


@pytest.mark.parametrize("G, p, n", _ELEMENTARY_ABELIAN_CATALOG,
                         ids=lambda v: getattr(v, "label", str(v)))
def test_elementary_abelian_closed_forms_match_the_oracles(G, p, n):
    """The subgroup count sum_k [n k]_p against the brute-force enumeration,
    and m_{E,N} = prod_{i<d} (1 - p^(n-d-1+i)) against the sum
    (1/|E|) sum of |X| mu(X, E) over X with XN = E, mu from the recursion
    oracle: on every elementary abelian group of the catalog."""
    assert len(_ELEMENTARY_ABELIAN_CATALOG) == 10
    assert len(brute_force_subgroups(G)) == elementary_abelian_subgroup_count(p, n)
    lat = enumerate_subgroups(G)
    mu = moebius_oracle(lat)
    top = len(lat) - 1
    for N in lat.subgroups:
        want = Fraction(sum(X.order * mu[xi, top] for xi, X in enumerate(lat.subgroups)
                            if (xi, top) in mu and len(pairwise_closure(
                                G, X.elements() + N.elements())) == G.order), G.order)
        assert elementary_abelian_m_constant(p, n, _rank(N.order, p)) == want


@pytest.mark.parametrize("p, n, count", [(3, 4, 212), (5, 3, 64)], ids=["C3^4", "C5^3"])
def test_counts_elementary_abelian_at_the_cap(p, n, count):
    """C3^4 and C5^3, each subgroup its own class (C2^7 is pinned above)."""
    lat = enumerate_subgroups(_elementary_abelian(n, p))
    assert len(lat) == lat.n_classes() == count == elementary_abelian_subgroup_count(p, n)


def test_contains_trivial_and_full_and_is_sorted():
    for G in ORACLE_GROUPS:
        lat = enumerate_subgroups(G)
        assert lat.subgroups[0].is_trivial()
        assert lat.subgroups[-1].is_full()
        keys = [(S.order, S.mask) for S in lat.subgroups]
        assert keys == sorted(keys)
        for S in lat.subgroups:
            assert G.order % S.order == 0


def test_closed_under_conjugation():
    for G in ORACLE_GROUPS:
        lat = enumerate_subgroups(G)
        masks = {S.mask for S in lat.subgroups}
        for S in lat.subgroups:
            for g in range(G.order):
                assert mask_of(conjugate_elements(G, S.elements(), g)) in masks


# ---------------------------------------------------------------------------
# Moebius function


def test_moebius_reflexive_and_chain():
    lat = enumerate_subgroups(make_cyclic(5))
    assert lat.moebius(1, 1) == 1
    assert lat.moebius(0, 1) == -1


def test_moebius_klein_four():
    latv = enumerate_subgroups(direct_product(make_cyclic(2), make_cyclic(2)).group)
    assert latv.moebius(0, len(latv) - 1) == 2


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.label)
def test_moebius_recursion_identity(G):
    """The library agrees with the recursion oracle on every pair, and each
    column holds exactly the nonzero values."""
    lat = enumerate_subgroups(G)
    want = moebius_oracle(lat)
    n = len(lat)
    for j in range(n):
        assert lat.moebius_column(j) == {i: want[i, j] for i in range(n) if want.get((i, j))}
        for i in range(n):
            assert lat.moebius(i, j) == want.get((i, j), 0)


def _prime_power(n: int) -> bool:
    p = next((d for d in range(2, n + 1) if n % d == 0), n)
    while n % p == 0 and n > 1:
        n //= p
    return n == 1


@pytest.mark.parametrize("G", JOIN_ORACLE_GROUPS + [_elementary_abelian(3, 3)],
                         ids=lambda g: f"{g.label}-{g.order}")
def test_moebius_prime_power_columns_match_oracle(G):
    """Every column of an X_j of prime-power order, which P. Hall's closed
    form gives, equals the recursion oracle's: all columns of a p-group,
    and the p-subgroup columns of S4, A5 or S3xS3."""
    lat = enumerate_subgroups(G)
    want = moebius_oracle(lat)
    n = len(lat)
    for j, L in enumerate(lat.subgroups):
        if _prime_power(L.order):
            assert lat.moebius_column(j, keep=False) == {
                i: want[i, j] for i in range(n) if want.get((i, j))}


def _hall_mu(p: int, index: int) -> int:
    """mu(X, L) for L/X elementary abelian of order index = p^k:
    (-1)^k p^(k(k-1)/2) (Weisner 1935; P. Hall 1936)."""
    k = 0
    while index > 1:
        index //= p
        k += 1
    return (-1) ** k * p ** (k * (k - 1) // 2)


@pytest.mark.parametrize("p, rank", [(2, 5), (3, 3)])
def test_moebius_elementary_abelian_closed_form(p, rank):
    lat = enumerate_subgroups(_elementary_abelian(rank, p))
    for j, L in enumerate(lat.subgroups):
        for i, X in enumerate(lat.subgroups):
            want = _hall_mu(p, L.order // X.order) if X <= L else 0
            assert lat.moebius(i, j) == want


def test_moebius_elementary_abelian_64_top_column():
    lat = enumerate_subgroups(_elementary_abelian(6))
    top = len(lat) - 1
    assert lat.moebius_column(top) == {
        i: _hall_mu(2, 64 // X.order) for i, X in enumerate(lat.subgroups)
    }


def test_moebius_2_group_closed_form():
    """In a 2-group, mu(X, L) is the closed form above when L/X is elementary
    abelian, and 0 otherwise (P. Hall 1936).  L/X is elementary abelian
    exactly when X <= L holds the square of every element of L."""
    G = direct_product(dihedral_group(4), make_cyclic(2)).group
    lat = enumerate_subgroups(G)
    for j, L in enumerate(lat.subgroups):
        squares = mask_of(G.table[a][a] for a in L.elements())
        for i, X in enumerate(lat.subgroups):
            elementary = X <= L and squares & X.mask == squares
            assert lat.moebius(i, j) == (_hall_mu(2, L.order // X.order) if elementary else 0)


def _number_mu(m: int) -> int:
    """The number-theoretic Moebius function, by trial division."""
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def test_moebius_cyclic_closed_form():
    """mu(C_d, C_n) is the number-theoretic mu(n/d)."""
    for n in [*range(1, 61), 64, 210]:
        lat = enumerate_subgroups(make_cyclic(n))
        for j, L in enumerate(lat.subgroups):
            for i, X in enumerate(lat.subgroups):
                want = _number_mu(L.order // X.order) if X <= L else 0
                assert lat.moebius(i, j) == want


# ---------------------------------------------------------------------------
# table of marks


def test_marks_trivial_group():
    assert enumerate_subgroups(make_cyclic(1)).marks() == [[1]]


def test_marks_c_p_free_column():
    lat = enumerate_subgroups(make_cyclic(5))
    M = lat.marks()
    assert M[0][0] == 5 and M[1][0] == 0 and M[1][1] == 1


def test_marks_s3_c2_entry():
    lat = enumerate_subgroups(symmetric_group(3))
    c2 = next(c for c in range(lat.n_classes()) if lat.class_rep(c).order == 2)
    assert lat.marks()[c2][c2] == 1


MARKS_ORACLE_GROUPS = ORACLE_GROUPS + [
    direct_product(symmetric_group(4), make_cyclic(2)).group,
    symmetric_group(5),
]


@pytest.mark.parametrize("G", MARKS_ORACLE_GROUPS, ids=lambda g: g.label)
def test_marks_against_conjugation_oracle(G):
    lat = enumerate_subgroups(G)
    M = lat.marks()
    nc = lat.n_classes()
    for cx in range(nc):
        for cy in range(nc):
            assert M[cx][cy] == brute_mark(lat, cx, cy)


def test_marks_abelian_closed_form():
    """In an abelian group every subgroup is its own class, and X fixes
    every coset of Y when X <= Y and none otherwise."""
    G = _elementary_abelian(5)
    lat = enumerate_subgroups(G)
    M = lat.marks()
    assert lat.n_classes() == len(lat) == 374
    for cx in range(len(lat)):
        X = lat.class_rep(cx)
        for cy in range(len(lat)):
            assert M[cx][cy] == abelian_mark(G.order, X.mask, lat.class_rep(cy).mask)


def _c4_cubed() -> Group:
    C4 = make_cyclic(4)
    return direct_product(direct_product(C4, C4).group, C4).group


@pytest.mark.parametrize("corpus", ["lattice", "ring"])
def test_mark_column_matches_pair_scan_oracle(corpus):
    """Each class's column, built from its down-set on first read, equals
    the all-pairs containment scan, and is kept: the five `lattice` groups
    and C4^3, and the 108 `ring` products."""
    groups = _lattice_corpus() + [_c4_cubed()] if corpus == "lattice" else _ring_corpus()
    for G in groups:
        lat = enumerate_subgroups(G)
        want = mark_columns_oracle(lat)
        for y in range(lat.n_classes()):
            col = lat.mark_column(y)
            assert col == want[y], (G.label, y)
            assert type(col[0]) is tuple and type(col[1]) is tuple
            assert lat.mark_column(y) is col


def test_abelian_marks_closed_form_matches_pair_scan():
    """The closed form |G:Y| when X <= Y, and 0 otherwise, is itself checked
    against the pair-scan oracle on every C2^5 column."""
    G = _elementary_abelian(5)
    lat = enumerate_subgroups(G)
    masks = [S.mask for S in lat.subgroups]
    assert lat.n_classes() == len(masks)
    for y, (xs, ms) in enumerate(mark_columns_oracle(lat)):
        assert abelian_mark_column(G.order, masks, y) == dict(zip(xs, ms))


@pytest.mark.parametrize("G, sample", [(_elementary_abelian(7), 64), (_c4_cubed(), None)],
                         ids=["C2^7", "C4^3"])
def test_mark_column_matches_abelian_closed_form(G, sample):
    """Mark columns at the cap, where the pair scan is too slow to serve as
    an oracle: a seeded sample of 64 of the 29,212 C2^7 columns, and every
    C4^3 column, against the abelian closed form."""
    lat = enumerate_subgroups(G)
    masks = [S.mask for S in lat.subgroups]
    assert lat.n_classes() == len(masks)
    ys = range(len(masks)) if sample is None else random.Random(7).sample(range(len(masks)), sample)
    for y in ys:
        assert dict(zip(*lat.mark_column(y))) == abelian_mark_column(G.order, masks, y)


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.label)
def test_normalizer_order_against_conjugation_count(G):
    lat = enumerate_subgroups(G)
    for i, S in enumerate(lat.subgroups):
        xs = S.elements()
        count = sum(1 for g in range(G.order) if conjugate_elements(G, xs, g) == set(xs))
        assert lat.normalizer_order(i) == count


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.label)
def test_marks_triangular_with_index_row(G):
    lat = enumerate_subgroups(G)
    M = lat.marks()
    nc = lat.n_classes()
    for cx in range(nc):
        assert M[cx][cx] > 0
        # mark of [G/Y] at the trivial subgroup is the index of Y
        assert M[0][cx] == G.order // lat.class_rep(cx).order
        for cy in range(nc):
            if M[cx][cy] != 0:
                assert lat.class_rep(cx).order <= lat.class_rep(cy).order


# ---------------------------------------------------------------------------
# normal subgroups and complements


def test_normal_subgroups_abelian():
    G = make_cyclic(12)
    assert len(normal_subgroups(G)) == len(enumerate_subgroups(G))


def test_normal_subgroups_s3():
    orders = sorted(N.order for N in normal_subgroups(symmetric_group(3)))
    assert orders == [1, 3, 6]


def test_central_subgroups_of_order24_example_are_normal():
    L = direct_product(make_cyclic(2), dicyclic_3()).group
    a, c = 12, 1
    c2 = L.mul(c, c)
    ac2 = L.mul(a, c2)
    norm_masks = {N.mask for N in normal_subgroups(L)}
    for z in (c2, ac2):
        S = subgroup_generated(L, [z])
        assert S.order == 2 and S.mask in norm_masks
        # central: commutes with everything
        assert all(L.mul(z, g) == L.mul(g, z) for g in range(L.order))


def test_is_normal_matches_class_size():
    lat = enumerate_subgroups(symmetric_group(4))
    for i, S in enumerate(lat.subgroups):
        singleton = sum(
            1 for j in range(len(lat)) if lat.conj_class[j] == lat.conj_class[i]
        ) == 1
        assert is_normal(S) == singleton


def test_count_complements():
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    Z = subgroup_generated(V, [1])
    assert count_complements(V, Z) == 2
    C4 = make_cyclic(4)
    assert count_complements(C4, subgroup_generated(C4, [2])) == 0
    G = symmetric_group(3)
    assert count_complements(G, trivial_subgroup(G)) == 1


def test_count_complements_refuses_a_subgroup_of_another_group():
    """C6's full mask is also S3's, but C6's full subgroup is not S3's."""
    with pytest.raises(GroupError, match="Z must be a subgroup of G"):
        count_complements(symmetric_group(3), full_subgroup(make_cyclic(6)))


def test_lattice_refuses_a_subgroup_of_another_group():
    """C6's full mask is also S3's, but C6's full subgroup is not S3's: the
    lattice's index and class lookups, and so e_L and [G/X], refuse it."""
    from bgroups.burnside import gluck_idempotent, transitive_basis_element

    S3, C6 = symmetric_group(3), make_cyclic(6)
    lat, foreign = enumerate_subgroups(S3), full_subgroup(C6)
    for lookup in (lat.index, lat.class_of, lambda S: gluck_idempotent(S3, S),
                   lambda S: transitive_basis_element(S3, S)):
        with pytest.raises(GroupError, match="does not belong to this lattice"):
            lookup(foreign)
    same = Group(6, S3.table, S3.inverse, "T")  # equal to S3 under another label
    assert lat.index(full_subgroup(same)) == len(lat) - 1


# ---------------------------------------------------------------------------
# m-constants at the lattice level


def test_m_constant_examples():
    C3 = make_cyclic(3)
    lat = enumerate_subgroups(C3)
    assert m_constant(lat, full_subgroup(C3), trivial_subgroup(C3)) == 1
    assert m_constant(lat, full_subgroup(C3), full_subgroup(C3)) == Fraction(2, 3)
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    latv = enumerate_subgroups(V)
    assert m_constant(latv, full_subgroup(V), subgroup_generated(V, [1])) == 0
    assert m_constant(latv, full_subgroup(V), full_subgroup(V)) == 0


def test_m_constant_refuses_a_non_normal_subgroup():
    """m_{L,N} is defined only for N normal in L: a transposition's C2 in S3,
    and each non-central C2 of D8 on D8's own lattice, is refused and leaves
    no memo entry; D8 inside S4 is refused as L."""
    S3 = symmetric_group(3)
    lat = enumerate_subgroups(S3)
    C2 = next(S for S in lat.subgroups if S.order == 2)
    with pytest.raises(GroupError, match="N must be normal in L"):
        m_constant(lat, full_subgroup(S3), C2)
    assert C2.mask not in lat._m_constants
    lat4 = enumerate_subgroups(symmetric_group(4))
    D8 = next(S for S in lat4.subgroups if S.order == 8)
    with pytest.raises(GroupError, match="L must be the lattice's group"):
        m_constant(lat4, D8, lat4.subgroups[0])
    latd = enumerate_subgroups(subgroup_embedding(D8).source)
    refused = 0
    for N in latd.subgroups:
        if N.order == 2:
            try:
                m_constant(latd, latd.subgroups[-1], N)
            except GroupError:
                refused += 1
                assert N.mask not in latd._m_constants
    assert refused == 4  # D8 has five subgroups of order 2; only its centre is normal


def test_m_constant_refuses_subgroups_of_another_group():
    """C6's full and trivial masks are also S3's, but C6's subgroups are not
    S3's: m_constant refuses either as L or as N."""
    S3, C6 = symmetric_group(3), make_cyclic(6)
    lat = enumerate_subgroups(S3)
    for L, N in ((full_subgroup(C6), trivial_subgroup(S3)),
                 (full_subgroup(S3), trivial_subgroup(C6))):
        with pytest.raises(GroupError, match="L must be the lattice's group and N a subgroup of it"):
            m_constant(lat, L, N)


def test_m_const_refuses_a_foreign_or_non_normal_subgroup():
    S3 = symmetric_group(3)
    with pytest.raises(GroupError, match="L must be the lattice's group and N a subgroup of it"):
        m_const(S3, trivial_subgroup(make_cyclic(6)))
    C2 = next(S for S in enumerate_subgroups(S3).subgroups if S.order == 2)
    with pytest.raises(GroupError, match="N must be normal in L"):
        m_const(S3, C2)


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.label)
def test_m_constant_memo_matches_moebius_oracle(G):
    """For every subgroup L, every m_{L,N} with N normal in L, computed on
    L's own group, equals `m_constant_oracle` (mu from the recursion
    oracle, XN = L by pairwise closure), on the first call, in the memo
    under N's mask, and on the memoised second call; a proper subgroup as
    L is still refused once the memo is filled."""
    lat = enumerate_subgroups(G)
    for L in lat.subgroups:
        LG = subgroup_embedding(L).source
        latl = enumerate_subgroups(LG)
        for N in latl.subgroups:
            nset = set(N.elements())
            if any(conjugate_elements(LG, nset, g) != nset for g in range(LG.order)):
                continue
            want = m_constant_oracle(LG, N)
            assert m_constant(latl, latl.subgroups[-1], N) == want
            assert latl._m_constants[N.mask] == want
            assert m_constant(latl, latl.subgroups[-1], N) == want
    bottom = lat.subgroups[0]
    if len(lat) > 1:
        with pytest.raises(GroupError, match="L must be the lattice's group"):
            m_constant(lat, bottom, bottom)


M_ORACLE_GROUPS = [
    *groups_up_to_order(16),
    direct_product(symmetric_group(4), make_cyclic(2)).group,
    direct_product(symmetric_group(4), make_cyclic(4)).group,
    symmetric_group(5),
    direct_product(dihedral_group(4), make_cyclic(6)).group,
]


@pytest.mark.parametrize("G", M_ORACLE_GROUPS, ids=lambda g: g.label)
def test_m_constants_match_the_oracle_on_every_normal_subgroup(G):
    """m_{G,N} for every normal N (422 in all over these groups), with G's
    memo emptied first so the product recursion through the minimal normal
    subgroups runs, equals `m_constant_oracle`, which walks no quotient."""
    lat = enumerate_subgroups(G)
    lat._m_constants.clear()
    for N in normal_subgroups(G):
        assert m_const(G, N) == m_constant_oracle(G, N), N


@pytest.mark.parametrize("p, n", [(2, 6), (3, 4), (5, 3)], ids=["C2^6", "C3^4", "C5^3"])
def test_m_constants_match_the_elementary_abelian_closed_form(p, n):
    """Every m_{E,N} of C2^6 (2,825 subgroups N), C3^4 and C5^3 is
    prod_{i<d} (1 - p^(n-d-1+i)) for N of rank d."""
    E = _elementary_abelian(n, p)
    for N in enumerate_subgroups(E).subgroups:
        assert m_const(E, N) == elementary_abelian_m_constant(p, n, _rank(N.order, p)), N
