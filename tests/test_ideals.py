"""Ideal evaluations, simple-module dimensions, minimal groups, posets of
B_K-group classes, closed-set lattices, and the p-restricted ideal census."""

import functools

import pytest

import bgroups.ideals as ideals
from bgroups.catalog import groups_up_to_order
from bgroups.groups import (
    Homomorphism,
    dihedral_group,
    direct_product,
    kernel,
    make_cyclic,
    quotient,
    subgroup_generated,
    symmetric_group,
    trivial_group,
)
from bgroups.ideals import (
    P_RESTRICTED,
    TRUNCATED,
    BkPoset,
    ClosedSetCapExceeded,
    build_bk_poset,
    closed_subsets,
    count_p_ideals,
    ideal_eval,
    minimal_groups,
    p_ideal_lattice,
    simple_dim,
)
from bgroups.overk import (
    CASE_EMBEDDING,
    GroupOverK,
    embedding_over,
    is_isomorphic,
    is_quotient_over_k,
    pair_from_subgroup,
    trivial_over,
)
from bgroups.subgroups import enumerate_subgroups
from util import (
    components_oracle,
    covering_pairs_oracle,
    graph_subgroup,
    isomorphisms_oracle,
    klein_four,
    quotient_over_k_oracle,
    subgroup_as_group,
)


V4 = direct_product(make_cyclic(2), make_cyclic(2)).group


# ---------------------------------------------------------------------------
# evaluations


def test_trivial_bk_over_trivial_k_is_whole_ring():
    K = trivial_group()
    bk = trivial_over(K)
    for G in (make_cyclic(2), make_cyclic(4), symmetric_group(3)):
        ev = ideal_eval(bk, G)
        nc = enumerate_subgroups(direct_product(G, K).group).n_classes()
        assert ev.basis_classes == tuple(range(nc))
        assert ev.complement_classes == ()


def test_embedding_ideal_matches_projection_characterization():
    """e_{H,j_H}(G) is spanned by exactly the e_X with p2(X) conjugate to H
    in K: any over-K surjection onto an injective pair forces the images to
    agree up to conjugacy, and conversely X/Ker(p2|X) realizes one."""
    K = make_cyclic(4)
    latk = enumerate_subgroups(K)
    G = symmetric_group(3)
    P = direct_product(G, K)
    lat = enumerate_subgroups(P.group)
    for c in range(latk.n_classes()):
        H = latk.class_rep(c)
        bk = embedding_over(K, H)
        ev = ideal_eval(bk, G)
        for ci in range(lat.n_classes()):
            X = lat.class_rep(ci)
            img = frozenset(P.proj2.image[x] for x in X.elements())
            # K abelian: conjugacy of subgroups is equality
            assert (ci in ev.basis_classes) == (img == frozenset(H.elements()))


def test_ideal_evaluation_dimension_monotone_under_quotient_relation():
    """bk2 ->> bk1 implies containment of basis sets at every G, and
    conversely (checked over a small corpus)."""
    K = make_cyclic(2)
    latk = enumerate_subgroups(K)
    bks = [embedding_over(K, latk.class_rep(c)) for c in range(latk.n_classes())]
    P1 = direct_product(make_cyclic(2), make_cyclic(2))
    bks.append(GroupOverK(P1.group, Homomorphism(P1.group, K, (0, 0, 1, 1))))
    targets = [make_cyclic(2), make_cyclic(4), V4, symmetric_group(3)]
    for b1 in bks:
        for b2 in bks:
            contained = all(
                set(ideal_eval(b2, G).basis_classes)
                <= set(ideal_eval(b1, G).basis_classes)
                for G in targets
            )
            assert contained == is_quotient_over_k(b2, b1)


def test_ideal_membership_of_graph_subgroup():
    K = make_cyclic(4)
    latk = enumerate_subgroups(K)
    for c in range(latk.n_classes()):
        bk = embedding_over(K, latk.class_rep(c))
        X = graph_subgroup(bk)
        lat = enumerate_subgroups(X.parent)
        assert lat.class_of(X) in ideal_eval(bk, bk.L).basis_classes


def test_ideal_membership_trivial_bk():
    """(X, p2) surjects onto the trivial pair exactly when p2(X) = 1."""
    K = make_cyclic(2)
    bk = trivial_over(K)
    G = symmetric_group(3)
    P = direct_product(G, K)
    lat = enumerate_subgroups(P.group)
    basis = ideal_eval(bk, G).basis_classes
    for c in range(lat.n_classes()):
        X = lat.class_rep(c)
        img = {P.proj2.image[x] for x in X.elements()}
        assert (c in basis) == (img == {0})


def test_ideal_membership_trivial_bk_over_trivial_k_always_true():
    K = trivial_group()
    bk = trivial_over(K)
    G = symmetric_group(3)
    P = direct_product(G, K)
    lat = enumerate_subgroups(P.group)
    for c in range(lat.n_classes()):
        assert is_quotient_over_k(pair_from_subgroup(lat.class_rep(c), P.proj2), bk)


def test_ideal_membership_requires_image_conjugacy():
    """X with p2(X) not conjugate into phi(L) cannot lie in the ideal."""
    K = make_cyclic(4)
    bk = embedding_over(K, subgroup_generated(K, [1]))  # H = C4, phi(L) = K
    G = make_cyclic(2)
    P = direct_product(G, K)
    lat = enumerate_subgroups(P.group)
    basis = ideal_eval(bk, G).basis_classes
    for c in range(lat.n_classes()):
        X = lat.class_rep(c)
        img = {P.proj2.image[x] for x in X.elements()}
        if len(img) < 4:
            assert c not in basis


def test_reduction_consistency():
    """Membership of e_X at G agrees with membership of the graph of
    (X, p2) tested at the group X itself."""
    K = make_cyclic(2)
    latk = enumerate_subgroups(K)
    bks = [embedding_over(K, latk.class_rep(c)) for c in range(latk.n_classes())]
    G = symmetric_group(3)
    P = direct_product(G, K)
    lat = enumerate_subgroups(P.group)
    for bk in bks:
        for c in range(lat.n_classes()):
            X = lat.class_rep(c)
            pair = pair_from_subgroup(X, P.proj2)
            reduced = graph_subgroup(pair)
            p2 = direct_product(pair.L, K).proj2
            assert is_quotient_over_k(pair, bk) == is_quotient_over_k(
                pair_from_subgroup(reduced, p2), bk
            )


# ---------------------------------------------------------------------------
# simple dimensions and minimal groups


def test_simple_dim_of_embedding_at_trivial_group():
    K = make_cyclic(4)
    latk = enumerate_subgroups(K)
    for c in range(latk.n_classes()):
        bk = embedding_over(K, latk.class_rep(c))
        assert simple_dim(bk, trivial_group()) == 1


def test_minimal_group_of_embedding_is_trivial():
    K = make_cyclic(4)
    latk = enumerate_subgroups(K)
    for c in range(latk.n_classes()):
        mins = minimal_groups(embedding_over(K, latk.class_rep(c)))
        assert len(mins) == 1 and mins[0].order == 1


def test_minimal_group_of_elementary_abelian_over_trivial_k():
    one = trivial_group()
    bk = GroupOverK(V4, Homomorphism(V4, one, (0,) * 4))
    mins = minimal_groups(bk)
    assert len(mins) == 1 and is_isomorphic(mins[0], V4)


def test_simple_dim_nonzero_at_quotients_missing_kernel():
    """simple_dim(bk, L/N) >= 1 whenever N is normal with N n Ker phi = 1."""
    from bgroups.subgroups import normal_subgroups

    K = make_cyclic(2)
    P1 = direct_product(make_cyclic(2), make_cyclic(2))
    bk = GroupOverK(P1.group, Homomorphism(P1.group, K, (0, 0, 1, 1)))
    ker = kernel(bk.phi)
    for N in normal_subgroups(bk.L):
        if N.mask & ker.mask == 1:
            Q, _ = quotient(bk.L, N)
            assert simple_dim(bk, Q) >= 1


def _simple_dim_cases():
    """The worked example at G1, G2 and L; each p-persistent B_K-group
    (p = 2) over K in 1, C2, C4, V4 and S3, at the catalog groups G with
    |G x K| <= 24; and (H, j_H) for every subgroup H of S3, so that some
    image is a conjugate of a class representative's other than itself."""
    import os

    from bgroups.catalog import groups_up_to_order
    from bgroups.overk import classify_p_persistent_bk
    from bgroups.specdoc import load_spec

    doc = load_spec(os.path.join(os.path.dirname(__file__), "golden", "worked_example.bspec"))
    x = GroupOverK(doc.group("L"), doc.hom("phi"), "L")
    cases = [(x, doc.group(name)) for name in ("G1", "G2", "L")]
    for K in (trivial_group(), make_cyclic(2), make_cyclic(4), V4, symmetric_group(3)):
        for bk, _ in classify_p_persistent_bk(K, 2):
            cases += [(bk, G) for G in groups_up_to_order(8) if G.order * K.order <= 24]
    S3 = symmetric_group(3)
    for H in enumerate_subgroups(S3).subgroups:
        cases += [(embedding_over(S3, H), G) for G in groups_up_to_order(4)]
    return cases


def test_simple_dim_equals_the_unpruned_sum():
    """Counting over the basis of ideal_eval(bk, G) changes no dimension:
    simple_dim equals the number of classes X of G x K whose beta_K is
    isomorphic to bk over K, each pair built by the oracle, and every such
    class is a basis class of the ideal evaluation."""
    from util import simple_classes_oracle

    cases = _simple_dim_cases()
    dims = [simple_dim(bk, G) for bk, G in cases]
    counted = [simple_classes_oracle(bk, G) for bk, G in cases]
    assert dims == [len(cs) for cs in counted]
    for (bk, G), cs in zip(cases, counted):
        assert set(cs) <= set(ideal_eval(bk, G).basis_classes), (bk, G)
    assert dims[:3] == [1, 1, 7] and sum(dims) > len(dims) // 2


def test_simple_dim_zero_below_minimal_order():
    one = trivial_group()
    bk = GroupOverK(V4, Homomorphism(V4, one, (0,) * 4))
    for G in (trivial_group(), make_cyclic(2), make_cyclic(3)):
        assert simple_dim(bk, G) == 0


# ---------------------------------------------------------------------------
# posets and closed sets


def test_p_restricted_poset_c4():
    poset = build_bk_poset(make_cyclic(4), P_RESTRICTED, p=2)
    assert len(poset.nodes) == 6
    assert len(covering_pairs_oracle(poset.quotient_rel)) == 3
    assert len(components_oracle(poset.quotient_rel)) == 3


def test_p_restricted_poset_trivial_k():
    poset = build_bk_poset(trivial_group(), P_RESTRICTED, p=2)
    assert len(poset.nodes) == 2
    assert len(covering_pairs_oracle(poset.quotient_rel)) == 1
    # the chain: (Cp x Cp, !) ->> (1, !)
    big = max(poset.nodes, key=lambda x: x.L.order)
    small = min(poset.nodes, key=lambda x: x.L.order)
    i, j = poset.nodes.index(big), poset.nodes.index(small)
    assert poset.quotient_rel[i][j] and not poset.quotient_rel[j][i]


def test_truncated_poset_trivial_k():
    poset = build_bk_poset(trivial_group(), TRUNCATED, max_order=4)
    orders = sorted(x.L.order for x in poset.nodes)
    assert orders == [1, 4]
    assert all(not x.L.is_cyclic() or x.L.order == 1 for x in poset.nodes)


def _poset(above):
    """A truncated-mode poset over C2 on len(above) copies of one node, with
    the given up-sets."""
    k = make_cyclic(2)
    n = len(above)
    return BkPoset(k, [trivial_over(k)] * n, [""] * n, above)


def _antichain(n):
    return _poset([1 << j for j in range(n)])


def test_closed_subsets_antichain_and_chain():
    assert len(closed_subsets(_antichain(3))) == 8
    chain = _poset([0b01, 0b11])  # node 0 ->> node 1
    assert chain.quotient_rel == [[True, True], [False, True]]
    assert closed_subsets(chain) == [frozenset(), frozenset({0}), frozenset({0, 1})]


def test_closed_subsets_are_up_closed():
    poset = build_bk_poset(make_cyclic(4), P_RESTRICTED, p=2)
    sets = closed_subsets(poset)
    assert len(sets) == 27
    assert len(set(sets)) == 27
    assert sets == sorted(sets, key=lambda s: (len(s), sorted(s)))
    n = len(poset.nodes)
    for s in sets:
        for j in s:
            for i in range(n):
                if poset.quotient_rel[i][j]:
                    assert i in s


def test_closed_subsets_cap():
    with pytest.raises(ClosedSetCapExceeded, match="more than 100 closed sets"):
        closed_subsets(_antichain(10), cap=100)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_subsets_cap_is_exact(n):
    """An n-node antichain has 2^n closed sets: the cap 2^n - 1 raises, and
    the cap 2^n lists them all."""
    with pytest.raises(ClosedSetCapExceeded):
        closed_subsets(_antichain(n), cap=2**n - 1)
    assert len(closed_subsets(_antichain(n), cap=2**n)) == 2**n


def test_closed_subsets_cap_holds_on_thousands_of_nodes():
    """No recursion: 2,000 nodes reach the cap, not the interpreter's
    recursion limit."""
    with pytest.raises(ClosedSetCapExceeded):
        closed_subsets(_antichain(2000), cap=10)


LATTICE_CASES = [
    (trivial_group(), 2, 1, 0, 3),
    (trivial_group(), 3, 1, 0, 3),
    (make_cyclic(2), 2, 2, 0, 9),
    (make_cyclic(2), 3, 2, 0, 9),
    (make_cyclic(3), 2, 2, 0, 9),
    (make_cyclic(3), 3, 2, 0, 9),
    (make_cyclic(4), 2, 3, 0, 27),
    (make_cyclic(4), 3, 3, 0, 27),
    (V4, 2, 4, 1, 162),
    (V4, 3, 5, 0, 243),
    (symmetric_group(3), 2, 4, 0, 81),
    (symmetric_group(3), 3, 4, 0, 81),
]


@pytest.mark.parametrize("K,p,c,nc,total", LATTICE_CASES,
                         ids=lambda v: getattr(v, "label", str(v)))
def test_p_ideal_lattice_census(K, p, c, nc, total):
    d = p_ideal_lattice(K, p)
    assert (d.c_count, d.nc_count, d.total_ideals) == (c, nc, total)
    assert count_p_ideals(d) == total
    assert 3 ** d.c_count * 2 ** d.nc_count == d.total_ideals


_CENSUS = [(K, p) for K in groups_up_to_order(16) for p in (2, 3) if p == 2 or K.order % 3 == 0]


@pytest.mark.parametrize("K,p", _CENSUS, ids=[f"{K.label}-p{p}" for K, p in _CENSUS])
def test_p_ideal_lattice_verifies_on_the_catalog(K, p):
    """The closed sets of the B_K poset number 3^c 2^nc for every catalog K
    (|K| <= 16), at p = 2 and at p = 3 when 3 divides |K|."""
    assert len(_CENSUS) == 53
    d = p_ideal_lattice(K, p)
    assert count_p_ideals(d) == d.total_ideals


def test_p_ideal_lattice_census_builds_no_subgroup_table():
    """The census reads each class's case off its mask in K: no subgroup of
    K gets a Cayley table or an inclusion map of its own."""
    K = direct_product(make_cyclic(5), dihedral_group(5)).group
    lat = enumerate_subgroups(K)
    before = dict(K._t.embeddings)
    assert any(lat.class_rep(c).mask not in before for c in range(lat.n_classes()))
    for p in (2, 5):
        p_ideal_lattice(K, p)
        assert K._t.embeddings == before


def test_p_ideal_lattice_check_fails_without_the_quotient_relation(monkeypatch):
    """The check counts closed sets of the relation, not the census: with
    no pair related, C4's classes no longer give 27 ideals."""
    monkeypatch.setattr(ideals, "is_quotient_over_k", lambda x, y: False)
    d = p_ideal_lattice(make_cyclic(4), 2)
    assert d.total_ideals == 27
    assert count_p_ideals(d) != 27


_CRITERION_7_KS = [trivial_group(), make_cyclic(2), make_cyclic(3), make_cyclic(4),
                   klein_four(), symmetric_group(3)]


@pytest.mark.parametrize("K", _CRITERION_7_KS, ids=lambda g: g.label)
@pytest.mark.parametrize("p", [2, 3])
def test_bk_poset_relation_matches_the_pairwise_oracle(K, p):
    """Pairs whose images lie in different subgroup classes of K are False
    without a test; every entry equals the oracle's quotient test."""
    poset = build_bk_poset(K, P_RESTRICTED, p=p)
    isos = functools.cache(isomorphisms_oracle)
    assert poset.quotient_rel == [
        [quotient_over_k_oracle(x, y, isos) for y in poset.nodes] for x in poset.nodes
    ]


@pytest.mark.parametrize("K,p", _CENSUS, ids=[f"{K.label}-p{p}" for K, p in _CENSUS])
def test_components_match_the_connectivity_oracle(K, p):
    """The connected components of the whole poset are the node groups that
    count_p_ideals counts one at a time: one per subgroup class H of K, its
    (H, j_H) node and the node classify emits after it, if any."""
    poset = build_bk_poset(K, P_RESTRICTED, p=p)
    starts = [i for i, t in enumerate(poset.tags) if t == CASE_EMBEDDING] + [len(poset.nodes)]
    classes = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
    assert components_oracle(poset.quotient_rel) == classes


def test_noncyclic_components_are_isolated():
    d = p_ideal_lattice(V4, 2)
    isolated = [ci for ci, case in enumerate(d.cases) if case is None]
    assert len(isolated) == 1
    poset = build_bk_poset(V4, P_RESTRICTED, p=2)
    # the node for the isolated class covers/is covered by nothing
    for i, (x, t) in enumerate(zip(poset.nodes, poset.tags)):
        if x.L.order == 4 and x.phi.is_injective() and not subgroup_as_group(
            graph_subgroup(x)
        ).is_cyclic():
            for j in range(len(poset.nodes)):
                if j != i:
                    assert not poset.quotient_rel[i][j]
                    assert not poset.quotient_rel[j][i]


# ---------------------------------------------------------------------------
# stability of evaluations under the elementary operations


def test_evaluation_stability_small():
    from util import evaluation_stable_under_ops

    K = make_cyclic(2)
    latk = enumerate_subgroups(K)
    bks = [embedding_over(K, latk.class_rep(c)) for c in range(latk.n_classes())]
    for bk in bks:
        for G in (make_cyclic(2), make_cyclic(4), V4):
            assert evaluation_stable_under_ops(bk, G, K)
