"""Groups over K: morphisms up to inner automorphisms, quotient testing,
B_K-group detection, beta_K, p-persistence, and the classification of
p-persistent B_K-groups."""

import functools
import itertools

import pytest

from bgroups.burnside import m_const
from bgroups import ideals, overk
from bgroups.catalog import groups_of_order, groups_up_to_order
from bgroups.groups import (
    Group,
    GroupError,
    Homomorphism,
    alternating_4,
    dicyclic_3,
    dihedral_group,
    direct_product,
    full_subgroup,
    kernel,
    make_cyclic,
    mask_of,
    o_p_subgroup,
    quaternion_group,
    quotient,
    subgroup_generated,
    symmetric_group,
    trivial_group,
    trivial_subgroup,
)
from bgroups.overk import (
    CASE_CP,
    CASE_CP2,
    CASE_EMBEDDING,
    GroupOverK,
    beta_k,
    classify_p_persistent_bk,
    dedupe_over_k,
    embedding_over,
    groups_over_k,
    homomorphisms,
    is_bk_group,
    is_isomorphic,
    is_isomorphic_over_k,
    is_p_persistent,
    is_quotient_over_k,
    isomorphisms,
    p_persistent_case,
    quotient_over_k,
)
from bgroups.subgroups import enumerate_subgroups, m_constant, normal_subgroups
from closed_forms import p_group_beta_order, p_group_is_b_group
from util import (
    graph_subgroup,
    is_b_group_oracle,
    hom_images_oracle,
    is_homomorphism,
    is_morphism_over_k,
    iso_over_k_oracle,
    isomorphisms_oracle,
    klein_four,
    over_k_class_oracle,
    p_graph_subgroup,
    p_persistent_bk_search,
    p_persistent_case_oracle,
    quotients_over_k_oracle,
)


# ---------------------------------------------------------------------------
# plain homomorphism machinery


def test_homomorphism_counts():
    assert len(homomorphisms(make_cyclic(4), make_cyclic(2))) == 2
    assert len(homomorphisms(symmetric_group(3), make_cyclic(2))) == 2
    assert len(homomorphisms(symmetric_group(3), make_cyclic(3))) == 1
    assert len(homomorphisms(make_cyclic(2), make_cyclic(4))) == 2
    # Hom(C6, S3): image must be abelian: 1, the three C2s via sign-like maps,
    # the C3 subgroup -> 1 + 3 + 2 = 6
    assert len(homomorphisms(make_cyclic(6), symmetric_group(3))) == 6
    # into S3 from V4 or Q8: the trivial map and 3 onto each of the 3 C2s;
    # from S3: also its 6 automorphisms
    V, S3 = direct_product(make_cyclic(2), make_cyclic(2)).group, symmetric_group(3)
    for G, H, count in ((V, S3, 10), (quaternion_group(), S3, 10), (S3, S3, 10),
                        (dihedral_group(4), make_cyclic(2), 4)):
        found = homomorphisms(G, H)
        assert len({f.image for f in found}) == len(found) == count
        assert all(is_homomorphism(G, H, f.image) for f in found)


def test_isomorphism_basics():
    assert is_isomorphic(make_cyclic(6), direct_product(make_cyclic(2), make_cyclic(3)).group)
    assert not is_isomorphic(make_cyclic(6), symmetric_group(3))
    assert not is_isomorphic(dihedral_group(4), quaternion_group())
    assert not is_isomorphic(dicyclic_3(), alternating_4())
    assert is_isomorphic(dihedral_group(3), symmetric_group(3))


def test_isomorphisms_are_bijective_homomorphisms():
    G = quaternion_group()
    for f in isomorphisms(G, G):
        assert f.is_bijective()
    assert sum(1 for _ in isomorphisms(G, G)) == 24  # |Aut(Q8)| = 24


def _brute_homomorphisms(G, H) -> set:
    """Every one of the |H|^|G| maps G -> H that passes the brute-force
    homomorphism law."""
    return {
        m for m in itertools.product(range(H.order), repeat=G.order)
        if is_homomorphism(G, H, m)
    }


_BRUTE_LIMIT = 5000  # |H|^|G| maps per pair
_CATALOG = groups_up_to_order(16)


def test_homomorphisms_match_brute_force_on_the_catalog():
    pairs = [(G, H) for G in _CATALOG for H in _CATALOG if H.order**G.order <= _BRUTE_LIMIT]
    assert len(pairs) > 100
    for G, H in pairs:
        found = [f.image for f in homomorphisms(G, H)]
        assert len(set(found)) == len(found), (G, H)
        assert set(found) == _brute_homomorphisms(G, H), (G, H)


def test_automorphisms_match_brute_force_on_the_catalog():
    for G in (G for G in _CATALOG if G.order**G.order <= _BRUTE_LIMIT):
        found = [f.image for f in isomorphisms(G, G)]
        assert len(set(found)) == len(found), G
        assert set(found) == {
            m for m in _brute_homomorphisms(G, G) if len(set(m)) == G.order
        }, G


_SEARCH_LIMIT = 1000  # candidate assignments of generator images per pair


def _assignments(G, H) -> int:
    horders = H.element_orders()
    n = 1
    for g in G.generating_sequence():
        n *= sum(1 for o in horders if G.element_order(g) % o == 0)
    return n


def test_homomorphisms_match_the_full_law_search_on_the_catalog():
    """The search checks the law on the word plan's chords only; the oracle
    checks it on all |G|^2 pairs."""
    pairs = [(G, H) for G in _CATALOG for H in _CATALOG if _assignments(G, H) <= _SEARCH_LIMIT]
    assert len(pairs) > 1700
    for G, H in pairs:
        assert {f.image for f in homomorphisms(G, H)} == set(hom_images_oracle(G, H)), (G, H)


# ---------------------------------------------------------------------------
# the category over K


def test_identity_is_morphism_over_k():
    K = make_cyclic(4)
    x = embedding_over(K, subgroup_generated(K, [2]))
    ident = Homomorphism(x.L, x.L, tuple(range(x.L.order)))
    assert is_morphism_over_k(ident, x, x)


def test_transversal_gives_each_inner_automorphism_once():
    from bgroups.overk import _transversal

    for K in [*_CATALOG, symmetric_group(4)]:
        reps = _transversal(K)
        inner = {tuple(K.conj(v, g) for v in range(K.order)) for g in range(K.order)}
        assert reps[0] == 0 and len(reps) == len(inner), K
        assert {tuple(K.conj(v, g) for v in range(K.order)) for g in reps} == inner, K


_ORACLE_KS = [trivial_group(), make_cyclic(2), make_cyclic(4), klein_four(),
              symmetric_group(3), dihedral_group(4)]


def _oracle_corpus(K):
    """Every (L, phi) over K with L in the catalog up to order 8."""
    Ls = groups_up_to_order(8)
    return [GroupOverK(L, Homomorphism(L, K, f)) for L in Ls for f in hom_images_oracle(L, K)]


def _equal_data(x):
    """Two groups over K with x's table and an equal phi image tuple: one
    under another label, built from scratch, and x / 1."""
    L = Group(x.L.order, x.L.table, x.L.inverse, x.L.label + "'")
    copy = GroupOverK(L, Homomorphism(L, x.K, tuple(list(x.phi.image))), "copy")
    return copy, quotient_over_k(x, trivial_subgroup(x.L))


def _quotient_classes(x, Ls, isos):
    """The oracle's quotients of x: for each catalog group H in Ls, the phi
    on H with (H, phi) over-K isomorphic to some x/N."""
    quotient_to = {}
    for q in quotients_over_k_oracle(x):
        for H in Ls:
            if H.order == q.L.order:
                quotient_to.setdefault(H, set()).update(over_k_class_oracle(q, H, isos))
    return quotient_to


@pytest.mark.parametrize("K", _ORACLE_KS, ids=lambda g: g.label)
def test_over_k_decisions_match_the_oracle(K):
    """Both decisions on every ordered pair of (L, phi) with |L| <= 8 equal
    the oracle's: the plain isomorphism search with the full law and a test
    against all |K| conjugates.  For each x the oracle lists the phi on each
    catalog group H with (H, phi) over-K isomorphic to x, or to some x/N."""
    Ls = groups_up_to_order(8)
    xs = _oracle_corpus(K)
    isos = functools.cache(isomorphisms_oracle)
    for x in xs:
        iso_to = {H: over_k_class_oracle(x, H, isos) for H in Ls if H.order == x.L.order}
        quotient_to = _quotient_classes(x, Ls, isos)
        for y in xs:
            assert is_isomorphic_over_k(x, y) == (y.phi.image in iso_to.get(y.L, ())), (x, y)
            assert is_quotient_over_k(x, y) == (y.phi.image in quotient_to.get(y.L, ())), (x, y)


@pytest.mark.parametrize("K", _ORACLE_KS, ids=lambda g: g.label)
def test_equal_data_are_isomorphic_over_k(K):
    """A second group over K on x's table with an equal image tuple, and
    x / 1, are over-K isomorphic to x.  Against each such copy of every y on
    x's table, the decision equals the oracle's, so equal data must mean an
    equal table and equal images, not the table alone."""
    isos = functools.cache(isomorphisms_oracle)
    xs = _oracle_corpus(K)
    copies = [(y, _equal_data(y)) for y in xs]
    for y, zs in copies:
        for z in zs:
            assert z.L == y.L and z.phi.image == y.phi.image and z is not y
            assert is_isomorphic_over_k(y, z) and iso_over_k_oracle(y, z, isos), (y, z)
    for x in xs:
        iso_to = over_k_class_oracle(x, x.L, isos)
        for y, zs in copies:
            if y.L == x.L:
                for z in zs:
                    expected = z.phi.image in iso_to
                    assert is_isomorphic_over_k(x, z) == expected, (x, z)
                    assert is_isomorphic_over_k(z, x) == expected, (z, x)


@pytest.mark.parametrize("K", _ORACLE_KS, ids=lambda g: g.label)
def test_equal_data_are_decided_without_a_search(K, monkeypatch):
    """Equal data are decided by the identity map: both decisions hold with
    the one search replaced by one that raises."""
    xs = _oracle_corpus(K)
    pairs = [(x, y) for x in xs for y in _equal_data(x)]

    def no_search(*args, **kwargs):
        raise AssertionError("isomorphism search ran")

    monkeypatch.setattr(overk, "_hom_images", no_search)
    for x, y in pairs:
        assert is_isomorphic_over_k(x, y), (x, y)
        assert is_quotient_over_k(x, y), (x, y)


@pytest.mark.parametrize("K", [trivial_group(), make_cyclic(2)], ids=lambda g: g.label)
def test_surjections_onto_smaller_groups_match_the_oracle(K):
    """x ->> y for every (L, phi) over K with L one of the 14 catalog groups
    of order 16, against every y with |L_y| <= 8, equals the oracle's, which
    builds each x/N and tests it against y by the plain isomorphism search:
    here the search is for surjections onto a smaller group.  The pairs
    with exactly one abelian side include an abelian x against a nonabelian
    y, refused before any search, and nonabelian groups over K mapping onto
    abelian ones."""
    Ls = groups_up_to_order(8)
    ys = _oracle_corpus(K)
    isos = functools.cache(isomorphisms_oracle)
    Ms = groups_of_order(16)
    assert len(Ms) == 14
    xs = [GroupOverK(M, Homomorphism(M, K, f)) for M in Ms for f in hom_images_oracle(M, K)]
    found, mixed = 0, set()
    for x in xs:
        quotient_to = _quotient_classes(x, Ls, isos)
        for y in ys:
            expected = y.phi.image in quotient_to.get(y.L, ())
            assert is_quotient_over_k(x, y) == expected, (x, y)
            found += expected
            if x.L.is_abelian() != y.L.is_abelian():
                mixed.add((x.L.is_abelian(), expected))
    assert found > len(xs)
    assert mixed == {(True, False), (False, False), (False, True)}


def test_exponent_refuses_a_quotient_without_a_search(monkeypatch):
    """exp D8 = 4 does not divide exp C2^7 = 2, so (C2^7, 1) ->> (D8, 1) is
    refused before any search, though |D8| divides |C2^7|."""
    E = make_cyclic(2)
    for _ in range(6):
        E = direct_product(E, make_cyclic(2)).group
    one = trivial_group()
    D8 = dihedral_group(4)
    x = GroupOverK(E, Homomorphism(E, one, (0,) * E.order))
    y = GroupOverK(D8, Homomorphism(D8, one, (0,) * D8.order))

    def no_search(*args, **kwargs):
        raise AssertionError("surjection search ran")

    monkeypatch.setattr(overk, "_hom_images", no_search)
    assert not is_quotient_over_k(x, y)


def test_abelian_group_has_no_nonabelian_quotient_without_a_search(monkeypatch):
    """|D8| divides |C4 x C2^5| and exp D8 = 4 divides its exponent, but an
    abelian group has no nonabelian quotient, so (C4 x C2^5, 1) ->> (D8, 1)
    is refused before any search."""
    E = make_cyclic(4)
    for _ in range(5):
        E = direct_product(E, make_cyclic(2)).group
    one = trivial_group()
    D8 = dihedral_group(4)
    x = GroupOverK(E, Homomorphism(E, one, (0,) * E.order))
    y = GroupOverK(D8, Homomorphism(D8, one, (0,) * D8.order))
    assert E.exponent() % D8.exponent() == 0

    def no_search(*args, **kwargs):
        raise AssertionError("surjection search ran")

    monkeypatch.setattr(overk, "_hom_images", no_search)
    assert not is_quotient_over_k(x, y)


@pytest.mark.parametrize("K", [make_cyclic(2), dihedral_group(4)], ids=lambda g: g.label)
def test_quotient_decision_builds_no_quotient(K, monkeypatch):
    """x ->> y is one surjection search over K: with `quotient` and
    `quotient_over_k` raising, the decision runs on every ordered pair of
    the corpus, and an ideal evaluation on G x K gives the basis classes it
    gave before."""
    xs = _oracle_corpus(K)
    bk = embedding_over(K, full_subgroup(K))
    G = make_cyclic(4)
    basis = ideals.ideal_eval(bk, G).basis_classes

    def no_quotient(*args, **kwargs):
        raise AssertionError("a quotient was built")

    monkeypatch.setattr(overk, "quotient", no_quotient)
    monkeypatch.setattr(overk, "quotient_over_k", no_quotient)
    proper = sum(is_quotient_over_k(x, y) and x.L.order > y.L.order for x in xs for y in xs)
    assert proper > 0
    assert ideals.ideal_eval(bk, G).basis_classes == basis


def test_equal_data_over_different_k_are_refused():
    """Equal L and equal image tuples do not make two groups over one K."""
    C2 = make_cyclic(2)
    x = GroupOverK(C2, Homomorphism(C2, C2, (0, 0)))
    y = GroupOverK(C2, Homomorphism(C2, make_cyclic(4), (0, 0)))
    assert x.L == y.L and x.phi.image == y.phi.image
    for decide in (is_isomorphic_over_k, is_quotient_over_k):
        with pytest.raises(GroupError, match="different K"):
            decide(x, y)


def test_over_k_iso_distinguishes_structure_maps():
    C4 = make_cyclic(4)
    ident = GroupOverK(C4, Homomorphism(C4, C4, (0, 1, 2, 3)))
    square = GroupOverK(C4, Homomorphism(C4, C4, (0, 2, 0, 2)))
    assert is_isomorphic_over_k(ident, ident)
    assert not is_isomorphic_over_k(ident, square)


def test_over_k_iso_uses_inner_automorphisms():
    """Two embeddings of C2 into S3 with conjugate images are isomorphic
    over S3 even though the maps differ."""
    K = symmetric_group(3)
    C2 = make_cyclic(2)
    twos = [a for a in range(6) if K.element_order(a) == 2]
    x = GroupOverK(C2, Homomorphism(C2, K, (0, twos[0])))
    y = GroupOverK(C2, Homomorphism(C2, K, (0, twos[1])))
    assert is_isomorphic_over_k(x, y)


def test_underlying_group_mismatch():
    K = make_cyclic(4)
    a = groups_over_k(dicyclic_3(), K)
    b = groups_over_k(direct_product(make_cyclic(2), symmetric_group(3)).group, K)
    for x in a:
        for y in b:
            assert not is_isomorphic_over_k(x, y)


def test_quotient_relation_basics():
    one = trivial_group()
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    C2 = make_cyclic(2)
    xv = GroupOverK(V, Homomorphism(V, one, (0,) * 4))
    x2 = GroupOverK(C2, Homomorphism(C2, one, (0, 0)))
    assert is_quotient_over_k(xv, xv)
    assert is_quotient_over_k(xv, x2)
    assert not is_quotient_over_k(x2, xv)


def test_quotient_relation_partial_order():
    """Reflexive, transitive; antisymmetric up to over-K iso on equal order."""
    K = make_cyclic(2)
    corpus = []
    for L in (make_cyclic(4), direct_product(make_cyclic(2), make_cyclic(2)).group,
              symmetric_group(3), make_cyclic(2), trivial_group()):
        corpus.extend(groups_over_k(L, K))
    corpus = dedupe_over_k(corpus)
    n = len(corpus)
    rel = [[is_quotient_over_k(a, b) for b in corpus] for a in corpus]
    for i in range(n):
        assert rel[i][i]
        for j in range(n):
            if rel[i][j] and corpus[i].L.order == corpus[j].L.order:
                assert is_isomorphic_over_k(corpus[i], corpus[j])
            for k in range(n):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]


def test_quotient_over_k_refuses_a_normal_subgroup_outside_the_kernel():
    C2 = make_cyclic(2)
    x = GroupOverK(C2, Homomorphism(C2, C2, (0, 1)))
    with pytest.raises(GroupError, match="N must be contained in Ker phi"):
        quotient_over_k(x, full_subgroup(C2))


@pytest.mark.parametrize("K", [make_cyclic(2), make_cyclic(4),
                               direct_product(make_cyclic(2), make_cyclic(2)).group,
                               symmetric_group(3), dihedral_group(4)],
                         ids=lambda g: g.label)
def test_quotient_over_k_factors_phi_through_the_projection(K):
    """phi/N o pi = phi for every (L, phi) of the catalog and every normal
    N <= Ker phi."""
    for x in _small_over_k_corpus(K):
        ker = kernel(x.phi).mask
        for N in normal_subgroups(x.L):
            if N.mask & ker == N.mask:
                y = quotient_over_k(x, N)
                Q, pi = quotient(x.L, N)
                assert y.L == Q and y.K == K
                assert all(y.phi.image[q] == v for q, v in zip(pi.image, x.phi.image))


# ---------------------------------------------------------------------------
# graph subgroups


def test_graph_subgroup_trivial_phi():
    L = symmetric_group(3)
    K = make_cyclic(2)
    x = GroupOverK(L, Homomorphism(L, K, (0,) * 6))
    g = graph_subgroup(x)
    assert g.order == 6
    assert g.mask == mask_of(l * 2 for l in range(6))


def test_graph_subgroup_diagonal():
    K = make_cyclic(3)
    x = GroupOverK(K, Homomorphism(K, K, (0, 1, 2)))
    g = graph_subgroup(x)
    assert g.order == 3
    assert g.mask == mask_of(i * 3 + i for i in range(3))


def test_graph_subgroup_meets_second_factor_trivially():
    L = direct_product(make_cyclic(2), dicyclic_3()).group
    P = subgroup_generated(L, [12, 4])
    K, phi = quotient(L, P)
    g = graph_subgroup(GroupOverK(L, phi))
    assert g.order == 24 and g.parent.order == 96
    second = mask_of(k for k in range(K.order))  # elements (1, k)
    assert g.mask & second == 1


def test_p_graph_subgroup():
    S3 = symmetric_group(3)
    K = make_cyclic(2)
    x = GroupOverK(S3, Homomorphism(S3, K, (0,) * 6))
    g = p_graph_subgroup(x, 2)
    assert g.order == 2  # S3 / (O^2(S3) n S3) = C2
    Q8 = quaternion_group()
    y = GroupOverK(Q8, Homomorphism(Q8, K, (0,) * 8))
    assert p_graph_subgroup(y, 2).order == 8  # p-group: O^p = 1


def test_p_graph_bijective_for_p_persistent_bk():
    """For a p-persistent B_K-group, O^p(L) n Ker phi = 1, so the graph has
    full order."""
    for K in (make_cyclic(2), make_cyclic(4)):
        for x, _ in classify_p_persistent_bk(K, 2):
            assert p_graph_subgroup(x, 2).order == x.L.order


# ---------------------------------------------------------------------------
# B_K-groups and beta_K


def test_injective_phi_is_bk_group():
    K = make_cyclic(4)
    lat = enumerate_subgroups(K)
    for c in range(lat.n_classes()):
        assert is_bk_group(embedding_over(K, lat.class_rep(c)))


def test_klein_four_is_b_group():
    one = trivial_group()
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    assert is_bk_group(GroupOverK(V, Homomorphism(V, one, (0,) * 4)))


def test_cp_is_not_b_group():
    one = trivial_group()
    for p in (2, 3, 5):
        G = make_cyclic(p)
        x = GroupOverK(G, Homomorphism(G, one, (0,) * p))
        assert not is_bk_group(x)
        assert beta_k(x).L.order == 1


def _is_cyclic_by_powers(G) -> bool:
    """Some element's powers, walked in the Cayley table, reach every
    element."""
    for g in range(G.order):
        x, n = g, 1
        while x:
            x, n = G.table[x][g], n + 1
        if n == G.order:
            return True
    return False


def _prime_of_p_group(order: int) -> int | None:
    """p when order is a power p^n, n >= 1, of its least prime factor p;
    1 for order 1; None otherwise."""
    p = next((q for q in range(2, order + 1) if order % q == 0), 1)
    n = order
    while n % p == 0 and p > 1:
        n //= p
    return p if n == 1 else None


_CATALOG_P_GROUPS = [(G, p) for G in groups_up_to_order(16)
                     for p in [_prime_of_p_group(G.order)] if p is not None]


@pytest.mark.parametrize("G, p", _CATALOG_P_GROUPS, ids=[G.label for G, _ in _CATALOG_P_GROUPS])
def test_p_group_beta_closed_form(G, p):
    """Over K = 1, a p-group is a B-group exactly when it is 1 or C_p x C_p,
    by the all-N oracle; and beta_k of every catalog p-group has order 1
    when the group is cyclic and p^2 otherwise."""
    assert len(_CATALOG_P_GROUPS) == 30
    cyclic = _is_cyclic_by_powers(G)
    assert is_b_group_oracle(G) == p_group_is_b_group(p, G.order, cyclic)
    x = GroupOverK(G, Homomorphism(G, trivial_group(), (0,) * G.order))
    assert beta_k(x).L.order == p_group_beta_order(p, cyclic)


def test_beta_of_klein_four_is_itself():
    one = trivial_group()
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    x = GroupOverK(V, Homomorphism(V, one, (0,) * 4))
    assert is_isomorphic_over_k(beta_k(x), x)


def _small_over_k_corpus(K, max_order=16):
    from bgroups.catalog import groups_up_to_order

    out = []
    for L in groups_up_to_order(max_order):
        out.extend(groups_over_k(L, K))
    return out


@pytest.mark.parametrize("K", [trivial_group(), make_cyclic(2)],
                         ids=lambda g: g.label)
def test_beta_idempotent_and_well_defined(K):
    for x in _small_over_k_corpus(K, max_order=8):
        b = beta_k(x)
        assert is_bk_group(b)
        assert is_quotient_over_k(x, b)
        assert is_isomorphic_over_k(beta_k(b), b)
        # well-definedness: every maximal-order admissible Q gives the same
        # class over K
        lat = enumerate_subgroups(x.L)
        ker = kernel(x.phi)
        full = lat.subgroups[-1]
        cands = [
            N for N in normal_subgroups(x.L)
            if N.mask & ker.mask == N.mask and m_constant(lat, full, N) != 0
        ]
        best = max(N.order for N in cands)
        for N in cands:
            if N.order == best:
                assert is_isomorphic_over_k(quotient_over_k(x, N), b)


def test_beta_quotient_preservation():
    """If x ->> y via s, then beta(y) is a quotient of beta(x), with equality
    of classes iff m_{L_x, Ker s} != 0."""
    K = make_cyclic(2)
    for x in _small_over_k_corpus(K, max_order=8):
        bx = beta_k(x)
        lat = enumerate_subgroups(x.L)
        full = lat.subgroups[-1]
        ker = kernel(x.phi)
        for N in normal_subgroups(x.L):
            if N.mask & ker.mask != N.mask:
                continue
            y = quotient_over_k(x, N)
            by = beta_k(y)
            assert is_quotient_over_k(bx, by)
            same = is_isomorphic_over_k(bx, by)
            assert same == (m_constant(lat, full, N) != 0)


# ---------------------------------------------------------------------------
# p-persistence


def test_p_groups_are_p_persistent():
    K = make_cyclic(2)
    for L in (make_cyclic(4), quaternion_group(), dihedral_group(4)):
        for x in groups_over_k(L, K):
            assert is_p_persistent(x, 2)


def test_klein_four_not_3_persistent():
    one = trivial_group()
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    x = GroupOverK(V, Homomorphism(V, one, (0,) * 4))
    assert not is_p_persistent(x, 3)
    assert is_p_persistent(x, 2)


def test_embeddings_always_persistent():
    K = symmetric_group(3)
    lat = enumerate_subgroups(K)
    for c in range(lat.n_classes()):
        x = embedding_over(K, lat.class_rep(c))
        for p in (2, 3, 5):
            assert is_p_persistent(x, p)


# ---------------------------------------------------------------------------
# classification of p-persistent B_K-groups


_CASE_GROUPS = groups_up_to_order(16) + [
    symmetric_group(4), symmetric_group(5),
    direct_product(symmetric_group(4), make_cyclic(4)).group,
]


@pytest.mark.parametrize("G", _CASE_GROUPS, ids=lambda g: f"{g.label}-{g.order}")
def test_p_persistent_case_matches_the_quotient_oracle(G):
    """The case read off H's mask in G is the one that the quotient group
    H/O^p(H), built on H's own table, gives: for every subgroup H of every
    catalog group, S4, S5 and S4xC4, at p = 2, 3 and 5."""
    for H in enumerate_subgroups(G).subgroups:
        for p in (2, 3, 5):
            assert p_persistent_case(H, p) == p_persistent_case_oracle(H, p), (H, p)


def test_classify_trivial_k():
    out = classify_p_persistent_bk(trivial_group(), 2)
    assert len(out) == 2
    tags = sorted(t for _, t in out)
    assert tags == [CASE_CP2, CASE_EMBEDDING]
    orders = sorted(x.L.order for x, _ in out)
    assert orders == [1, 4]


def test_classify_c4():
    out = classify_p_persistent_bk(make_cyclic(4), 2)
    assert len(out) == 6
    by_tag = {}
    for x, t in out:
        by_tag.setdefault(t, []).append(x.L.order)
    assert sorted(by_tag[CASE_EMBEDDING]) == [1, 2, 4]
    assert sorted(by_tag[CASE_CP]) == [4, 8]
    assert by_tag[CASE_CP2] == [4]


def test_classify_klein_four_top_class_has_no_extension():
    K = direct_product(make_cyclic(2), make_cyclic(2)).group
    out = classify_p_persistent_bk(K, 2)
    top = [t for x, t in out if x.L.order >= 4 and x.phi.is_injective()]
    assert top == [CASE_EMBEDDING]
    # the would-be extension fails to be a persistent B_K-group
    P = direct_product(make_cyclic(2), K)
    y = GroupOverK(P.group, Homomorphism(P.group, K, tuple(i % 4 for i in range(8))))
    assert not (is_bk_group(y) and is_p_persistent(y, 2))


def test_classify_labels_come_from_k():
    """The lattice kept on C4's table is over the table's own group, whatever
    label asked first; the classification over C4 under the label B takes
    its labels, and its phi's target, from that B."""
    A, B = make_cyclic(4, "A"), make_cyclic(4, "B")
    lat = enumerate_subgroups(A)
    assert lat.parent is A._t.group and lat.parent.label == "T4"
    out = classify_p_persistent_bk(B, 2)
    assert [x.label for x, _ in out] == [
        "(B|1,incl)", "Cp2x(B|1,incl)", "(B|2,incl)", "Cpx(B|2,incl)",
        "(B|4,incl)", "Cpx(B|4,incl)",
    ]
    assert all(x.K is B and x.phi.target is B for x, _ in out)


# every catalog K with |K| <= 8 and p in 2, 3 whose classified nodes all have
# order <= 16, so that the search over the catalog sees every node
_CLASSIFIED = [(K, p) for K in groups_up_to_order(8) for p in (2, 3)
               if max(x.L.order for x, _ in classify_p_persistent_bk(K, p)) <= 16]


@pytest.mark.parametrize("K,p", _CLASSIFIED, ids=[f"{K.label}-p{p}" for K, p in _CLASSIFIED])
def test_classification_is_complete_on_small_k(K, p):
    """The classes emitted are exactly the over-K classes of p-persistent
    B_K-groups that an exhaustive search of the catalog finds."""
    assert len(_CLASSIFIED) == 14
    emitted = [x for x, _ in classify_p_persistent_bk(K, p)]
    found = p_persistent_bk_search(K, p)
    assert len(found) == len(emitted)
    assert all(any(is_isomorphic_over_k(f, e) for e in emitted) for f in found)
    assert all(any(is_isomorphic_over_k(e, f) for f in found) for e in emitted)


def test_embedding_over_rejects_a_foreign_subgroup():
    with pytest.raises(GroupError):
        embedding_over(make_cyclic(4), full_subgroup(make_cyclic(2)))


@pytest.mark.parametrize("K", [make_cyclic(2), make_cyclic(4),
                               direct_product(make_cyclic(2), make_cyclic(2)).group],
                         ids=lambda g: g.label)
def test_classified_instances_verify_independently(K):
    out = classify_p_persistent_bk(K, 2)
    for x, _ in out:
        assert is_bk_group(x)
        assert is_p_persistent(x, 2)
        ker = kernel(x.phi)
        # kernel is central elementary abelian of rank <= 2
        assert ker.order in (1, 2, 4)
        assert all(x.L.element_order(a) <= 2 for a in ker.elements())
        assert all(
            x.L.mul(a, g) == x.L.mul(g, a)
            for a in ker.elements() for g in range(x.L.order)
        )
        # persistence forces O^p(L) to miss the kernel
        assert o_p_subgroup(full_subgroup(x.L), 2).mask & ker.mask == 1
    # pairwise distinct classes
    for i in range(len(out)):
        for j in range(i):
            assert not is_isomorphic_over_k(out[i][0], out[j][0])


def test_classification_complete_small():
    """Exhaustive search over |L| <= 8 finds no 2-persistent B_K-group class
    outside the emitted list (K = C2)."""
    K = make_cyclic(2)
    emitted = [x for x, _ in classify_p_persistent_bk(K, 2)]
    found = []
    for x in _small_over_k_corpus(K, max_order=8):
        if is_bk_group(x) and is_p_persistent(x, 2):
            if not any(is_isomorphic_over_k(x, r) for r in found):
                found.append(x)
    assert len(found) == len(emitted)
    for f in found:
        assert any(is_isomorphic_over_k(f, e) for e in emitted)
