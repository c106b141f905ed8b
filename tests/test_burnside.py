"""Burnside-ring arithmetic: idempotents, marks, basis conversion,
m-constants, and the five elementary operations (plain and shifted)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bgroups.burnside import (
    BurnsideElement,
    IDEMPOTENT,
    TRANSITIVE,
    _class_map,
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
    shifted_induce,
    shifted_inflate,
    shifted_restrict,
    shifted_transport,
    to_idempotent_basis,
    to_transitive_basis,
    transitive_basis_element,
    transport,
    zero,
)
from bgroups.catalog import groups_up_to_order
from bgroups.groups import (
    GroupError,
    Homomorphism,
    Subgroup,
    _TABLES,
    _Table,
    _trusted,
    alternating_4,
    dicyclic_3,
    dihedral_group,
    direct_product,
    full_subgroup,
    make_cyclic,
    mask_of,
    quaternion_group,
    quotient,
    relabel,
    subgroup_embedding,
    subgroup_generated,
    symmetric_group,
    trivial_group,
    trivial_subgroup,
)
from bgroups.subgroups import _enumerate, enumerate_subgroups, normal_subgroups
from util import (
    DenseBurnside,
    brute_mark,
    class_map_oracle,
    idempotent_corpus,
    inflate_oracle,
    moebius_oracle,
    restrict_oracle,
    ring_pairs,
    subgroup_as_group,
)

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


def _normaliser_order(G, mask):
    """|N_G(X)| by conjugating every element of X by every g."""
    t, inv = G.table, G.inverse
    xs = [x for x in range(G.order) if (mask >> x) & 1]
    return sum(all((mask >> t[t[g][x]][inv[g]]) & 1 for x in xs) for g in range(G.order))


@pytest.mark.parametrize("G", idempotent_corpus(), ids=lambda g: g.label)
def test_idempotent_memo_matches_moebius_oracle(G):
    """e_L = (1/|N_G(L)|) sum |X| mu(X, L) [G/X], with mu from the reference
    recursion, for a class representative and a conjugate of it; a repeat
    call returns the kept element, over the table's own group, and so does
    a call with the table under another label."""
    lat = enumerate_subgroups(G)
    mu = moebius_oracle(lat)
    nc = lat.n_classes()
    H = relabel(G, G.label + "'")
    for c in range(nc):
        L = lat.class_rep(c)
        li = lat.index_of[L.mask]
        sums = [0] * nc
        for (i, j), m in mu.items():
            if j == li:
                sums[lat.conj_class[i]] += lat.subgroups[i].order * m
        norm = _normaliser_order(G, L.mask)
        want = tuple(Fraction(x, norm) for x in sums)
        e = gluck_idempotent(G, L)
        assert e.coeffs == want
        assert gluck_idempotent(G, L) is e
        conjugates = [S for S, k in zip(lat.subgroups, lat.conj_class) if k == c and S != L]
        for S in conjugates[:1]:
            assert gluck_idempotent(G, S).coeffs == want
        assert gluck_idempotent(H, Subgroup(H, L.mask)) is e
        assert e.group is lat.parent is G._t.group and e.group == G == H


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=lambda g: g.label)
def test_packed_mark_columns_match_brute_marks(G):
    """Each mark column is a (classes, marks) pair of tuples, and marks(),
    marks_of of each [G/Y] and the columns agree with the fixed-point count."""
    lat = enumerate_subgroups(G)
    nc = lat.n_classes()
    M = lat.marks()
    for y in range(nc):
        xs, ms = lat.mark_column(y)
        assert type(xs) is tuple and type(ms) is tuple and xs[-1] == y
        want = [brute_mark(lat, x, y) for x in range(nc)]
        assert [M[x][y] for x in range(nc)] == want
        assert marks_of(transitive_basis_element(G, lat.class_rep(y))) == tuple(map(Fraction, want))
        assert dict(zip(xs, ms)) == {x: m for x, m in enumerate(want) if m}


def test_marks_of_an_idempotent_build_only_its_down_set(monkeypatch):
    """On a fresh C2^5 lattice, the marks of e_L for |L| = 4 build exactly
    the mark columns of the classes <= L, which are e_L's support, and
    solving them back to the transitive basis builds no other column."""
    G = trivial_group()
    for _ in range(5):
        G = direct_product(G, make_cyclic(2)).group
    fours = [S for S in enumerate_subgroups(G).subgroups if S.order == 4]
    for L in (fours[0], fours[-1]):
        lat = _enumerate(G)
        monkeypatch.setattr(G._t, "lattice", lat)
        e = gluck_idempotent(G, L)
        below = {lat.conj_class[i] for i, S in enumerate(lat.subgroups) if S.mask & L.mask == S.mask}
        assert len(below) == 5 and lat._mark_columns == {}
        marks = to_idempotent_basis(e)
        assert marks.coeffs == tuple(Fraction(int(c == lat.class_of(L))) for c in range(lat.n_classes()))
        assert set(lat._mark_columns) == below
        assert to_transitive_basis(marks) == e
        assert set(lat._mark_columns) == below


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


@pytest.mark.parametrize(
    "basis,coeffs",
    [("bogus", (1, 0, 0)), (TRANSITIVE, (1, 0, 0, 0)), (IDEMPOTENT, (1, 0))],
    ids=["unknown-basis", "too-many-coefficients", "too-few-coefficients"],
)
def test_constructor_rejects_malformed_input(basis, coeffs):
    """C4 has three subgroup classes; anything but one rational per class in
    a known basis is refused."""
    with pytest.raises(GroupError):
        BurnsideElement(make_cyclic(4), basis, coeffs)


# ---------------------------------------------------------------------------
# sparse arithmetic against the dense oracle

CATALOG = groups_up_to_order(12)
_DENSE: dict[int, DenseBurnside] = {}


def _dense(i):
    if i not in _DENSE:
        _DENSE[i] = DenseBurnside(enumerate_subgroups(CATALOG[i]))
    return _DENSE[i]


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def catalog_vectors(draw):
    """(catalog index, basis, two dense vectors, a scalar); most entries 0."""
    i = draw(st.integers(0, len(CATALOG) - 1))
    nc = enumerate_subgroups(CATALOG[i]).n_classes()
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_rationals)
    vec = st.lists(entry, min_size=nc, max_size=nc).map(tuple)
    basis = st.sampled_from([TRANSITIVE, IDEMPOTENT])
    return i, draw(basis), draw(vec), draw(basis), draw(vec), draw(small_rationals)


@settings(max_examples=80, deadline=None)
@given(catalog_vectors())
def test_sparse_arithmetic_matches_dense_oracle(case):
    i, ba, a, bb, b, s = case
    G, dense = CATALOG[i], _dense(i)
    x, y = BurnsideElement(G, ba, a), BurnsideElement(G, bb, b)
    assert x.coeffs == a and y.coeffs == b
    y_as_x = BurnsideElement(G, ba, b)
    assert (x + y_as_x).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y_as_x).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (s * x).coeffs == tuple(s * p for p in a)
    want, idempotent = dense.multiply(a, ba == IDEMPOTENT, b, bb == IDEMPOTENT)
    prod = multiply(x, y)
    assert prod.coeffs == want
    assert prod.basis == (IDEMPOTENT if idempotent else TRANSITIVE)
    to_i, to_t = to_idempotent_basis(x), to_transitive_basis(x)
    assert to_i.basis == IDEMPOTENT and to_t.basis == TRANSITIVE
    if ba == TRANSITIVE:
        assert to_i.coeffs == dense.to_idempotent(a) and to_t.coeffs == a
    else:
        assert to_t.coeffs == dense.to_transitive(a) and to_i.coeffs == a
    assert marks_of(x) == to_i.coeffs


def _coeffs_are_shared_fractions(elem, one: dict[Fraction, Fraction]):
    """elem.coeffs holds Fraction(n, den) for each term and 0 elsewhere,
    and each entry is the object `one` holds for its value, if any: equal
    entries of this vector, and of the vectors checked before it with the
    same `one`, are one object."""
    vec = elem.coeffs
    assert len(vec) == elem.lattice.n_classes()
    nums = dict(elem.terms)
    for c, f in enumerate(vec):
        assert type(f) is Fraction and f == Fraction(nums.get(c, 0), elem.den)
        assert one.setdefault(f, f) is f


repeating = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3, 4)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(CATALOG) - 1), st.sampled_from([TRANSITIVE, IDEMPOTENT]), st.data())
def test_coeffs_build_one_fraction_per_numerator(i, basis, data):
    """The dense vector of a checked element and of the elements derived
    from it: products, basis changes, a scalar multiple; equal entries of
    any two of them are one object."""
    G = CATALOG[i]
    nc = enumerate_subgroups(G).n_classes()
    vec = data.draw(st.lists(repeating, min_size=nc, max_size=nc))
    s = data.draw(small_rationals)
    x = BurnsideElement(G, basis, vec)
    assert x.coeffs == tuple(vec)
    one: dict[Fraction, Fraction] = {}
    for elem in (x, to_idempotent_basis(x), to_transitive_basis(x), multiply(x, x),
                 s * x, x + x):
        _coeffs_are_shared_fractions(elem, one)


@pytest.mark.parametrize("G", [*SMALL_GROUPS, symmetric_group(4),
                               direct_product(dihedral_group(4), make_cyclic(2)).group],
                         ids=lambda g: g.label)
def test_equal_coefficients_over_one_group_are_one_object(G):
    """The coefficients come from the lattice's table of kept values, so
    over one group equal entries of any elements are one object, each equal
    to a fresh Fraction(n, den), whichever (n, den) wrote it: 1/2 is one
    object in [1/2, 1/4, ...] (2 over 4) and in [1/2, 0, ...] (1 over 2).
    The elements are every e_L, its marks, scalar multiples, sums, a
    product, and the deflations of the e_L along each quotient map."""
    lat = enumerate_subgroups(G)
    nc = lat.n_classes()
    es = [gluck_idempotent(G, lat.class_rep(c)) for c in range(nc)]
    elems = es + [to_idempotent_basis(e) for e in es] + [Fraction(1, 2) * e for e in es]
    elems += [e + f for e, f in zip(es, es[1:])] + [multiply(es[-1], es[-1] + es[0])]
    halves = [BurnsideElement(G, TRANSITIVE, [Fraction(1, 2), Fraction(1, 4)] + [0] * (nc - 2)),
              BurnsideElement(G, TRANSITIVE, [Fraction(1, 2)] + [0] * (nc - 1))]
    assert [h.den for h in halves] == [4, 2]
    one: dict[Fraction, Fraction] = {}
    for elem in elems + halves:
        _coeffs_are_shared_fractions(elem, one)
    assert halves[0].coeffs[0] is halves[1].coeffs[0]
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        qone: dict[Fraction, Fraction] = {}
        for e in es:
            _coeffs_are_shared_fractions(deflate(e, pi), qone)
            _coeffs_are_shared_fractions(Fraction(1, 3) * deflate(e, pi), qone)


@settings(max_examples=40, deadline=None)
@given(catalog_vectors())
def test_equal_elements_have_equal_fields(case):
    """An element built two ways is == and hashes equally, because the
    sparse form is canonical; the order in which its dict was filled shows
    in none of ==, hash and repr."""
    i, ba, a, _, _, s = case
    G = CATALOG[i]
    x, z = BurnsideElement(G, ba, a), zero(G, ba)
    assert z.support() == frozenset()
    assert x.support() == frozenset(c for c, v in enumerate(a) if v)
    for same in (2 * x - x, x + z, z + x, s * x - s * x + x, BurnsideElement(G, ba, x.coeffs)):
        assert same == x and hash(same) == hash(x)
        assert (same.terms, same.den) == (x.terms, x.den)
    assert x - x == z and hash(x - x) == hash(z)
    assert all(n != 0 for _, n in x.terms) and x.den > 0
    assert gcd(x.den, *(n for _, n in x.terms)) == 1
    # low + high fills its dict upward, high + low the high classes first
    mid = len(a) // 2
    low = BurnsideElement(G, ba, a[:mid] + (0,) * (len(a) - mid))
    high = BurnsideElement(G, ba, (0,) * mid + a[mid:])
    up, down = low + high, high + low
    assert list(up._nums) == sorted(up._nums)
    assert list(down._nums) == sorted(down._nums, key=lambda c: (c < mid, c))
    assert up == down == x and hash(up) == hash(down) == hash(x)
    assert repr(up) == repr(down) == repr(x)


@st.composite
def sparse_pairs(draw):
    """(catalog index, basis, a, b): dense vectors, mostly zero, where b
    repeats, halves or cancels a's entry at some classes, so a sum meets
    zero terms and common factors."""
    i = draw(st.integers(0, len(CATALOG) - 1))
    nc = enumerate_subgroups(CATALOG[i]).n_classes()
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), small_rationals)
    a = tuple(draw(st.lists(entry, min_size=nc, max_size=nc)))
    b = tuple(draw(st.sampled_from((Fraction(0), -v, v, v / 2, draw(small_rationals)))) for v in a)
    return i, draw(st.sampled_from([TRANSITIVE, IDEMPOTENT])), a, b


@settings(max_examples=80, deadline=None)
@given(sparse_pairs())
def test_sums_match_dense_fractions_in_canonical_form(case):
    """a + b, a - b and a - a agree with entrywise Fraction sums, and each
    result keeps no zero numerator and a denominator coprime to them."""
    i, basis, a, b = case
    G = CATALOG[i]
    x, y = BurnsideElement(G, basis, a), BurnsideElement(G, basis, b)
    cases = ((x + y, [p + q for p, q in zip(a, b)]), (x - y, [p - q for p, q in zip(a, b)]),
             (x - x, [Fraction(0)] * len(a)))
    for got, want in cases:
        assert got.coeffs == tuple(want) and got == BurnsideElement(G, basis, want)
        assert 0 not in got._nums.values() and got.den > 0
        assert gcd(got.den, *got._nums.values()) == 1


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
    """The mark of res(b) at X <= H equals the mark of b at X viewed in G.

    This restates how `restrict` computes its result, so it is no independent
    check; `test_restrict_and_inflate_match_the_oracles` holds restriction to
    Mackey's double-coset formula instead."""
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


def _inputs(G):
    """Every idempotent and every transitive basis element over G, and one
    rational combination of them."""
    lat = enumerate_subgroups(G)
    reps = [lat.class_rep(c) for c in range(lat.n_classes())]
    out = [gluck_idempotent(G, X) for X in reps] + [transitive_basis_element(G, X) for X in reps]
    out.append(Fraction(2, 3) * out[0] + out[-1])
    assert all(e.basis == TRANSITIVE for e in out)
    return out


# the catalog up to order 16 but C2^4, whose 67 classes alone take 1.5 s
ORACLE_GROUPS = [G for G in groups_up_to_order(16) if G.label != "C2xC2xC2xC2"] + [
    symmetric_group(4), direct_product(symmetric_group(3), make_cyclic(4)).group]


@pytest.mark.parametrize("G", ORACLE_GROUPS, ids=lambda g: g.label)
def test_restrict_and_inflate_match_the_oracles(G):
    """Restriction from G along each subgroup-class embedding, and inflation
    to G along each quotient map, of every idempotent, every transitive basis
    element and one rational combination, equal the double-coset walk and
    the preimage push of the oracles."""
    lat = enumerate_subgroups(G)
    inputs = _inputs(G)
    for c in range(lat.n_classes()):
        f = subgroup_embedding(lat.class_rep(c))
        for e in inputs:
            assert restrict(e, f).coeffs == restrict_oracle(e.coeffs, f), (c, e)
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        for e in _inputs(Q):
            assert inflate(e, pi).coeffs == inflate_oracle(e.coeffs, pi), (N, e)


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


def _fresh(f):
    """An equal map built anew, with no class map filled."""
    return Homomorphism(f.source, f.target, f.image)


def _memo_cases():
    from bgroups.overk import isomorphisms

    for G in SMALL_GROUPS + [symmetric_group(4), direct_product(make_cyclic(4), make_cyclic(2)).group]:
        for N in normal_subgroups(G):
            yield pytest.param(quotient(G, N)[1], "quotient", id=f"{G.label}/N{N.mask:x}")
        yield pytest.param(next(isomorphisms(G, G)), "automorphism", id=f"{G.label}-auto")
        lat = enumerate_subgroups(G)
        for c in range(lat.n_classes()):
            H = lat.class_rep(c)
            yield pytest.param(subgroup_embedding(H), "embedding", id=f"H{H.mask:x}<{G.label}")


# per kind of map: the operation that pushes along it, and the one that pulls back
_OPS = {"quotient": (deflate, inflate), "automorphism": (transport, restrict),
        "embedding": (induce, restrict)}


@pytest.mark.parametrize("f,kind", _memo_cases())
def test_class_maps_on_a_map_never_leak(f, kind):
    """Pushing (deflation, transport, induction) and pulling back (inflation,
    restriction) along one map object agrees with the same operation along a
    fresh equal map, before and after the map's class map fills, with either
    operation first.  The class map is one tuple, indexed by source class,
    with the same entries whichever operation filled it first, and the
    filled map changes neither == nor hash."""
    key = (f.source, f.target, f.image)
    assert f == _fresh(f) and hash(f) == hash(_fresh(f))
    push, pull = _OPS[kind]
    runs = [(push, _inputs(f.source)), (pull, _inputs(f.target))]
    filled = []
    # two maps that start empty, one per order, then f itself (a kept
    # embedding or projection is shared, so it may be filled already)
    for g, order in ((_fresh(f), runs), (_fresh(f), runs[::-1]), (f, runs)):
        for op, elems in order:
            for _ in range(2):  # the second pass reads the filled map
                for e in elems:
                    assert op(e, g) == op(e, _fresh(f))
        assert type(g._biset) is tuple
        filled.append(g._biset)
    assert filled[0] == filled[1] == filled[2]
    assert len(filled[0]) == enumerate_subgroups(f.source).n_classes()
    assert (f.source, f.target, f.image) == key
    assert f == _fresh(f) and hash(f) == hash(_fresh(f)) and repr(f) == repr(_fresh(f))


@pytest.mark.parametrize("G", [make_cyclic(6), symmetric_group(3), dihedral_group(4), quaternion_group()],
                         ids=lambda g: g.label)
def test_no_operation_changes_an_element_it_reads(G):
    """Elements may share one dict of numerators (a kept idempotent is
    returned to every caller, under every label of its group), and the
    basis changes read it in place, so no public operation may change the
    numerators or denominator of an element it is given or has returned.  Every element below is
    snapshot when it is first seen, results are fed back in, and every
    snapshot is compared at the end."""
    from bgroups.overk import isomorphisms

    seen = []

    def keep(elems):
        seen.extend((e, e.terms, e.den) for e in elems)
        return elems

    def inputs(X):  # in both bases
        xs = _inputs(X)
        return keep(xs + [to_idempotent_basis(e) for e in xs])

    def ring_round(elems):
        other = keep([to_transitive_basis(elems[-1])])[0]
        other = {TRANSITIVE: other, IDEMPOTENT: keep([to_idempotent_basis(other)])[0]}
        ops = (lambda e: e + other[e.basis], lambda e: other[e.basis] - e,
               lambda e: Fraction(-3, 4) * e, lambda e: multiply(e, other[e.basis]),
               to_idempotent_basis, to_transitive_basis,
               lambda e: BurnsideElement(e.group, IDEMPOTENT, marks_of(e)))
        return keep([op(e) for e in elems for op in ops])

    K = make_cyclic(2)
    lat = enumerate_subgroups(G)
    reps = [lat.class_rep(c) for c in range(lat.n_classes())]
    xs = inputs(G)
    ring_round(ring_round(xs))
    auto = next(isomorphisms(G, G))
    pxs = inputs(direct_product(G, K).group)
    for H in reps:
        f = subgroup_embedding(H)
        keep([restrict(e, f) for e in xs] + [induce(e, f) for e in inputs(f.source)])
        hk = inputs(direct_product(f.source, K).group)
        keep([shifted_restrict(e, H, K) for e in pxs] + [shifted_induce(e, H, K) for e in hk])
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        keep([deflate(e, pi) for e in xs] + [inflate(e, pi) for e in inputs(Q)])
        qk = inputs(direct_product(Q, K).group)
        keep([shifted_deflate(e, pi, K) for e in pxs] + [shifted_inflate(e, pi, K) for e in qk])
    keep([transport(e, auto) for e in xs] + [shifted_transport(e, auto, K) for e in pxs])
    other = relabel(G, "other")
    shared = keep([gluck_idempotent(other, X) for X in reps])
    assert all(e is k for e, k in zip(shared, xs))
    ring_round(ring_round(shared))
    assert all(gluck_idempotent(G, X) is e for X, e in zip(reps, xs))
    for e, terms, den in seen:
        assert (e.terms, e.den) == (terms, den), e


def test_shifted_maps_are_kept_on_the_map_they_shift():
    """shift_hom keeps f x Id_K on f once per table of K: a repeat call,
    with K under any label, returns the same map, whose groups are the own
    groups of the product tables; a second shifted inflation along one map
    fills no new class-map entry, and none of it shows in ==, hash or
    repr."""
    G, K = symmetric_group(3), make_cyclic(2)
    lat = enumerate_subgroups(G)
    f = subgroup_embedding(next(lat.class_rep(c) for c in range(lat.n_classes())
                                if lat.class_rep(c).order == 3))
    fk = shift_hom(f, K)
    assert shift_hom(f, K) is fk
    B = relabel(K, "B")
    assert shift_hom(f, B) is fk and f._shifted[K._t] is fk
    assert fk.source is direct_product(f.source, B).group._t.group
    assert fk.target is direct_product(G, B).group._t.group
    assert (fk.source.label, fk.target.label) == ("T6", "T12")
    N = next(N for N in normal_subgroups(G) if N.order == 3)
    Q, pi = quotient(G, N)
    QK = direct_product(Q, K).group
    qlat = enumerate_subgroups(QK)
    e = gluck_idempotent(QK, qlat.class_rep(1))
    first = shifted_inflate(e, pi, K)
    cmap = shift_hom(pi, K)._biset
    assert type(cmap) is tuple and len(cmap) == enumerate_subgroups(direct_product(G, K).group).n_classes()
    second = shifted_inflate(transitive_basis_element(QK, qlat.class_rep(1)), pi, K)
    assert shift_hom(pi, K)._biset is cmap
    assert first == inflate(e, _fresh(shift_hom(pi, K)))
    assert second == inflate(transitive_basis_element(QK, qlat.class_rep(1)), _fresh(shift_hom(pi, K)))
    for g in (f, pi):
        assert g._shifted and g == _fresh(g) and hash(g) == hash(_fresh(g)) and repr(g) == repr(_fresh(g))


def _ring_maps():
    """For each of the 108 `ring` products G x K: the shifted projection
    (G ->> G/N) x Id_K for each normal N of G, and the embedding of each
    subgroup class representative of G x K, as the deflation check uses
    them."""
    for G, K in ring_pairs():
        for N in normal_subgroups(G):
            yield shift_hom(quotient(G, N)[1], K)
        lat = enumerate_subgroups(direct_product(G, K).group)
        for c in range(lat.n_classes()):
            yield subgroup_embedding(lat.class_rep(c))


def test_class_maps_and_image_tests_match_the_oracles_on_the_ring_products():
    """On every shifted projection and embedding of the `ring` products,
    the class map, filled from the kept member tuples, equals the
    element-list oracle on every source class; and is_injective,
    is_surjective and is_bijective equal direct counts of distinct images,
    on the kept map read twice and on a fresh equal map."""
    n_maps = 0
    for f in _ring_maps():
        n_maps += 1
        classes = range(enumerate_subgroups(f.source).n_classes())
        cmap = _class_map(f)
        assert [cmap[cx] for cx in classes] == [class_map_oracle(f, cx) for cx in classes]
        n = len(set(f.image))
        want = (n == f.source.order, n == f.target.order,
                n == f.source.order == f.target.order)
        for g in (f, f, _trusted(Homomorphism, f.source, f.target, f.image)):
            assert (g.is_injective(), g.is_surjective(), g.is_bijective()) == want
    assert n_maps == 3378


def test_kept_objects_refer_to_each_table_own_group():
    """After every shifted projection and class-representative embedding of
    the `ring` products is built, with their idempotents, the shifts of the
    embeddings of G's classes and the pairs over K that `ideals` builds
    with `pair_from_subgroup`, under K's label and under another, every
    interned table's kept objects are keyed by mask or table, not by
    label, and refer to the table's own group: the lattice parent and each
    lattice subgroup's, each kept idempotent's group, and the source and
    target of each kept inclusion map, projection, product map, and map
    shifted from an inclusion or a projection."""
    from bgroups.overk import pair_from_subgroup

    shifted = []
    for G, K in ring_pairs():
        B = relabel(K, "B")
        for N in normal_subgroups(G):
            pi = quotient(G, N)[1]
            assert quotient(relabel(G, "A"), N)[1] is pi
            assert shift_hom(pi, B) is shift_hom(pi, K) and K._t in pi._shifted
        glat = enumerate_subgroups(G)
        for c in range(glat.n_classes()):
            shift_hom(subgroup_embedding(glat.class_rep(c)), B)
        P = direct_product(G, K)
        GK = P.group
        assert all(getattr(direct_product(relabel(G, "A"), B), name) is getattr(P, name)
                   for name in ("proj1", "proj2", "inj1", "inj2"))
        lat = enumerate_subgroups(GK)
        for c in range(lat.n_classes()):
            subgroup_embedding(lat.class_rep(c))
            gluck_idempotent(GK, lat.class_rep(c))
        for L in (K, B):
            Q = direct_product(G, L)
            qlat = enumerate_subgroups(Q.group)
            assert all(pair_from_subgroup(qlat.class_rep(c), Q.proj2).K == L
                       for c in range(qlat.n_classes()))
    n_maps = n_products = 0
    for t in list(_TABLES.values()):
        own = t.group
        assert own._t is t and own.label == f"T{t.order}"
        if t.lattice is not None:
            assert t.lattice.parent is own
            assert all(S.parent is own for S in t.lattice.subgroups)
            assert all(e.group is own for e in t.lattice._idempotents.values())
        for mask, f in t.embeddings.items():
            assert type(mask) is int and f.target is own and f.source is f.source._t.group
            shifted.append(f)
        for mask, pi in t.quotients.items():
            assert type(mask) is int and pi.source is own and pi.target is pi.target._t.group
            shifted.append(pi)
        for h, P in t.products.items():
            n_products += 1
            assert type(h) is _Table and P.group is P.group._t.group
            assert P.proj1.source is P.proj2.source is P.inj1.target is P.inj2.target is P.group
            assert P.proj1.target is P.inj1.source is own
            assert P.proj2.target is P.inj2.source is h.group
    for f in shifted:
        for kt, fs in (f._shifted or {}).items():
            n_maps += 1
            assert type(kt) is _Table
            assert fs.source is fs.source._t.group and fs.target is fs.target._t.group
    assert n_maps >= 2 * 108 and n_products >= 108


def test_one_embedding_per_subgroup_and_parent_label():
    """The map is kept once per subgroup mask on the parent's table, for
    every parent label: its source and target are the own groups of the
    subgroup's and the parent's tables, and a repeat call under either
    label returns the same object."""
    A, B = make_cyclic(6, "A"), make_cyclic(6, "B")
    S = Subgroup(A, 0b001001)
    fa, fb = subgroup_embedding(S), subgroup_embedding(Subgroup(B, S.mask))
    assert fa is fb and fa.image == (0, 3)
    assert fa.source is fa.source._t.group and fa.source.label == "T2"
    assert fa.target is A._t.group and fa.target == A == B and fa.target.label == "T6"
    assert A._t.embeddings[S.mask] is fa
    assert subgroup_embedding(S) is fa and subgroup_embedding(Subgroup(B, S.mask)) is fa


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
