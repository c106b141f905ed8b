"""Shared helpers for the test suite: group corpora and the heavier
verification routines used by both the unit and acceptance tests."""

import itertools
from fractions import Fraction

from bgroups.burnside import (
    deflate,
    gluck_idempotent,
    m_const,
    shift_hom,
    shifted_deflate,
    shifted_induce,
    shifted_inflate,
    shifted_restrict,
    shifted_transport,
    to_idempotent_basis,
)
from bgroups.groups import (
    Homomorphism,
    Subgroup,
    alternating_4,
    dicyclic_3,
    dihedral_group,
    direct_product,
    elements_of,
    full_subgroup,
    kernel,
    make_cyclic,
    mask_of,
    o_p_subgroup,
    quaternion_group,
    quotient,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
)
from bgroups.catalog import groups_up_to_order
from bgroups.ideals import ideal_eval
from bgroups.overk import (
    CASE_CP,
    CASE_CP2,
    GroupOverK,
    groups_over_k,
    is_bk_group,
    is_isomorphic_over_k,
    is_p_persistent,
)
from bgroups.subgroups import enumerate_subgroups, normal_subgroups


def subgroup_as_group(S: Subgroup):
    """S as a group on its own Cayley table: the source of its inclusion."""
    return subgroup_embedding(S).source


def p_residual_quotient(G, p: int):
    """The quotient G/O^p(G), a p-group, with its projection."""
    return quotient(G, o_p_subgroup(full_subgroup(G), p))


def p_persistent_case_oracle(H: Subgroup, p: int):
    """The case of H^[p] from the quotient group itself, built on H's own
    table: CASE_CP2 when it is trivial, CASE_CP when it is cyclic, else
    None."""
    Q, _ = p_residual_quotient(subgroup_as_group(H), p)
    if Q.order == 1:
        return CASE_CP2
    return CASE_CP if Q.is_cyclic() else None


def graph_subgroup(x) -> Subgroup:
    """L_phi = {(l, phi(l))} inside the canonical product L x K."""
    P = direct_product(x.L, x.K)
    m = x.K.order
    return Subgroup(P.group, mask_of(l * m + x.phi.image[l] for l in range(x.L.order)))


def p_graph_subgroup(x, p: int) -> Subgroup:
    """Image of l -> (l O^p(L), phi(l)) inside L^[p] x K."""
    Q, pi = p_residual_quotient(x.L, p)
    P = direct_product(Q, x.K)
    m = x.K.order
    return Subgroup(P.group, mask_of(pi.image[l] * m + x.phi.image[l] for l in range(x.L.order)))


def is_group_table(order, table, inverse) -> bool:
    """Brute-force reference for the group check: the identity and inverse
    laws, and associativity over all order^3 triples."""
    r = range(order)
    t = table
    return all(
        t[0][x] == x and t[x][0] == x and t[x][inverse[x]] == 0 for x in r
    ) and all(t[t[a][b]][c] == t[a][t[b][c]] for a in r for b in r for c in r)


def pairwise_closure(G, elements) -> set[int]:
    """Reference closure for the enumeration oracle: multiply every pair of
    elements reached, both ways, until nothing new appears; O(k^2) for a
    result of k elements.  Kept apart from the library's closure, which the
    oracle checks."""
    t = G.table
    closed = set(elements) | {0}
    frontier = list(closed)
    while frontier:
        a = frontier.pop()
        for b in list(closed):
            for c in (t[a][b], t[b][a]):
                if c not in closed:
                    closed.add(c)
                    frontier.append(c)
    return closed


def greedy_generators_oracle(G, members) -> list[int]:
    """Reference greedy choice of generators for the subgroup on `members`:
    scan the members in increasing id order and keep each one not yet in the
    pairwise closure of those kept."""
    gens: list[int] = []
    have = pairwise_closure(G, gens)
    for x in sorted(members):
        if x not in have:
            gens.append(x)
            have = pairwise_closure(G, gens)
    return gens


def is_homomorphism(G, H, image) -> bool:
    """Brute-force reference for the homomorphism-law check:
    f(a·b) = f(a)·f(b) over all |G|^2 pairs."""
    s, t = G.table, H.table
    r = range(G.order)
    return all(image[s[a][b]] == t[image[a]][image[b]] for a in r for b in r)


def is_action(N, H, action) -> bool:
    """Brute-force reference for the semidirect-product action check: each
    action[h] is an automorphism of N, and action[h1·h2] is action[h1] after
    action[h2] for all pairs h1, h2."""
    n, m = range(N.order), range(H.order)
    return all(sorted(a) == list(n) and is_homomorphism(N, N, a) for a in action) and all(
        tuple(action[h1][action[h2][x]] for x in n) == action[H.table[h1][h2]]
        for h1 in m
        for h2 in m
    )


def hom_images_oracle(G, H, iso=False) -> list[tuple[int, ...]]:
    """Every homomorphism G -> H, or with `iso` every isomorphism, as an
    image tuple, by the plain search: each assignment of elements of H to
    G's generating sequence, with element orders dividing (or with `iso`
    equal to) the generator's, is extended along a breadth-first walk from
    the identity and kept when it passes the full law `is_homomorphism`
    (and with `iso` is a bijection).  No `bgroups.overk` code runs."""
    if iso and G.order != H.order:
        return []
    gens, t, s = G.generating_sequence(), G.table, H.table
    walk, seen, frontier = [], {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = t[x][g]
                if y not in seen:
                    seen.add(y)
                    walk.append((y, x, gi))
                    nxt.append(y)
        frontier = nxt
    horders = [H.element_order(h) for h in range(H.order)]
    candidates = []
    for g in gens:
        o = G.element_order(g)
        candidates.append([h for h, k in enumerate(horders) if (k == o if iso else o % k == 0)])
    out = []
    for images in itertools.product(*candidates):
        f = [0] * G.order
        for y, x, gi in walk:
            f[y] = s[f[x]][images[gi]]
        if (not iso or len(set(f)) == G.order) and is_homomorphism(G, H, f):
            out.append(tuple(f))
    return out


def isomorphisms_oracle(G, H) -> list[tuple[int, ...]]:
    """Every isomorphism G -> H, by `hom_images_oracle`."""
    return hom_images_oracle(G, H, iso=True)


def conjugates_oracle(phi) -> set[tuple[int, ...]]:
    """Image tuples of c_g . phi for every element g of phi.target, where
    c_g is conjugation by g: all |K| of them, no transversal."""
    K = phi.target
    return {tuple(K.conj(v, g) for v in phi.image) for g in range(K.order)}


def is_morphism_over_k(f, x, y) -> bool:
    """Some inner automorphism c of K satisfies c . phi_x = phi_y . f."""
    return tuple(y.phi.image[b] for b in f.image) in conjugates_oracle(x.phi)


def over_k_class_oracle(x, H, isos=isomorphisms_oracle) -> set[tuple[int, ...]]:
    """The image tuples of c_g . phi_x . f^-1 for every isomorphism f: L_x ->
    H found by `isos` (the plain search by default) and every element g of
    K: exactly the phi on H with (H, phi) over-K isomorphic to x."""
    K, out = x.K, set()
    for f in isos(x.L, H):
        inverse = [0] * H.order
        for a, b in enumerate(f):
            inverse[b] = a
        moved = Homomorphism(H, K, tuple(x.phi.image[a] for a in inverse))
        out |= conjugates_oracle(moved)
    return out


def iso_over_k_oracle(x, y, isos=isomorphisms_oracle) -> bool:
    """Reference over-K isomorphism test: phi_y is c . phi_x . f^-1 for an
    isomorphism f from the plain search and a conjugation c by one of all
    |K| elements."""
    return y.phi.image in over_k_class_oracle(x, y.L, isos)


def quotients_over_k_oracle(x):
    """(L/N, phi/N) for each normal N <= Ker phi, built from `quotient` and
    checked as a homomorphism; no `bgroups.overk` decision code runs."""
    ker = kernel(x.phi).mask
    out = []
    for N in normal_subgroups(x.L):
        if N.mask & ker == N.mask:
            Q, pi = quotient(x.L, N)
            image = [0] * Q.order
            for q, v in zip(pi.image, x.phi.image):
                image[q] = v
            out.append(GroupOverK(Q, Homomorphism(Q, x.K, tuple(image))))
    return out


def quotient_over_k_oracle(x, y, isos=isomorphisms_oracle) -> bool:
    """Reference over-K quotient test: y is over-K isomorphic to some x/N."""
    return any(iso_over_k_oracle(q, y, isos) for q in quotients_over_k_oracle(x))


def covering_pairs_oracle(rel) -> list[tuple[int, int]]:
    """The pairs (i, j) with i ->> j strictly and no node strictly between,
    by an O(n^3) scan of the dense relation rel[i][j]: i ->> j."""
    n = len(rel)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rel[i][j] and not any(
            k not in (i, j) and rel[i][k] and rel[k][j] and not rel[k][i] and not rel[j][k]
            for k in range(n)
        )
    ]


def components_oracle(rel) -> list[list[int]]:
    """The connected components of the dense relation rel, each ascending,
    in order of their least node: a depth-first walk that tests every pair
    both ways, O(n^2)."""
    n = len(rel)
    seen, comps = [False] * n, []
    for i in range(n):
        if not seen[i]:
            seen[i], comp, stack = True, [i], [i]
            while stack:
                a = stack.pop()
                for b in range(n):
                    if not seen[b] and (rel[a][b] or rel[b][a]):
                        seen[b] = True
                        comp.append(b)
                        stack.append(b)
            comps.append(sorted(comp))
    return comps


def ring_pairs() -> list[tuple]:
    """The 108 pairs (G, K) of the benchmark's `ring` workload: G in the
    catalog, K in 1, C2, C4, and |G x K| <= 48, in the workload's order."""
    return [(G, K) for K in (trivial_group(), make_cyclic(2), make_cyclic(4))
            for G in groups_up_to_order(16) if G.order * K.order <= 48]


def class_map_oracle(f, cx) -> int:
    """The class of f(X) in f's target, X the representative of f's source
    class cx: the images of X's element list, made a mask by `mask_of` and
    looked up in the target's lattice.  It reads no member tuple kept on X
    and no class map kept on f."""
    X = enumerate_subgroups(f.source).class_rep(cx)
    lat_t = enumerate_subgroups(f.target)
    return lat_t.conj_class[lat_t.index_of[mask_of([f.image[a] for a in elements_of(X.mask)])]]


def moebius_oracle(lat) -> dict[tuple[int, int], int]:
    """Reference Moebius function on every pair (i, j) with X_i <= X_j, by the
    defining recursion mu(X, X) = 1, mu(X, Y) = -sum of mu(Z, Y) over
    X < Z <= Y, memoised by pair.  Each interval is found by a scan of the
    lattice's masks; the lattice's own Moebius code is not called."""
    masks = [S.mask for S in lat.subgroups]
    mu: dict[tuple[int, int], int] = {}

    def rec(i, j):
        if (i, j) not in mu:
            mi, mj = masks[i], masks[j]
            between = [z for z, m in enumerate(masks) if z != i and m & mi == mi and m & mj == m]
            mu[i, j] = 1 if i == j else -sum(rec(z, j) for z in between)
        return mu[i, j]

    for j, mj in enumerate(masks):
        for i, mi in enumerate(masks):
            if mi & mj == mi:
                rec(i, j)
    return mu


def conjugate_elements(G, elements, g) -> set[int]:
    """g^-1 x g for each x, from the Cayley table."""
    t = G.table
    gi = G.inverse[g]
    return {t[t[gi][x]][g] for x in elements}


def cyclic_join_oracle(G) -> tuple[list[int], list[int], list[int], list[int]]:
    """Reference lattice: every subgroup found is joined with every cyclic
    subgroup it does not contain, each join closed with `pairwise_closure`,
    until no join is new; the classes are orbits under conjugation by every
    element of G.  Returns the masks sorted by (order, mask) and, in the
    lattice's convention, the class id of each, the index of each class's
    first member and each class's size.  No `bgroups.subgroups` code runs."""
    cyclic = {mask_of(pairwise_closure(G, [a])) for a in range(G.order)}
    found, frontier = set(cyclic), list(cyclic)
    while frontier:
        new = []
        for h in frontier:
            for c in cyclic:
                if c & h != c:
                    joined = mask_of(pairwise_closure(
                        G, [x for x in range(G.order) if ((h | c) >> x) & 1]))
                    if joined not in found:
                        found.add(joined)
                        new.append(joined)
        frontier = new
    masks = sorted(found, key=lambda m: (m.bit_count(), m))
    index_of = {m: i for i, m in enumerate(masks)}
    conj_class, class_reps, class_sizes = [-1] * len(masks), [], []
    for i, m in enumerate(masks):
        if conj_class[i] < 0:
            members = [x for x in range(G.order) if (m >> x) & 1]
            orbit = {mask_of(conjugate_elements(G, members, g)) for g in range(G.order)}
            for om in orbit:
                conj_class[index_of[om]] = len(class_reps)
            class_reps.append(i)
            class_sizes.append(len(orbit))
    return masks, conj_class, class_reps, class_sizes


def brute_mark(lat, cx, cy) -> int:
    """|{g in G : g^-1 X g <= Y}| / |Y| for class reps X, Y."""
    G = lat.parent
    X, Y = lat.class_rep(cx), lat.class_rep(cy)
    xs, ys = X.elements(), set(Y.elements())
    cnt = sum(1 for g in range(G.order) if conjugate_elements(G, xs, g) <= ys)
    assert cnt % Y.order == 0
    return cnt // Y.order


def mark_columns_oracle(lat) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Reference mark columns by an all-pairs containment scan (Pfeiffer
    1997): for each class representative X, every subgroup at or after X
    in (order, mask) that contains X counts towards its class y, and
    marks[x][y] = |N_G(Y)|/|Y| · #{Y' ~ Y : X <= Y'}.  Per class y, the
    classes x with a nonzero mark, by increasing x, and those marks; the
    lattice's own mark code is not called."""
    per_conjugate = [lat.normalizer_order(r) // lat.subgroups[r].order
                     for r in lat.class_reps]  # |N_G(Y)|/|Y|
    masks = [S.mask for S in lat.subgroups]
    xs: list[list[int]] = [[] for _ in lat.class_reps]
    ms: list[list[int]] = [[] for _ in lat.class_reps]
    for x, r in enumerate(lat.class_reps):
        xm = masks[r]
        count: dict[int, int] = {}
        for m, cy in zip(masks[r:], lat.conj_class[r:]):
            if m & xm == xm:
                count[cy] = count.get(cy, 0) + 1
        for cy, cnt in count.items():
            xs[cy].append(x)
            ms[cy].append(cnt * per_conjugate[cy])
    return [(tuple(x), tuple(m)) for x, m in zip(xs, ms)]


class DenseBurnside:
    """Reference Burnside-ring arithmetic on dense Fraction vectors, one
    entry per subgroup class of lat.  The marks come from `brute_mark`, a
    fixed-point count, and the idempotent basis is reached by inverting the
    table of marks with Gauss-Jordan elimination; no code of
    bgroups.burnside and not the lattice's own marks are used."""

    def __init__(self, lat):
        n = lat.n_classes()
        self.marks = [[Fraction(brute_mark(lat, x, y)) for y in range(n)] for x in range(n)]
        self.inverse = _inverse(self.marks)

    def to_idempotent(self, vec):
        """The marks of a transitive-basis vector."""
        return _apply(self.marks, vec)

    def to_transitive(self, vec):
        return _apply(self.inverse, vec)

    def multiply(self, a, a_idempotent, b, b_idempotent):
        """(product vector, whether it is in the idempotent basis): marks
        multiply pointwise, and the product is in the idempotent basis when
        both factors are."""
        ma = a if a_idempotent else self.to_idempotent(a)
        mb = b if b_idempotent else self.to_idempotent(b)
        prod = tuple(x * y for x, y in zip(ma, mb))
        both = a_idempotent and b_idempotent
        return (prod if both else self.to_transitive(prod)), both


def _apply(M, vec):
    return tuple(sum((m * v for m, v in zip(row, vec)), Fraction(0)) for row in M)


def _inverse(M):
    n = len(M)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def restrict_oracle(vec, incl):
    """Reference restriction along an injective map H -> G, by Mackey's
    formula: [G/Y] restricts to the sum over the double cosets HgY of
    [H/(H n gYg^-1)].  vec is a dense transitive-basis vector over G's
    subgroup classes; the result is one over H's.  No code of
    bgroups.burnside is used."""
    G, H = incl.target, incl.source
    lat_g, lat_h = enumerate_subgroups(G), enumerate_subgroups(H)
    t, inv = G.table, G.inverse
    out = [Fraction(0)] * lat_h.n_classes()
    for cy, coeff in enumerate(vec):
        if not coeff:
            continue
        ys = lat_g.class_rep(cy).elements()
        seen: set[int] = set()
        for g in range(G.order):
            if g in seen:
                continue
            seen |= {t[t[h][g]][y] for h in incl.image for y in ys}  # the double coset HgY
            conjugate = {t[t[g][y]][inv[g]] for y in ys}  # gYg^-1
            inter = mask_of(i for i, x in enumerate(incl.image) if x in conjugate)
            out[lat_h.conj_class[lat_h.index_of[inter]]] += coeff
    return tuple(out)


def inflate_oracle(vec, proj):
    """Reference inflation along a surjection G -> Q: [Q/Y] goes to
    [G/preimage(Y)].  vec is a dense transitive-basis vector over Q's
    subgroup classes; the result is one over G's.  No code of
    bgroups.burnside is used."""
    G, Q = proj.source, proj.target
    lat_g, lat_q = enumerate_subgroups(G), enumerate_subgroups(Q)
    out = [Fraction(0)] * lat_g.n_classes()
    for cy, coeff in enumerate(vec):
        if coeff:
            ymask = lat_q.class_rep(cy).mask
            pre = mask_of(g for g, v in enumerate(proj.image) if (ymask >> v) & 1)
            out[lat_g.conj_class[lat_g.index_of[pre]]] += coeff
    return tuple(out)


def klein_four():
    return direct_product(make_cyclic(2), make_cyclic(2)).group


def elementary_eight():
    return direct_product(klein_four(), make_cyclic(2)).group


def order24_example():
    """C2 x (C3 : C4); generators a=12 (order 2), b=4 (order 3), c=1 (order 4)."""
    return direct_product(make_cyclic(2), dicyclic_3()).group


def idempotent_corpus():
    """The named test corpus for the idempotent property suite."""
    return (
        [make_cyclic(n) for n in range(1, 13)]
        + [
            klein_four(),
            elementary_eight(),
            dihedral_group(4),
            quaternion_group(),
            alternating_4(),
            symmetric_group(3),
            symmetric_group(4),
            dicyclic_3(),
            order24_example(),
        ]
    )


def deflation_closed_form_holds(G, K) -> bool:
    """Idempotent deflation identity over G x K: for every subgroup class L
    and every normal N of G, deflating e_L along (G ->> G/N) x Id gives
    lambda * m_{L, L n (N x 1)} * e_{image of L}, with lambda the ratio of
    normalizer indices.  Both sides computed independently."""
    P = direct_product(G, K)
    GK = P.group
    lat = enumerate_subgroups(GK)
    nc = lat.n_classes()
    es = [gluck_idempotent(GK, lat.class_rep(c)) for c in range(nc)]
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        PQ = direct_product(Q, K)
        latq = enumerate_subgroups(PQ.group)
        pis = shift_hom(pi, K)
        nmask = mask_of(n * K.order for n in N.elements())
        for c in range(nc):
            L = lat.class_rep(c)
            # both sides live in the transitive basis; compare there
            got = deflate(es[c], pis)
            j = subgroup_embedding(L)
            back = {j.image[i]: i for i in range(L.order)}
            LN = Subgroup(
                j.source, mask_of(back[x] for x in L.elements() if (nmask >> x) & 1)
            )
            mval = m_const(j.source, LN)
            lbar_mask = mask_of(pis.image[x] for x in L.elements())
            Lbar = Subgroup(PQ.group, lbar_mask)
            nq = latq.normalizer_order(latq.index_of[lbar_mask]) // Lbar.order
            ng = lat.normalizer_order(lat.index_of[L.mask]) // L.order
            lam = Fraction(nq, ng)
            expected = (lam * mval) * gluck_idempotent(PQ.group, Lbar)
            if got.coeffs != expected.coeffs:
                return False
    return True


def evaluation_stable_under_ops(bk, G, K) -> bool:
    """The ideal evaluation at G maps into the corresponding evaluation at
    the target of each of the five elementary operations (shifted by K)."""
    from bgroups.overk import isomorphisms

    P = direct_product(G, K)
    GK = P.group
    lat = enumerate_subgroups(GK)
    ev = set(ideal_eval(bk, G).basis_classes)
    glat = enumerate_subgroups(G)

    def in_span(elem, target_group):
        tv = to_idempotent_basis(elem)
        allowed = set(ideal_eval(bk, target_group).basis_classes)
        return set(tv.support()) <= allowed

    for c in ev:
        e = gluck_idempotent(GK, lat.class_rep(c))
        for hc in range(glat.n_classes()):
            H = glat.class_rep(hc)
            if not in_span(shifted_restrict(e, H, K), subgroup_embedding(H).source):
                return False
        for N in normal_subgroups(G):
            Q, pi = quotient(G, N)
            if not in_span(shifted_deflate(e, pi, K), Q):
                return False
        f = next(isomorphisms(G, G))
        if not in_span(shifted_transport(e, f, K), G):
            return False
    for hc in range(glat.n_classes()):
        H = glat.class_rep(hc)
        Hgrp = subgroup_embedding(H).source
        HK = direct_product(Hgrp, K).group
        hlat = enumerate_subgroups(HK)
        for c in ideal_eval(bk, Hgrp).basis_classes:
            e = gluck_idempotent(HK, hlat.class_rep(c))
            if not in_span(shifted_induce(e, H, K), G):
                return False
    for N in normal_subgroups(G):
        Q, pi = quotient(G, N)
        QK = direct_product(Q, K).group
        qlat = enumerate_subgroups(QK)
        for c in ideal_eval(bk, Q).basis_classes:
            e = gluck_idempotent(QK, qlat.class_rep(c))
            if not in_span(shifted_inflate(e, pi, K), G):
                return False
    return True


def p_persistent_bk_search(K, p) -> list:
    """One (L, phi) per over-K isomorphism class of the p-persistent
    B_K-groups with L in the catalog (|L| <= 16), found by testing every
    homomorphism of every catalog group to K."""
    found: list = []
    for L in groups_up_to_order(16):
        for x in groups_over_k(L, K):
            if not (is_bk_group(x) and is_p_persistent(x, p)):
                continue
            if not any(is_isomorphic_over_k(x, r) for r in found):
                found.append(x)
    return found
