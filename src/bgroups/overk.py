"""Groups over a fixed group K: morphisms up to inner automorphisms of K,
quotient and isomorphism testing, B_K-group detection, beta_K, and the
classification of p-persistent B_K-groups.

One search, `_hom_images`, finds the homomorphisms and the surjections
between two groups, by brute force over the images of the source's
generators; it checks the homomorphism law on the chords of the word plan
only, since each candidate is built along the plan's tree.

Both over-K decisions are one surjection search over K, `_onto_over_k`:
x ~= y is x ->> y with |L_x| = |L_y|, and y ~= x/N for some N exactly
when x ->> y, so no quotient is built.  Equal data are accepted, exact
invariants of the orders, of abelianness and of the image's K-class
reject, and a search still needed runs once per distinct c_g . phi_x,
with g from K/Z(K), over the fibres of phi_y, so every map it finds is a
morphism over K.
"""

from __future__ import annotations

import itertools

from .groups import (
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    _Value,
    _setattr,
    _trusted,
    center_mask,
    conjugate_mask,
    direct_product,
    elements_of,
    full_subgroup,
    kernel,
    make_cyclic,
    mask_of,
    o_p_subgroup,
    quotient,
    subgroup_embedding,
    trivial_group,
)
from .subgroups import enumerate_subgroups, m_const, normal_subgroups


class GroupOverK(_Value):
    """A group L with a homomorphism phi: L -> K, under a label."""

    _fields = ("L", "phi", "label")

    def __init__(self, L: Group, phi: Homomorphism, label: str = ""):
        if phi.source != L:
            raise GroupError("phi must start at L")
        _setattr(self, "L", L)
        _setattr(self, "phi", phi)
        _setattr(self, "label", label)

    @property
    def K(self) -> Group:
        return self.phi.target

    def __repr__(self):
        return f"GroupOverK({self.label or self.L.label}, |L|={self.L.order})"


def trivial_over(K: Group) -> GroupOverK:
    one = trivial_group()
    return GroupOverK(one, _trusted(Homomorphism, one, K, (0,)), "1")


def embedding_over(K: Group, H: Subgroup) -> GroupOverK:
    """(H, j_H): a subgroup of K with its inclusion map into K itself.  H
    may come from the lattice shared with a group equal to K; the label and
    the target of j_H come from K."""
    if H.parent != K:
        raise GroupError("H must be a subgroup of K")
    j = subgroup_embedding(H)
    phi = _trusted(Homomorphism, j.source, K, j.image)
    return GroupOverK(j.source, phi, f"({K.label}|{j.source.order},incl)")


# ---------------------------------------------------------------------------
# plain-group homomorphism / isomorphism machinery


def _word_plan(G: Group):
    """Greedy generators, steps (y, x, gen_index) with y = x * gens[i] in
    breadth-first order from the identity, and chords, the remaining
    (y, x, gen_index) with y = x * gens[i]: the steps form a spanning tree
    of the Cayley graph, so any generator-image assignment extends to a full
    candidate map in one pass, and the law holds on every edge once it holds
    on the chords.  Kept on G's interned table."""
    if G._t.word_plan is not None:
        return G._t.word_plan
    gens = G.generating_sequence()
    steps, chords = [], []
    known = [0]
    seen = {0}
    t = G.table
    for x in known:  # grows while we walk it
        for gi, g in enumerate(gens):
            y = t[x][g]
            if y in seen:
                chords.append((y, x, gi))
            else:
                seen.add(y)
                steps.append((y, x, gi))
                known.append(y)
    G._t.word_plan = gens, tuple(steps), tuple(chords)
    return G._t.word_plan


def _hom_images(G: Group, H: Group, onto: bool = False, fibre=None):
    """Yield the image tuple of every homomorphism G -> H, or with `onto` of
    every surjection, by brute force over the images of G's generators: an
    image h of a generator g needs ord h | ord g, and a surjection takes
    |H| distinct values.  A surjection between groups of one order is an
    isomorphism, so there h needs ord h = ord g, and G and H need equal
    sorted element orders.  With `fibre` = (psi, chi), image tuples on G's
    and on H's elements, only the maps f with chi . f = psi on the
    generators are tried, which for homomorphisms psi and chi means on all
    of G.

    Each assignment extends along the word plan's tree, so the homomorphism
    law is checked on its chords only, which is the whole law (`_is_hom`).
    Each assignment of images extends to at most one map, and distinct
    assignments give distinct maps, so no map is yielded twice."""
    gorders, horders = G.element_orders(), H.element_orders()
    iso = onto and G.order == H.order
    if iso and sorted(gorders) != sorted(horders):
        return
    gens, steps, chords = _word_plan(G)
    s = H.table
    psi, chi = fibre or (None, None)
    candidates_per_gen = [
        [h for h, o in enumerate(horders)
         if (chi is None or chi[h] == psi[g])
         and (o == gorders[g] if iso else gorders[g] % o == 0)]
        for g in gens
    ]
    for images in itertools.product(*candidates_per_gen):
        out = [0] * G.order
        for y, x, gi in steps:
            out[y] = s[out[x]][images[gi]]
        if all(out[y] == s[out[x]][images[gi]] for y, x, gi in chords) and (
            not onto or len(set(out)) == H.order
        ):
            yield tuple(out)


def homomorphisms(G: Group, H: Group) -> list[Homomorphism]:
    """All homomorphisms G -> H."""
    return [_trusted(Homomorphism, G, H, m) for m in _hom_images(G, H)]


def isomorphisms(G: Group, H: Group):
    """Yield all isomorphisms G -> H: the surjections, when |G| = |H|."""
    if G.order == H.order:
        for m in _hom_images(G, H, onto=True):
            yield _trusted(Homomorphism, G, H, m)


def is_isomorphic(G: Group, H: Group) -> bool:
    return G.order == H.order and next(_hom_images(G, H, onto=True), None) is not None


# ---------------------------------------------------------------------------
# the category over K


def _transversal(K: Group) -> tuple[int, ...]:
    """The least element of each coset of Z(K) in K, in increasing order:
    conjugation by g depends only on gZ(K), so these give every inner
    automorphism of K once; for abelian K only the identity.  Kept on K's
    interned table."""
    if K._t.transversal is None:
        z, t = elements_of(center_mask(K)), K.table
        covered, reps = 0, []
        for g in range(K.order):
            if not (covered >> g) & 1:
                reps.append(g)
                covered |= mask_of(t[g][c] for c in z)
        K._t.transversal = tuple(reps)
    return K._t.transversal


def _mask_conjugators(K: Group, xm: int, ym: int):
    """Yield each g of K's Z(K)-transversal with g X g^-1 = Y, for the
    subgroups of K with masks xm and ym."""
    if xm.bit_count() == ym.bit_count():
        for g in _transversal(K):
            if (conjugate_mask(K, xm, g) if g else xm) == ym:
                yield g


def _onto_over_k(x: GroupOverK, y: GroupOverK, possible: bool) -> bool:
    """True iff x ->> y: some surjection f: L_x -> L_y and inner
    automorphism c of K satisfy phi_y . f = c . phi_x.  `possible` is the
    caller's exact test on the orders, read after the different-K refusal
    and after equal data, one table L with equal images, are accepted by
    the identity of L.  Such an f carries phi_x(L_x) to phi_y(L_y) by c,
    so for each distinct c = c_g, with g from the Z(K) transversal that
    conjugates the one image to the other, one search for surjections is
    restricted to the fibres of phi_y over c . phi_x, and each map it
    finds is a morphism over K."""
    if x.K != y.K:
        raise GroupError("different K")
    if x.L == y.L and x.phi.image == y.phi.image:
        return True
    if not possible:
        return False
    K, tried = x.K, set()
    for g in _mask_conjugators(K, mask_of(x.phi.image), mask_of(y.phi.image)):
        psi = tuple(K.conj(v, g) for v in x.phi.image) if g else x.phi.image
        if psi not in tried:
            tried.add(psi)
            fibre = (psi, y.phi.image)
            if next(_hom_images(x.L, y.L, onto=True, fibre=fibre), None) is not None:
                return True
    return False


def is_isomorphic_over_k(x: GroupOverK, y: GroupOverK) -> bool:
    """True iff some isomorphism f: L_x -> L_y and inner automorphism c of K
    satisfy phi_y . f = c . phi_x: x ->> y with |L_x| = |L_y|, since a
    surjection between groups of one order is bijective."""
    return _onto_over_k(x, y, x.L.order == y.L.order)


def quotient_over_k(x: GroupOverK, N: Subgroup) -> GroupOverK:
    """(L/N, phi/N) for a normal N <= Ker phi, which holds exactly when phi
    is constant on the cosets of N: a coset that meets two values raises."""
    Q, pi = quotient(x.L, N)
    image = [-1] * Q.order
    for q, v in zip(pi.image, x.phi.image):
        if image[q] != v:
            if image[q] >= 0:
                raise GroupError("N must be contained in Ker phi")
            image[q] = v
    phi_bar = _trusted(Homomorphism, Q, x.K, tuple(image))
    return GroupOverK(Q, phi_bar, f"{x.label}/N{N.order}" if x.label else "")


def is_quotient_over_k(x: GroupOverK, y: GroupOverK) -> bool:
    """True iff y is a quotient of x in the category over K, y ~= x/N for a
    normal N <= Ker phi_x: the kernel of a surjection f over K lies in Ker
    phi_x, so this is x ->> y, and no quotient is built.  Orders decide
    first: |L_y| must divide |L_x|, the index must divide |Ker phi_x|, and
    at an index above 1, exp L_y must divide exp L_x (from the element
    orders kept on L's table); at index 1 the search compares all orders.
    Then an abelian L_x has no nonabelian quotient: a group is abelian
    when its kept Z(L)-transversal has one element."""
    index, rest = divmod(x.L.order, y.L.order)
    kernel_order = x.L.order // x.phi._image_order()
    return _onto_over_k(x, y, rest == 0 and kernel_order % index == 0 and (
        index == 1 or x.L.exponent() % y.L.exponent() == 0) and (
        len(_transversal(x.L)) > 1 or len(_transversal(y.L)) == 1))


def pair_from_subgroup(X: Subgroup, p2: Homomorphism) -> GroupOverK:
    """(X, p2|_X) as a group over K, for X <= G x K and the projection p2."""
    j = subgroup_embedding(X)
    phi = p2.compose(j)
    return GroupOverK(j.source, phi)


# ---------------------------------------------------------------------------
# B_K-groups


def kernel_m_constants(x: GroupOverK):
    """Yield (N, m_{L,N}) for every normal N <= Ker phi, in canonical
    lattice order."""
    ker = kernel(x.phi).mask
    for N in normal_subgroups(x.L):
        if N.mask & ker == N.mask:
            yield N, m_const(x.L, N)


def beta_k_subgroup(m_constants) -> Subgroup:
    """The Q with beta_K(x) = (L/Q, phi/Q), from kernel_m_constants(x): of
    maximal order with m_{L,Q} != 0, the first in canonical order on ties.
    Q is trivial iff x is a B_K-group, since m_{L,1} = 1."""
    best = None
    for N, m in m_constants:
        if m != 0 and (best is None or N.order > best.order):
            best = N
    return best


def is_bk_group(x: GroupOverK) -> bool:
    """m_{L,N} = 0 for every nontrivial normal N <= Ker phi."""
    return all(m == 0 for N, m in kernel_m_constants(x) if not N.is_trivial())


def beta_k(x: GroupOverK) -> GroupOverK:
    """Largest B_K-group quotient: (L/Q, phi/Q) for Q <= Ker phi normal of
    maximal order with m_{L,Q} != 0 (deterministic tie-break)."""
    return quotient_over_k(x, beta_k_subgroup(kernel_m_constants(x)))


def is_p_persistent(x: GroupOverK, p: int) -> bool:
    """m_{L, O^p(L) n Ker phi} != 0."""
    O = o_p_subgroup(full_subgroup(x.L), p)
    ker = kernel(x.phi)
    return m_const(x.L, _trusted(Subgroup, x.L, O.mask & ker.mask)) != 0


CASE_EMBEDDING = "embedding"
CASE_CP = "cp_extension"
CASE_CP2 = "cp2_extension"


def p_persistent_case(H: Subgroup, p: int) -> str | None:
    """The case that H^[p] = H/O^p(H) adds to (H, j_H): CASE_CP2 when H^[p]
    is trivial, CASE_CP when it is cyclic and nontrivial, None otherwise.
    Read off the masks of H and O = O^p(H) in H's parent, with no table for
    H: H^[p] is trivial when O = H, and cyclic when some coset hO has order
    |H:O|, that is when h first lands in O at that power."""
    O = o_p_subgroup(H, p).mask
    if O == H.mask:
        return CASE_CP2
    t, index = H.parent.table, H.order // O.bit_count()
    for h in elements_of(H.mask & ~O):
        x, k = h, 1
        while not (O >> x) & 1:
            x, k = t[x][h], k + 1
        if k == index:
            return CASE_CP
    return None


def p_persistent_nodes(K: Group, H: Subgroup, p: int, case: str | None) -> list[tuple[GroupOverK, str]]:
    """The p-persistent B_K-group classes with image the class of H, given
    case = p_persistent_case(H, p): (H, j_H), then (C_p x H, j_H . proj)
    in CASE_CP or (C_p x C_p x H, j_H . proj) in CASE_CP2."""
    x = embedding_over(K, H)
    out = [(x, CASE_EMBEDDING)]
    if case is not None:
        Cp = make_cyclic(p)
        C, prefix = (Cp, "Cpx") if case == CASE_CP else (direct_product(Cp, Cp).group, "Cp2x")
        P = direct_product(C, x.L)
        out.append((GroupOverK(P.group, x.phi.compose(P.proj2), f"{prefix}{x.label}"), case))
    return out


def classify_p_persistent_bk(K: Group, p: int) -> list[tuple[GroupOverK, str]]:
    """All p-persistent B_K-group classes, by subgroup class H of K: the
    nodes of p_persistent_nodes for H's case."""
    lat = enumerate_subgroups(K)
    out: list[tuple[GroupOverK, str]] = []
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        out.extend(p_persistent_nodes(K, H, p, p_persistent_case(H, p)))
    return out


# ---------------------------------------------------------------------------
# exhaustive over-K class enumeration (bounded order)


def groups_over_k(L: Group, K: Group) -> list[GroupOverK]:
    """All (L, phi) for the given L, one per distinct phi."""
    return [GroupOverK(L, f) for f in homomorphisms(L, K)]


def dedupe_over_k(xs: list[GroupOverK]) -> list[GroupOverK]:
    """Representatives of over-K isomorphism classes, first-seen order."""
    reps: list[GroupOverK] = []
    for x in xs:
        if not any(is_isomorphic_over_k(x, r) for r in reps):
            reps.append(x)
    return reps
