"""Groups over a fixed group K: morphisms up to inner automorphisms of K,
quotient and isomorphism testing, B_K-group detection, beta_K, and the
classification of p-persistent B_K-groups.

One search, `_hom_images`, finds both the homomorphisms and the
isomorphisms between two groups, by brute force over the images of the
source's generators; it checks the homomorphism law on the chords of the
word plan only, since each candidate is built along the plan's tree.

The two over-K decisions first accept equal data, one table L with equal
images phi, since the identity of L is then an isomorphism over K.  They
next reject by exact invariants: |L|, |Ker phi|, and the K-conjugacy
class of the image phi(L).  A search that is still needed runs once per
distinct conjugation c_g, with g from a transversal of K/Z(K) kept on K's
table, restricted to the fibres of phi_y over c_g . phi_x, so every map it
finds is a morphism over K and no conjugate test follows.
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
    kernel,
    make_cyclic,
    mask_of,
    o_p_subgroup,
    p_residual_quotient,
    quotient,
    subgroup_as_group,
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


def _hom_images(G: Group, H: Group, iso: bool = False, fibre=None):
    """Yield the image tuple of every homomorphism G -> H, or with `iso` of
    every isomorphism, by brute force over the images of G's generators: an
    image h of a generator g needs ord h | ord g, or ord h = ord g with
    `iso`.  With `fibre` = (psi, chi), image tuples on G's and on H's
    elements, only the maps f with chi . f = psi on the generators are
    tried, which for homomorphisms psi and chi means on all of G.

    Each assignment extends along the word plan's tree, so the homomorphism
    law is checked on its chords only, which is the whole law (`_is_hom`).
    Each assignment of images extends to at most one map, and distinct
    assignments give distinct maps, so no map is yielded twice."""
    gorders, horders = G.element_orders(), H.element_orders()
    if iso and (G.order != H.order or sorted(gorders) != sorted(horders)):
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
            not iso or len(set(out)) == G.order
        ):
            yield tuple(out)


def homomorphisms(G: Group, H: Group) -> list[Homomorphism]:
    """All homomorphisms G -> H."""
    return [_trusted(Homomorphism, G, H, m) for m in _hom_images(G, H)]


def isomorphisms(G: Group, H: Group):
    """Yield all isomorphisms G -> H."""
    for m in _hom_images(G, H, iso=True):
        yield _trusted(Homomorphism, G, H, m)


def is_isomorphic(G: Group, H: Group) -> bool:
    return next(_hom_images(G, H, iso=True), None) is not None


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


def _image_conjugators(x: GroupOverK, y: GroupOverK):
    """Yield each g of K's Z(K)-transversal with g phi_x(L_x) g^-1 =
    phi_y(L_y), none when the images differ in order.  Over K, x ->> y, and
    so x ~= y, only if some g does: a surjection f with phi_y . f =
    c_g . phi_x maps phi_x(L_x) onto phi_y(L_y) by c_g."""
    K = x.K
    xm, ym = mask_of(x.phi.image), mask_of(y.phi.image)
    if xm.bit_count() == ym.bit_count():
        for g in _transversal(K):
            if (conjugate_mask(K, xm, g) if g else xm) == ym:
                yield g


def is_isomorphic_over_k(x: GroupOverK, y: GroupOverK) -> bool:
    """True iff some isomorphism f: L_x -> L_y and inner automorphism c of K
    satisfy phi_y . f = c . phi_x.  Equal data decide first: on one table
    with equal images, f and c the identities will do.  Then exact
    invariants: |L| must agree, and phi_y(L_y) must be a K-conjugate of
    phi_x(L_x), which also makes |Ker phi| agree.  Then, for each distinct
    c = c_g with g from the Z(K) transversal that conjugates the one image
    to the other, one search is restricted to the fibres of phi_y over
    c . phi_x, so each map it finds is a morphism over K."""
    if x.K != y.K:
        raise GroupError("different K")
    if x.L == y.L and x.phi.image == y.phi.image:
        return True
    if x.L.order != y.L.order:
        return False
    K, tried = x.K, set()
    for g in _image_conjugators(x, y):
        psi = tuple(K.conj(v, g) for v in x.phi.image) if g else x.phi.image
        if psi not in tried:
            tried.add(psi)
            fibre = (psi, y.phi.image)
            if next(_hom_images(x.L, y.L, iso=True, fibre=fibre), None) is not None:
                return True
    return False


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
    """True iff y is a quotient of x in the category over K: y ~= x/N over
    K for a normal N <= Ker phi_x with |N| = |L_x|/|L_y|.  Two necessary
    conditions decide first: |L_x|/|L_y| divides |Ker phi_x|, and
    phi_y(L_y) is a K-conjugate of phi_x(L_x)."""
    if x.K != y.K:
        raise GroupError("different K")
    if x.L.order % y.L.order != 0:
        return False
    target = x.L.order // y.L.order
    if (x.L.order // len(set(x.phi.image))) % target != 0:
        return False
    if next(_image_conjugators(x, y), None) is None:
        return False
    return any(
        is_isomorphic_over_k(quotient_over_k(x, N), y)
        for N in _normal_in_kernel(x)
        if N.order == target
    )


def pair_from_subgroup(X: Subgroup, p2: Homomorphism) -> GroupOverK:
    """(X, p2|_X) as a group over K, for X <= G x K and the projection p2."""
    j = subgroup_embedding(X)
    phi = p2.compose(j)
    return GroupOverK(j.source, phi)


# ---------------------------------------------------------------------------
# B_K-groups


def _normal_in_kernel(x: GroupOverK) -> list[Subgroup]:
    """Normal subgroups of L inside Ker phi, in canonical lattice order."""
    ker = kernel(x.phi)
    return [N for N in normal_subgroups(x.L) if N.mask & ker.mask == N.mask]


def kernel_m_constants(x: GroupOverK):
    """Yield (N, m_{L,N}) for every normal N <= Ker phi, in canonical
    lattice order."""
    for N in _normal_in_kernel(x):
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
    O = o_p_subgroup(x.L, p)
    ker = kernel(x.phi)
    return m_const(x.L, _trusted(Subgroup, x.L, O.mask & ker.mask)) != 0


CASE_EMBEDDING = "embedding"
CASE_CP = "cp_extension"
CASE_CP2 = "cp2_extension"


def p_persistent_case(H: Group, p: int) -> str | None:
    """The case that H^[p] = H/O^p(H) adds to (H, j_H): CASE_CP2 when H^[p]
    is trivial, CASE_CP when it is cyclic and nontrivial, None otherwise."""
    Hp, _ = p_residual_quotient(H, p)
    if Hp.order == 1:
        return CASE_CP2
    return CASE_CP if Hp.is_cyclic() else None


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
        out.extend(p_persistent_nodes(K, H, p, p_persistent_case(subgroup_as_group(H), p)))
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
