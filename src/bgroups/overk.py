"""Groups over a fixed group K: morphisms up to inner automorphisms of K,
quotient and isomorphism testing, B_K-group detection, beta_K, and the
classification of p-persistent B_K-groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .groups import (
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    direct_product,
    kernel,
    make_cyclic,
    mask_of,
    o_p_subgroup,
    p_residual_quotient,
    quotient,
    subgroup_embedding,
    trivial_group,
)
from .subgroups import enumerate_subgroups, m_const, normal_subgroups


@dataclass(frozen=True)
class GroupOverK:
    L: Group
    phi: Homomorphism  # L -> K
    label: str = ""

    def __post_init__(self):
        if self.phi.source != self.L:
            raise GroupError("phi must start at L")

    @property
    def K(self) -> Group:
        return self.phi.target

    def __repr__(self):
        return f"GroupOverK({self.label or self.L.label}, |L|={self.L.order})"


def trivial_over(K: Group) -> GroupOverK:
    one = trivial_group()
    return GroupOverK(one, Homomorphism(one, K, (0,)), "1")


def embedding_over(K: Group, H: Subgroup) -> GroupOverK:
    """(H, j_H): a subgroup of K with its inclusion map."""
    j = subgroup_embedding(H)
    return GroupOverK(j.source, j, f"({j.source.label},incl)")


# ---------------------------------------------------------------------------
# plain-group homomorphism / isomorphism machinery


@lru_cache(maxsize=None)
def _word_plan(G: Group) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Greedy generators plus steps (y, x, gen_index) with y = x * gens[i],
    in breadth-first order from the identity, so that any generator-image
    assignment extends to a full candidate map in one pass."""
    gens = G.generating_sequence()
    steps = []
    known = [0]
    seen = {0}
    t = G.table
    for x in known:  # grows while we walk it
        for gi, g in enumerate(gens):
            y = t[x][g]
            if y not in seen:
                seen.add(y)
                steps.append((y, x, gi))
                known.append(y)
    return gens, tuple(steps)


def _extend_map(G: Group, H: Group, steps, images) -> tuple[int, ...] | None:
    """Complete a generator-image assignment to a map G -> H, or None if the
    result is not a homomorphism."""
    out = [0] * G.order
    for y, x, gi in steps:
        out[y] = H.table[out[x]][images[gi]]
    t, s = G.table, H.table
    for a in range(G.order):
        for b in range(G.order):
            if out[t[a][b]] != s[out[a]][out[b]]:
                return None
    return tuple(out)


def homomorphisms(G: Group, H: Group) -> list[Homomorphism]:
    """All homomorphisms G -> H (brute force over generator images)."""
    gens, steps = _word_plan(G)
    horders = [H.element_order(h) for h in range(H.order)]
    out = []
    seen = set()
    candidates_per_gen = [
        [h for h in range(H.order) if G.element_order(g) % horders[h] == 0]
        for g in gens
    ]
    for images in itertools.product(*candidates_per_gen):
        m = _extend_map(G, H, steps, images)
        if m is not None and m not in seen:
            seen.add(m)
            out.append(Homomorphism(G, H, m))
    return out


def _isomorphism_images(G: Group, H: Group):
    """Yield the image tuple of every isomorphism G -> H."""
    if G.order != H.order:
        return
    if sorted(G.element_orders()) != sorted(H.element_orders()):
        return
    gens, steps = _word_plan(G)
    horders = [H.element_order(h) for h in range(H.order)]
    candidates_per_gen = [
        [h for h in range(H.order) if horders[h] == G.element_order(g)] for g in gens
    ]
    for images in itertools.product(*candidates_per_gen):
        m = _extend_map(G, H, steps, images)
        if m is not None and len(set(m)) == G.order:
            yield m


def isomorphisms(G: Group, H: Group):
    """Yield all isomorphisms G -> H."""
    for m in _isomorphism_images(G, H):
        yield Homomorphism(G, H, m)


def is_isomorphic(G: Group, H: Group) -> bool:
    return next(_isomorphism_images(G, H), None) is not None


# ---------------------------------------------------------------------------
# the category over K


def _conjugates(phi: Homomorphism) -> set[tuple[int, ...]]:
    """Image tuples of i . phi for every inner automorphism i of phi.target."""
    K = phi.target
    return {tuple(K.conj(v, g) for v in phi.image) for g in range(K.order)}


def is_morphism_over_k(f: Homomorphism, x: GroupOverK, y: GroupOverK) -> bool:
    """True iff some inner automorphism i of K satisfies i . phi_x = phi_y . f."""
    if f.source != x.L or f.target != y.L or x.K != y.K:
        raise GroupError("mismatched morphism data")
    return tuple(y.phi.image[b] for b in f.image) in _conjugates(x.phi)


def is_isomorphic_over_k(x: GroupOverK, y: GroupOverK) -> bool:
    if x.K != y.K:
        raise GroupError("different K")
    conj = _conjugates(x.phi)
    return any(
        tuple(y.phi.image[b] for b in f) in conj
        for f in _isomorphism_images(x.L, y.L)
    )


def quotient_over_k(x: GroupOverK, N: Subgroup) -> GroupOverK:
    """(L/N, phi/N) for a normal N <= Ker phi."""
    if N.mask & kernel(x.phi).mask != N.mask:
        raise GroupError("N must be contained in Ker phi")
    Q, pi = quotient(x.L, N)
    # phi factors through pi: pick any preimage per coset
    pre = [-1] * Q.order
    for a in range(x.L.order):
        if pre[pi.image[a]] < 0:
            pre[pi.image[a]] = a
    phi_bar = Homomorphism(Q, x.K, tuple(x.phi.image[pre[q]] for q in range(Q.order)))
    return GroupOverK(Q, phi_bar, f"{x.label}/N{N.order}" if x.label else "")


def is_quotient_over_k(x: GroupOverK, y: GroupOverK) -> bool:
    """True iff y is a quotient of x in the category over K."""
    if x.K != y.K:
        raise GroupError("different K")
    if x.L.order % y.L.order != 0:
        return False
    target = x.L.order // y.L.order
    return any(
        is_isomorphic_over_k(quotient_over_k(x, N), y)
        for N in _normal_in_kernel(x)
        if N.order == target
    )


def graph_subgroup(x: GroupOverK) -> Subgroup:
    """L_phi = {(l, phi(l))} inside the canonical product L x K."""
    P = direct_product(x.L, x.K)
    m = x.K.order
    return Subgroup(P.group, mask_of(l * m + x.phi.image[l] for l in range(x.L.order)))


def p_graph_subgroup(x: GroupOverK, p: int) -> Subgroup:
    """Image of l -> (l O^p(L), phi(l)) inside L^[p] x K."""
    Q, pi = p_residual_quotient(x.L, p)
    P = direct_product(Q, x.K)
    m = x.K.order
    return Subgroup(
        P.group,
        mask_of(pi.image[l] * m + x.phi.image[l] for l in range(x.L.order)),
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
    return m_const(x.L, Subgroup(x.L, O.mask & ker.mask)) != 0


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


def classify_p_persistent_bk(K: Group, p: int) -> list[tuple[GroupOverK, str]]:
    """All p-persistent B_K-group classes, one per structural case:

    for each subgroup class H of K, emit (H, j_H); additionally
    (C_p x H, j_H . proj) when H^[p] is cyclic nontrivial, and
    (C_p x C_p x H, j_H . proj) when H^[p] is trivial.
    """
    lat = enumerate_subgroups(K)
    out: list[tuple[GroupOverK, str]] = []
    Cp = make_cyclic(p)
    for c in range(lat.n_classes()):
        H = lat.class_rep(c)
        x = embedding_over(K, H)
        out.append((x, CASE_EMBEDDING))
        case = p_persistent_case(x.L, p)
        if case == CASE_CP:
            P = direct_product(Cp, x.L)
            out.append(
                (GroupOverK(P.group, x.phi.compose(P.proj2), f"Cpx{x.label}"), CASE_CP)
            )
        elif case == CASE_CP2:
            P1 = direct_product(Cp, Cp)
            P = direct_product(P1.group, x.L)
            out.append(
                (GroupOverK(P.group, x.phi.compose(P.proj2), f"Cp2x{x.label}"), CASE_CP2)
            )
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
