"""Evaluations of the ideals attached to B_K-groups, simple-module
dimensions, minimal groups, quotient posets of B_K-group classes, and the
(finite) ideal lattice of the p-restricted shifted Burnside functor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import groups_up_to_order
from .groups import (
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    direct_product,
    kernel,
    quotient,
    subgroup_as_group,
)
from .overk import (
    GroupOverK,
    beta_k,
    classify_p_persistent_bk,
    dedupe_over_k,
    groups_over_k,
    is_bk_group,
    is_isomorphic,
    is_isomorphic_over_k,
    is_quotient_over_k,
    p_persistent_case,
    pair_from_subgroup,
)
from .subgroups import enumerate_subgroups, normal_subgroups

P_RESTRICTED = "p_restricted"
TRUNCATED = "truncated"

DEFAULT_CLOSED_SET_CAP = 10**6


class ClosedSetCapExceeded(GroupError):
    pass


@dataclass
class IdealEvaluation:
    bk: GroupOverK
    G: Group
    K: Group
    basis_classes: tuple[int, ...]
    complement_classes: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis_classes)


@dataclass
class BkPoset:
    K: Group
    nodes: list[GroupOverK]
    tags: list[str]  # per node; "" in truncated mode
    quotient_rel: list[list[bool]]  # quotient_rel[i][j]: nodes[i] ->> nodes[j]
    mode: str
    p: int | None = None
    max_order: int | None = None

    def components(self) -> list[list[int]]:
        n = len(self.nodes)
        seen = [False] * n
        comps = []
        for i in range(n):
            if seen[i]:
                continue
            comp = [i]
            seen[i] = True
            stack = [i]
            while stack:
                a = stack.pop()
                for b in range(n):
                    if not seen[b] and (
                        self.quotient_rel[a][b] or self.quotient_rel[b][a]
                    ):
                        seen[b] = True
                        comp.append(b)
                        stack.append(b)
            comps.append(sorted(comp))
        return comps

    def covering_pairs(self) -> list[tuple[int, int]]:
        n = len(self.nodes)
        out = []
        for i in range(n):
            for j in range(n):
                if i == j or not self.quotient_rel[i][j]:
                    continue
                # strict and no strictly intermediate node
                if any(
                    k not in (i, j)
                    and self.quotient_rel[i][k]
                    and self.quotient_rel[k][j]
                    and not self.quotient_rel[k][i]
                    and not self.quotient_rel[j][k]
                    for k in range(n)
                ):
                    continue
                out.append((i, j))
        return out


@dataclass
class IdealLatticeDescription:
    K: Group
    p: int
    c_count: int
    nc_count: int
    total_ideals: int
    components: list[tuple[str, str]]  # (subgroup-class label, "chain2"|"isolated")
    verified: bool | None = None


# ---------------------------------------------------------------------------
# ideal evaluations


def _product_pairs(G: Group, K: Group):
    """Class reps X of G x K together with (X, p2|_X) as groups over K."""
    P = direct_product(G, K)
    lat = enumerate_subgroups(P.group)
    out = []
    for c in range(lat.n_classes()):
        X = lat.class_rep(c)
        out.append((c, X, pair_from_subgroup(X, P.proj2)))
    return lat, out


def second_projection(parent: Group, K: Group):
    """The projection G x K -> K of a canonical product group.

    Relies on the deterministic id layout of direct_product; the
    homomorphism check rejects parents that were not built that way.
    """
    if parent.order % K.order != 0:
        raise GroupError("parent is not a product with K")
    return Homomorphism(parent, K, tuple(i % K.order for i in range(parent.order)))


def ideal_membership(X: Subgroup, bk: GroupOverK) -> bool:
    """Does e_X over G x K lie in the ideal of bk?  True iff (X,p2) ->> bk."""
    p2 = second_projection(X.parent, bk.K)
    return is_quotient_over_k(pair_from_subgroup(X, p2), bk)


def ideal_eval(bk: GroupOverK, G: Group) -> IdealEvaluation:
    """Basis classes of the ideal evaluation at G: classes X <= G x K with
    (X, p2) ->> bk."""
    if not is_bk_group(bk):
        raise GroupError("not a B_K-group; reduce with beta_k first")
    lat, pairs = _product_pairs(G, bk.K)
    basis = []
    rest = []
    for c, X, pair in pairs:
        if is_quotient_over_k(pair, bk):
            basis.append(c)
        else:
            rest.append(c)
    return IdealEvaluation(bk, G, bk.K, tuple(basis), tuple(rest))


def simple_dim(bk: GroupOverK, G: Group) -> int:
    """dim of the simple quotient at G: classes X with beta_K(X,p2) iso bk."""
    if not is_bk_group(bk):
        raise GroupError("not a B_K-group; reduce with beta_k first")
    _, pairs = _product_pairs(G, bk.K)
    return sum(
        1 for _, X, pair in pairs if is_isomorphic_over_k(beta_k(pair), bk)
    )


def minimal_groups(bk: GroupOverK) -> list[Group]:
    """{L/N : N normal of maximal order with N n Ker phi = 1}, up to iso."""
    L = bk.L
    ker = kernel(bk.phi)
    best = max(
        (N for N in normal_subgroups(L) if N.mask & ker.mask == 1),
        key=lambda N: N.order,
    ).order
    out: list[Group] = []
    for N in normal_subgroups(L):
        if N.order == best and N.mask & ker.mask == 1:
            Q, _ = quotient(L, N)
            if not any(is_isomorphic(Q, M) for M in out):
                out.append(Q)
    return out


# ---------------------------------------------------------------------------
# posets of B_K-group classes and closed sets


def build_bk_poset(
    K: Group,
    mode: str,
    p: int | None = None,
    max_order: int | None = None,
) -> BkPoset:
    if mode == P_RESTRICTED:
        if p is None:
            raise GroupError("p_restricted mode needs a prime")
        classified = classify_p_persistent_bk(K, p)
        nodes = [x for x, _ in classified]
        tags = [t for _, t in classified]
    elif mode == TRUNCATED:
        if max_order is None:
            raise GroupError("truncated mode needs a max order")
        if max_order > 16:
            raise GroupError("truncated mode is limited to order 16")
        xs: list[GroupOverK] = []
        for L in groups_up_to_order(max_order):
            xs.extend(x for x in groups_over_k(L, K) if is_bk_group(x))
        nodes = dedupe_over_k(xs)
        tags = [""] * len(nodes)
    else:
        raise GroupError(f"unknown poset mode {mode!r}")
    n = len(nodes)
    rel = [
        [is_quotient_over_k(nodes[i], nodes[j]) for j in range(n)] for i in range(n)
    ]
    return BkPoset(K, nodes, tags, rel, mode, p=p, max_order=max_order)


def closed_subsets(poset: BkPoset, cap: int = DEFAULT_CLOSED_SET_CAP) -> list[frozenset[int]]:
    """All subsets P with: node in P and other ->> node implies other in P."""
    n = len(poset.nodes)
    above = [
        frozenset(i for i in range(n) if poset.quotient_rel[i][j]) for j in range(n)
    ]
    # every closed set is a union of the up-sets above[j]; build them by
    # deciding membership node by node, closing upward as we include
    out: set[frozenset[int]] = set()

    def extend(idx: int, current: frozenset[int]):
        if len(out) > cap:
            raise ClosedSetCapExceeded(f"more than {cap} closed sets")
        if idx == n:
            out.add(current)
            return
        if idx in current:
            extend(idx + 1, current)
            return
        extend(idx + 1, current)  # leave node idx out (may be added later
        extend(idx + 1, current | above[idx])  # via a node it dominates)

    extend(0, frozenset())
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def p_ideal_lattice(K: Group, p: int, verify: bool = True) -> IdealLatticeDescription:
    """Component census of the p-restricted ideal lattice: one factor per
    subgroup class of K, a 3-chain when H^[p] is cyclic, a 2-chain otherwise;
    total ideal count 3^c * 2^nc."""
    lat = enumerate_subgroups(K)
    c = nc = 0
    components: list[tuple[str, str]] = []
    for ci in range(lat.n_classes()):
        H = lat.class_rep(ci)
        label = f"ord{H.order}#{ci}"
        if p_persistent_case(subgroup_as_group(H), p) is not None:  # H^[p] cyclic
            c += 1
            components.append((label, "chain2"))
        else:
            nc += 1
            components.append((label, "isolated"))
    total = 3**c * 2**nc
    desc = IdealLatticeDescription(K, p, c, nc, total, components)
    if verify:
        poset = build_bk_poset(K, P_RESTRICTED, p=p)
        desc.verified = len(closed_subsets(poset)) == total
    return desc
