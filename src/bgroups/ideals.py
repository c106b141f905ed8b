"""Evaluations of the ideals attached to B_K-groups, simple-module
dimensions, minimal groups, quotient posets of B_K-group classes, and the
(finite) ideal lattice of the p-restricted shifted Burnside functor.

A poset of B_K-group classes keeps one up-set per node, a bit mask of the
nodes above it.  x ->> y only when the images of x and y are K-conjugate,
so only pairs within one image class are tested.

The p-restricted ideal lattice is checked as the theorem states it, one
subgroup class H of K at a time: H's case builds its 1-2 nodes, and the
closed sets of their quotient relation are counted.  No relation crosses
two classes, so the product of the counts is the number of ideals.  No
poset over all classes is built: C2^7 at p = 2 has 29,340 nodes in 29,212
classes, and the check holds at most two of them at a time.
"""

from __future__ import annotations

from .catalog import groups_up_to_order
from .groups import (
    Group,
    GroupError,
    ResourceLimit,
    direct_product,
    elements_of,
    image,
    kernel,
    mask_of,
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
    p_persistent_nodes,
    pair_from_subgroup,
)
from .subgroups import enumerate_subgroups, normal_subgroups

P_RESTRICTED = "p_restricted"
TRUNCATED = "truncated"

DEFAULT_CLOSED_SET_CAP = 10**6


class ClosedSetCapExceeded(ResourceLimit):
    pass


class IdealEvaluation:
    def __init__(self, bk: GroupOverK, G: Group, K: Group, basis_classes: tuple[int, ...],
                 complement_classes: tuple[int, ...]):
        self.bk = bk
        self.G = G
        self.K = K
        self.basis_classes = basis_classes
        self.complement_classes = complement_classes

    @property
    def dimension(self) -> int:
        return len(self.basis_classes)


class BkPoset:
    def __init__(self, K: Group, nodes: list[GroupOverK], tags: list[str], above: list[int]):
        self.K = K
        self.nodes = nodes
        self.tags = tags  # per node; "" in truncated mode
        self.above = above  # above[j]: mask of the nodes i with nodes[i] ->> nodes[j]

    @property
    def quotient_rel(self) -> list[list[bool]]:
        """The dense relation, rendered on each call: quotient_rel[i][j] is
        nodes[i] ->> nodes[j]."""
        return [[bool((up >> i) & 1) for up in self.above] for i in range(len(self.above))]


class IdealLatticeDescription:
    def __init__(self, K: Group, p: int, c_count: int, nc_count: int, total_ideals: int,
                 components: list[tuple[str, str]], verified: bool | None = None):
        self.K = K
        self.p = p
        self.c_count = c_count
        self.nc_count = nc_count
        self.total_ideals = total_ideals
        self.components = components  # (subgroup-class label, "chain2"|"isolated")
        self.verified = verified


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
    # x ->> y over K only if phi_y(L_y) is a K-conjugate of phi_x(L_x), so
    # only pairs within one image class are tested; every other pair is False
    klat = enumerate_subgroups(K)
    buckets: dict[int, list[int]] = {}
    for j, y in enumerate(nodes):
        buckets.setdefault(klat.class_of(image(y.phi)), []).append(j)
    above = [0] * len(nodes)
    for bucket in buckets.values():
        for j in bucket:
            above[j] = mask_of(i for i in bucket if is_quotient_over_k(nodes[i], nodes[j]))
    return BkPoset(K, nodes, tags, above)


def closed_subsets(poset: BkPoset, cap: int = DEFAULT_CLOSED_SET_CAP) -> list[frozenset[int]]:
    """All subsets P with: node in P and other ->> node implies other in P,
    ordered by size and then by their ascending members.  Raises
    ClosedSetCapExceeded when there are more than cap."""
    # every closed set is the union of the up-sets of its members; after
    # node j, sets holds the unions over subsets of the nodes 0..j, and it
    # only grows, so it passes the cap exactly when the whole listing does
    sets = {0}
    for j, up in enumerate(poset.above):
        sets |= {s | up for s in sets if not (s >> j) & 1}
        if len(sets) > cap:
            raise ClosedSetCapExceeded(f"more than {cap} closed sets")
    # among sets of one size, the one holding the least member of the two
    # sets' difference comes first: the larger mask once its bits are reversed
    n = len(poset.above)
    order = sorted(sets, key=lambda s: (s.bit_count(), -int(f"{s:0{n}b}"[::-1], 2)))
    return [frozenset(elements_of(s)) for s in order]


def p_ideal_lattice(K: Group, p: int, verify: bool = True) -> IdealLatticeDescription:
    """Component census of the p-restricted ideal lattice: one factor per
    subgroup class of K, a 3-chain when H^[p] is cyclic, a 2-chain otherwise;
    total ideal count 3^c * 2^nc.  With verify, the closed sets of each
    class's own nodes are counted, and their product must equal the total."""
    lat = enumerate_subgroups(K)
    c = nc = 0
    components: list[tuple[str, str]] = []
    count = 1
    for ci in range(lat.n_classes()):
        H = lat.class_rep(ci)
        label = f"ord{H.order}#{ci}"
        case = p_persistent_case(subgroup_as_group(H), p)
        if case is not None:  # H^[p] cyclic
            c += 1
            components.append((label, "chain2"))
        else:
            nc += 1
            components.append((label, "isolated"))
        if verify:
            # every node of H's class has image H, and no relation crosses
            # two classes, so the closed sets of all nodes are the products
            # of those of each class; the cap bounds each listing
            nodes = p_persistent_nodes(K, H, p, case)
            xs = [x for x, _ in nodes]
            above = [mask_of(i for i, x in enumerate(xs) if is_quotient_over_k(x, y)) for y in xs]
            count *= len(closed_subsets(BkPoset(K, xs, [t for _, t in nodes], above)))
    total = 3**c * 2**nc
    return IdealLatticeDescription(K, p, c, nc, total, components, count == total if verify else None)
