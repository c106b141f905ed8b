"""Evaluations of the ideals attached to B_K-groups, simple-module
dimensions, minimal groups, quotient posets of B_K-group classes, and the
(finite) ideal lattice of the p-restricted shifted Burnside functor.

ideal_eval walks the classes X of G x K once, keeping those with
(X, p2) ->> bk; simple_dim counts the kept classes whose beta_K is bk,
since beta_K(X, p2) is a quotient of (X, p2) over K.

A poset of B_K-group classes keeps one up-set per node, a bit mask of the
nodes above it.  x ->> y only when the images of x and y are K-conjugate,
so only pairs within one image class are tested.

The census of the p-restricted ideal lattice is the case of each subgroup
class H of K, read off H's mask in K with no node built: a 3-chain when
H^[p] is cyclic, a 2-chain otherwise, so 3^c * 2^nc ideals.  The check
counts over that case list as the theorem states it, one class at a time:
H's case builds its 1-2 nodes, and the closed sets of their quotient
relation are counted.  No relation crosses two classes, so the product of
the counts is the number of ideals.  No poset over all classes is built:
C2^7 at p = 2 has 29,340 nodes in 29,212 classes, and the check holds at
most two of them at a time.
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
    def __init__(self, K: Group, p: int, cases: list[str | None]):
        self.K = K
        self.p = p
        self.cases = cases  # p_persistent_case of each subgroup class rep of K, by class
        self.c_count = sum(case is not None for case in cases)  # H^[p] cyclic
        self.nc_count = len(cases) - self.c_count
        self.total_ideals = 3**self.c_count * 2**self.nc_count


# ---------------------------------------------------------------------------
# ideal evaluations


def ideal_eval(bk: GroupOverK, G: Group) -> IdealEvaluation:
    """Basis classes of the ideal evaluation at G: classes X <= G x K with
    (X, p2) ->> bk."""
    if not is_bk_group(bk):
        raise GroupError("not a B_K-group; reduce with beta_k first")
    P = direct_product(G, bk.K)
    lat = enumerate_subgroups(P.group)
    basis, rest = [], []
    for c in range(lat.n_classes()):
        if is_quotient_over_k(pair_from_subgroup(lat.class_rep(c), P.proj2), bk):
            basis.append(c)
        else:
            rest.append(c)
    return IdealEvaluation(bk, G, bk.K, tuple(basis), tuple(rest))


def simple_dim(bk: GroupOverK, G: Group) -> int:
    """dim of the simple quotient at G: classes X with beta_K(X, p2) ~= bk.
    beta_K(X, p2) is a quotient of (X, p2) over K, so every such X has
    (X, p2) ->> bk and is a basis class of ideal_eval(bk, G); beta_K is
    computed for those classes only."""
    P = direct_product(G, bk.K)
    lat = enumerate_subgroups(P.group)
    pairs = (pair_from_subgroup(lat.class_rep(c), P.proj2) for c in ideal_eval(bk, G).basis_classes)
    return sum(is_isomorphic_over_k(beta_k(x), bk) for x in pairs)


def minimal_groups(bk: GroupOverK) -> list[Group]:
    """{L/N : N normal of maximal order with N n Ker phi = 1}, up to iso."""
    L = bk.L
    ker = kernel(bk.phi)
    meet_trivially = [N for N in normal_subgroups(L) if N.mask & ker.mask == 1]
    best = max(N.order for N in meet_trivially)
    out: list[Group] = []
    for N in meet_trivially:
        if N.order == best:
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


def p_ideal_lattice(K: Group, p: int) -> IdealLatticeDescription:
    """Census of the p-restricted ideal lattice: the case of each subgroup
    class of K, a 3-chain when H^[p] is cyclic, a 2-chain otherwise; total
    ideal count 3^c * 2^nc.  No node is built."""
    lat = enumerate_subgroups(K)
    return IdealLatticeDescription(
        K, p, [p_persistent_case(lat.class_rep(ci), p) for ci in range(lat.n_classes())])


def count_p_ideals(desc: IdealLatticeDescription) -> int:
    """The closed sets of the p-restricted poset, counted over the census's
    cases: each class's own nodes are built and the closed sets of their
    quotient relation counted.  Every node of H's class has image H, and no
    relation crosses two classes, so the closed sets of all nodes are the
    products of those of each class; the cap bounds each listing.  The
    theorem says the count is desc.total_ideals."""
    K, lat = desc.K, enumerate_subgroups(desc.K)
    count = 1
    for ci, case in enumerate(desc.cases):
        nodes = p_persistent_nodes(K, lat.class_rep(ci), desc.p, case)
        xs = [x for x, _ in nodes]
        above = [mask_of(i for i, x in enumerate(xs) if is_quotient_over_k(x, y)) for y in xs]
        count *= len(closed_subsets(BkPoset(K, xs, [t for _, t in nodes], above)))
    return count
