"""Subgroup lattices: enumeration, conjugacy classes, Moebius function,
table of marks, normal subgroups and complement counts.

The lattice is the workhorse for every idempotent and m-constant formula;
the table of marks doubles as an independent oracle for Burnside-ring
identities.  Subgroup sets are bitmask ints, which keeps closure and
containment tests cheap at desk scale (order <= 128 by default).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .groups import Group, GroupError, Subgroup, close_subset, mask_of

DEFAULT_ORDER_BOUND = 128


class OrderBoundExceeded(GroupError):
    """Group too large for exhaustive subgroup enumeration."""


@dataclass
class SubgroupLattice:
    parent: Group
    subgroups: list[Subgroup]  # sorted by (order, mask)
    index_of: dict[int, int]  # mask -> position
    conj_class: list[int]  # class id per subgroup
    class_reps: list[int]  # subgroup index of each class representative

    _mu: dict[tuple[int, int], int] | None = None
    _marks: list[list[int]] | None = None
    _normalizers: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.subgroups)

    def index(self, S: Subgroup) -> int:
        try:
            return self.index_of[S.mask]
        except KeyError:
            raise GroupError("subgroup does not belong to this lattice") from None

    def leq(self, i: int, j: int) -> bool:
        mi = self.subgroups[i].mask
        return mi & self.subgroups[j].mask == mi

    def class_of(self, S: Subgroup) -> int:
        return self.conj_class[self.index(S)]

    def class_rep(self, c: int) -> Subgroup:
        return self.subgroups[self.class_reps[c]]

    def n_classes(self) -> int:
        return len(self.class_reps)

    def conjugate_mask(self, mask: int, g: int) -> int:
        G = self.parent
        out = 0
        m = mask
        while m:
            a = (m & -m).bit_length() - 1
            out |= 1 << G.conj(a, g)
            m &= m - 1
        return out

    def normalizer_order(self, i: int) -> int:
        if self._normalizers is None:
            self._normalizers = {}
        if i not in self._normalizers:
            mask = self.subgroups[i].mask
            self._normalizers[i] = sum(
                1 for g in range(self.parent.order) if self.conjugate_mask(mask, g) == mask
            )
        return self._normalizers[i]

    def subgroups_between(self, lo: int, hi: int) -> list[int]:
        """Indices j with subgroup[lo] <= subgroup[j] <= subgroup[hi]."""
        mlo = self.subgroups[lo].mask
        mhi = self.subgroups[hi].mask
        return [
            j
            for j, S in enumerate(self.subgroups)
            if S.mask & mlo == mlo and S.mask & mhi == S.mask
        ]

    # -- Moebius ------------------------------------------------------------

    def moebius(self, i: int, j: int) -> int:
        """mu(X_i, X_j) in the subgroup poset; 0 unless X_i <= X_j."""
        if self._mu is None:
            self._mu = {}
        if not self.leq(i, j):
            return 0
        key = (i, j)
        if key not in self._mu:
            if i == j:
                self._mu[key] = 1
            else:
                total = 0
                for z in self.subgroups_between(i, j):
                    if z != i:
                        total += self.moebius(z, j)
                self._mu[key] = -total
        return self._mu[key]

    # -- marks --------------------------------------------------------------

    def marks(self) -> list[list[int]]:
        """marks[cX][cY] = number of fixed points of X on G/Y (class reps)."""
        if self._marks is None:
            G = self.parent
            t, inv = G.table, G.inverse
            nc = self.n_classes()
            M = [[0] * nc for _ in range(nc)]
            for cy in range(nc):
                Y = self.class_rep(cy)
                yelems = Y.elements()
                ymask = Y.mask
                # coset reps of Y in G
                seen = 0
                cosets = []
                for g in range(G.order):
                    if (seen >> g) & 1:
                        continue
                    cosets.append(g)
                    for y in yelems:
                        seen |= 1 << t[g][y]
                for cx in range(nc):
                    X = self.class_rep(cx)
                    cnt = 0
                    for g in cosets:
                        gi = inv[g]
                        if all((ymask >> t[t[gi][x]][g]) & 1 for x in X.elements()):
                            cnt += 1
                    M[cx][cy] = cnt
            self._marks = M
        return self._marks


def _brute_cyclic_subgroups(G: Group) -> set[int]:
    out = set()
    for a in range(G.order):
        elems = [0]
        x = a
        while x != 0:
            elems.append(x)
            x = G.table[x][a]
        out.add(mask_of(elems))
    return out


@lru_cache(maxsize=None)
def enumerate_subgroups(G: Group, order_bound: int = DEFAULT_ORDER_BOUND) -> SubgroupLattice:
    """All subgroups by bottom-up cyclic extension, with conjugacy classes."""
    if G.order > order_bound:
        raise OrderBoundExceeded(
            f"group order {G.order} exceeds enumeration bound {order_bound}"
        )
    cyclic = _brute_cyclic_subgroups(G)
    found: set[int] = set(cyclic)
    frontier = list(cyclic)
    full = (1 << G.order) - 1
    cyclic_list = sorted(cyclic)
    while frontier:
        new: list[int] = []
        for h in frontier:
            if h == full:
                continue
            for c in cyclic_list:
                if c & h == c:
                    continue
                closed = mask_of(
                    close_subset(
                        G,
                        [i for i in range(G.order) if ((h | c) >> i) & 1],
                    )
                )
                if closed not in found:
                    found.add(closed)
                    new.append(closed)
        frontier = new
    masks = sorted(found, key=lambda m: (m.bit_count(), m))
    subs = [Subgroup(G, m) for m in masks]
    index_of = {m: i for i, m in enumerate(masks)}

    lat = SubgroupLattice(G, subs, index_of, [], [])
    # conjugation orbits
    conj_class = [-1] * len(subs)
    class_reps = []
    for i, m in enumerate(masks):
        if conj_class[i] >= 0:
            continue
        cid = len(class_reps)
        class_reps.append(i)
        orbit = {m}
        stack = [m]
        while stack:
            cur = stack.pop()
            for g in range(G.order):
                cm = lat.conjugate_mask(cur, g)
                if cm not in orbit:
                    orbit.add(cm)
                    stack.append(cm)
        for om in orbit:
            conj_class[index_of[om]] = cid
    lat.conj_class = conj_class
    lat.class_reps = class_reps
    return lat


def _normal_classes(lat: SubgroupLattice) -> set[int]:
    """Classes with a single member: a subgroup is normal iff its
    conjugacy class has size one."""
    return {c for c, size in Counter(lat.conj_class).items() if size == 1}


def normal_subgroups(G: Group) -> list[Subgroup]:
    """Conjugation-invariant subgroups, in canonical lattice order."""
    lat = enumerate_subgroups(G)
    normal = _normal_classes(lat)
    return [S for S, c in zip(lat.subgroups, lat.conj_class) if c in normal]


def is_normal_in(lat: SubgroupLattice, i: int) -> bool:
    return lat.conj_class[i] in _normal_classes(lat)


def count_complements(G: Group, Z: Subgroup) -> int:
    """Number of subgroups H with H.Z = G and H n Z = 1."""
    lat = enumerate_subgroups(G)
    zmask = Z.mask
    zorder = Z.order
    n = G.order
    cnt = 0
    for S in lat.subgroups:
        if S.mask & zmask == 1 and S.order * zorder == n:
            # |SZ| = |S||Z|/|S n Z| = |G| and trivial intersection => SZ = G
            cnt += 1
    return cnt


def m_constant(lat: SubgroupLattice, L: Subgroup, N: Subgroup) -> Fraction:
    """m_{L,N} = (1/|L|) sum over X <= L with XN = L of |X| mu(X, L).

    L and N are subgroups of the lattice's parent with N normal in L.
    """
    li = lat.index(L)
    lmask = L.mask
    nmask = N.mask
    lorder = L.order
    norder = N.order
    if nmask & lmask != nmask:
        raise GroupError("N must be contained in L")
    total = 0
    for j, X in enumerate(lat.subgroups):
        if X.mask & lmask != X.mask:
            continue
        inter = (X.mask & nmask).bit_count()
        if X.order * norder != lorder * inter:  # |XN| != |L|
            continue
        mu = lat.moebius(j, li)
        if mu:
            total += X.order * mu
    return Fraction(total, lorder)


def m_const(G: Group, N: Subgroup) -> Fraction:
    """m_{G,N} for a normal subgroup N of G."""
    lat = enumerate_subgroups(G)
    if N.parent != G:
        raise GroupError("N must be a subgroup of G")
    i = lat.index_of.get(N.mask)
    if i is None or not is_normal_in(lat, i):
        raise GroupError("N is not normal in G")
    return m_constant(lat, lat.subgroups[-1], N)
