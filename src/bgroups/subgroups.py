"""Subgroup lattices: enumeration, conjugacy classes, Moebius function,
table of marks, normal subgroups and complement counts.

The lattice is the workhorse for every idempotent and m-constant formula;
the table of marks doubles as an independent oracle for Burnside-ring
identities.  Subgroup sets are bitmask ints, which keeps closure and
containment tests cheap at desk scale.

Enumeration is bottom-up cyclic extension (Neubüser 1960), from the trivial
subgroup, of one member h of each conjugacy class: a join that finds a new
subgroup records its whole orbit under the non-central elements of the
group's generating sequence (`groups.center_mask`) and queues that subgroup
alone, so S5 takes 866 coset joins rather than 7,944, and an abelian group
extends every subgroup and walks no orbit.  No subgroup is missed: each
conjugate of K = <M, a>, M maximal in K, is a join of the extended member
of M's class (`enumerate_subgroups`).  Each h is joined with every cyclic
subgroup <a>.  A join is skipped when a lies in h or in an overgroup of
prime index that h already produced, since by Lagrange no subgroup lies
strictly between them.  When a is central, the join is the union of the
cosets a^i·h, |K| table lookups.  Any other join is grown by whole cosets
x·h from the generators recorded for h and a, with closure checked on the
coset representatives only (Dimino's algorithm, Butler 1991), and is G as
soon as it outgrows |G|/p, p the least prime dividing |G|.  The normal
subgroups are the classes of size one (`groups.is_normal` tests one subgroup
without a lattice).  Marks come from containment counts (Pfeiffer 1997),
with |N_G(Y)| read off the class size of Y, and are kept by column, nonzero
entries only, each column packed as a tuple of classes and a tuple of marks.
The idempotent and m-constant sums over X <= L walk the Moebius column of
L, which keeps only the X with mu(X, L) != 0.  The lattice keeps the
m-constants and Glück's idempotent e_L per class (filled by
`burnside.gluck_idempotent`); a column walked only for an idempotent is not
kept.
Enumeration takes no size limit and keeps one lattice per interned table,
shared by equal groups; a caller that must bound the work (the CLI's
--max-order) checks the group order before asking for it.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import (
    Group,
    GroupError,
    Subgroup,
    _is_prime,
    _trusted,
    center_mask,
    conjugate_mask,
    elements_of,
    is_normal,
    mask_of,
)


class SubgroupLattice:
    def __init__(self, parent: Group, subgroups: list[Subgroup], index_of: dict[int, int],
                 conj_class: list[int], class_reps: list[int], class_sizes: list[int]):
        self.parent = parent
        self.subgroups = subgroups  # sorted by (order, mask)
        self.index_of = index_of  # mask -> position
        self.conj_class = conj_class  # class id per subgroup
        self.class_reps = class_reps  # subgroup index of each class representative
        self.class_sizes = class_sizes  # number of subgroups in each class; 1: normal
        self._mu_columns: dict[int, dict[int, int]] = {}
        self._m_constants: dict[tuple[int, int], Fraction] = {}  # (L, N) masks
        self._mark_columns: list[tuple[tuple[int, ...], tuple[int, ...]]] | None = None
        self._idempotents: dict = {}  # class -> e_L, filled by burnside

    def __len__(self) -> int:
        return len(self.subgroups)

    def index(self, S: Subgroup) -> int:
        """The position of S, which must be a subgroup of this lattice's
        group: a mask alone could name a subgroup of another group."""
        i = self.index_of.get(S.mask) if S.parent == self.parent else None
        if i is None:
            raise GroupError("subgroup does not belong to this lattice")
        return i

    def class_of(self, S: Subgroup) -> int:
        return self.conj_class[self.index(S)]

    def class_rep(self, c: int) -> Subgroup:
        return self.subgroups[self.class_reps[c]]

    def n_classes(self) -> int:
        return len(self.class_reps)

    def normalizer_order(self, i: int) -> int:
        """|N_G(X_i)| = |G| / (size of the conjugacy class of X_i)."""
        return self.parent.order // self.class_sizes[self.conj_class[i]]

    # -- Moebius ------------------------------------------------------------

    def moebius_column(self, j: int, keep: bool = True) -> dict[int, int]:
        """{i: mu(X_i, X_j)} for the X_i <= X_j with mu != 0:
        mu(X_i, X_j) = -sum of mu(Z, X_j) over X_i < Z <= X_j, and each such Z
        comes after X_i in (order, mask), so it is known by then.  The terms
        left out are zero, as most are (P. Hall 1936).  A column is kept once
        built, unless `keep` is false: a caller that keeps what it derives
        from the column passes that.  A kept column is returned either way."""
        col = self._mu_columns.get(j)
        if col is None:
            subs = self.subgroups
            mj = subs[j].mask
            col = {j: 1}
            for i in range(j - 1, -1, -1):
                mi = subs[i].mask
                if mi & mj == mi:
                    mu = -sum(m for z, m in col.items() if subs[z].mask & mi == mi)
                    if mu:
                        col[i] = mu
            if keep:
                self._mu_columns[j] = col
        return col

    def moebius(self, i: int, j: int) -> int:
        """mu(X_i, X_j) in the subgroup poset; 0 unless X_i <= X_j."""
        return self.moebius_column(j).get(i, 0)

    # -- marks --------------------------------------------------------------

    def mark_columns(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per class y, the classes x with a nonzero marks[x][y], by
        increasing x, and those marks: two tuples, whose last entries are y
        and the diagonal marks[y][y].

        X fixes gY exactly when X <= gYg^-1, and each conjugate of Y is
        gYg^-1 for |N_G(Y)|/|Y| cosets gY, so
        marks[cX][cY] = |N_G(Y)|/|Y| · #{Y' ~ Y : X <= Y'}.
        """
        if self._mark_columns is None:
            per_conjugate = [self.normalizer_order(r) // self.subgroups[r].order
                             for r in self.class_reps]  # |N_G(Y)|/|Y|
            masks = [S.mask for S in self.subgroups]
            xs: list[list[int]] = [[] for _ in self.class_reps]
            ms: list[list[int]] = [[] for _ in self.class_reps]
            for x, r in enumerate(self.class_reps):
                xm = masks[r]
                count: dict[int, int] = {}
                # a subgroup containing X comes at or after X in (order, mask)
                for m, cy in zip(masks[r:], self.conj_class[r:]):
                    if m & xm == xm:
                        count[cy] = count.get(cy, 0) + 1
                for cy, cnt in count.items():
                    xs[cy].append(x)
                    ms[cy].append(cnt * per_conjugate[cy])
            self._mark_columns = [(tuple(x), tuple(m)) for x, m in zip(xs, ms)]
        return self._mark_columns

    def marks(self) -> list[list[int]]:
        """marks[cX][cY] = number of fixed points of X on G/Y (class reps):
        a new dense table, rendered from `mark_columns`."""
        n = len(self.class_reps)
        M = [[0] * n for _ in range(n)]
        for y, (xs, ms) in enumerate(self.mark_columns()):
            for x, m in zip(xs, ms):
                M[x][y] = m
        return M


def _cyclic_generators(G: Group) -> list[int]:
    """The least generator of each cyclic subgroup, by the subgroup's mask."""
    out: dict[int, int] = {}
    for a in range(G.order):
        elems = [0]
        x = a
        while x != 0:
            elems.append(x)
            x = G.table[x][a]
        out.setdefault(mask_of(elems), a)
    return [a for _, a in sorted(out.items())]


def _coset_join(t, h: int, helems: list[int], rows: list, limit: int) -> int:
    """The mask of the subgroup <h, a>, where `rows` are the Cayley-table
    rows of the generators h was closed from followed by a's row (Dimino's
    algorithm; Butler 1991).  The join is grown as a union of whole
    cosets x·h, |h| lookups each, and closure is checked on the coset
    representatives r only: a union of cosets that holds s·r for every
    generator s and representative r holds s·(r·y) = (s·r)·y too.  A union
    of more than `limit` = |G|/(p·|h|) cosets, p the least prime dividing
    |G|, lies in no proper subgroup (Lagrange), so G's mask is returned."""
    joined, reps = h, [0]
    for r in reps:  # reps grows as it is read
        for row in rows:
            x = row[r]
            if not (joined >> x) & 1:
                xrow = t[x]
                for y in helems:
                    joined |= 1 << xrow[y]
                reps.append(x)
                if len(reps) > limit:
                    return (1 << len(t)) - 1
    return joined


def enumerate_subgroups(G: Group) -> SubgroupLattice:
    """All subgroups by bottom-up cyclic extension, with conjugacy classes.

    The queue starts at the trivial subgroup.  A subgroup first found by a
    join has its whole orbit under conjugation by the generators outside
    the centre (`center_mask`) recorded, and only it is queued to be
    extended.  That finds every subgroup: K != 1 is <M, a> for a maximal
    M < K and any a in K outside M.  If h = g^-1 M g is the member of M's
    class that was extended, then g^-1 K g = <h, g^-1 a g> is one of h's
    joins, so K's orbit is recorded.
    Each extended h is joined with each cyclic subgroup <a> (least
    generator a) by one of two exact rules, after a skip.  `covered` starts
    at h and gains every join K of prime index over h:
    - a in `covered` skips the join: it is h, or a prime-index K that h
      already produced, since by Lagrange nothing lies strictly between h
      and such a K, and <a> <= K exactly when a is in K;
    - a central makes the join the union of the cosets a^i·h for i < k, k
      the least power with a^k in h: |K| table lookups;
    - any other join is `_coset_join`: whole cosets x·h, closure checked on
      their representatives, and G as soon as the cosets outnumber
      |G|/(p·|h|), p the least prime dividing |G|.
    The classes are the orbits, numbered by first member in (order, mask).
    Built once per interned table; the generators each extended subgroup
    was closed from are dropped when the enumeration ends.
    """
    if G._t.lattice is not None:
        return G._t.lattice
    t = G.table
    center = center_mask(G)
    conjugators = [g for g in G.generating_sequence() if not (center >> g) & 1]
    orbit_of = {1: 0}  # every subgroup found -> its orbit, the trivial one first
    sizes = [1]  # per orbit
    queue: list[tuple[int, tuple[int, ...]]] = [(1, ())]  # (extended member, generators)
    full = (1 << G.order) - 1
    cyclic = _cyclic_generators(G)
    primes = {p for p in range(2, G.order + 1) if G.order % p == 0 and _is_prime(p)}
    bound = G.order // min(primes, default=1)  # a larger subgroup is G
    for h, hgens in queue:  # queue grows as it is read
        if h == full:
            continue
        order, helems, covered = h.bit_count(), elements_of(h), h
        hrows = [t[s] for s in hgens]
        limit = bound // order  # more cosets of h than this make G
        for a in cyclic:
            if (covered >> a) & 1:
                continue
            if (center >> a) & 1:
                joined, x = h, a  # K is the union of the cosets a^i·h
                while not (h >> x) & 1:
                    row = t[x]
                    for y in helems:
                        joined |= 1 << row[y]
                    x = row[a]
            else:
                joined = _coset_join(t, h, helems, hrows + [t[a]], limit)
            if joined.bit_count() // order in primes:
                covered |= joined
            if joined not in orbit_of:  # record its orbit, queue it alone
                orbit_of[joined] = len(sizes)
                orbit = [joined]
                for cur in orbit:  # orbit grows as it is read
                    for g in conjugators:
                        cm = conjugate_mask(G, cur, g)
                        if cm not in orbit_of:
                            orbit_of[cm] = len(sizes)
                            orbit.append(cm)
                sizes.append(len(orbit))
                queue.append((joined, hgens + (a,)))
    masks = sorted(orbit_of, key=lambda m: (m.bit_count(), m))
    subs = [_trusted(Subgroup, G, m) for m in masks]
    index_of = {m: i for i, m in enumerate(masks)}
    lat = SubgroupLattice(G, subs, index_of, [], [], [])
    class_of_orbit: dict[int, int] = {}
    for i, m in enumerate(masks):
        o = orbit_of[m]
        if o not in class_of_orbit:
            class_of_orbit[o] = len(lat.class_reps)
            lat.class_reps.append(i)
            lat.class_sizes.append(sizes[o])
        lat.conj_class.append(class_of_orbit[o])
    G._t.lattice = lat
    return lat


def normal_subgroups(G: Group) -> list[Subgroup]:
    """Conjugation-invariant subgroups, in canonical lattice order."""
    lat = enumerate_subgroups(G)
    sizes = lat.class_sizes
    return [S for S, c in zip(lat.subgroups, lat.conj_class) if sizes[c] == 1]


def count_complements(G: Group, Z: Subgroup) -> int:
    """Number of subgroups H with H.Z = G and H n Z = 1."""
    if Z.parent != G:
        raise GroupError("Z must be a subgroup of G")
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

    The one place that checks that L and N are subgroups of the lattice's
    group, N <= L, and N is normal in L, in that order; each value is kept
    per lattice by the two masks, so normality is checked on a miss only.
    """
    if L.parent != lat.parent or N.parent != lat.parent:
        raise GroupError("L and N must be subgroups of the lattice's group")
    nmask = N.mask
    if nmask & L.mask != nmask:
        raise GroupError("N must be contained in L")
    key = (L.mask, nmask)
    m = lat._m_constants.get(key)
    if m is None:
        if not is_normal(N, L):
            raise GroupError("N must be normal in L")
        lorder, norder = L.order, N.order
        total = 0
        for j, mu in lat.moebius_column(lat.index(L)).items():
            X = lat.subgroups[j]
            if X.order * norder == lorder * (X.mask & nmask).bit_count():  # |XN| = |L|
                total += X.order * mu
        m = lat._m_constants[key] = Fraction(total, lorder)
    return m


def m_const(G: Group, N: Subgroup) -> Fraction:
    """m_{G,N} for a normal subgroup N of G, checked by `m_constant`."""
    lat = enumerate_subgroups(G)
    return m_constant(lat, lat.subgroups[-1], N)
