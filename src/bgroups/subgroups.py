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
alone, and an abelian group extends every subgroup and walks no orbit.  No
subgroup is missed: each conjugate of K = <M, a>, M maximal in K, is a join
of the extended member of M's class (`enumerate_subgroups`).  Each h is
joined with the cyclic subgroups <a> whose join it cannot already name: a
in a found cover K of h (|K:h| prime) gives K by Lagrange, and
<h, x·a·x^-1> = x<h, a>x^-1 = <h, a> for x in h, so S5 takes 288 coset
joins (866 without these skips, 7,944 extending all 156 subgroups).  When a
is central, the join is the union of the cosets a^i·h, |K| lookups.  Any
other join is grown by whole cosets x·h from the generators recorded for h
and a, with closure checked on the coset representatives only (Dimino's
algorithm, Butler 1991), and is G as soon as it outgrows |G|/p, p the least
prime dividing |G|.  The normal subgroups are the classes of size one
(`groups.is_normal` tests one subgroup without a lattice).  Marks come from
containment counts (Pfeiffer 1997), one column per class y, built when a
caller first reads it and kept: one pass over the down-set of Y's
representative counts the conjugates X' of each class x inside Y, and
counting the pairs (X' ~ X, Y' ~ Y, X' <= Y') two ways turns that into
marks[x][y] = |G| · count_x / (|Y| · |class x|), with no walk over the
conjugates of Y.  A column keeps its nonzero entries only, packed as a
tuple of classes and a tuple of marks.  The idempotent and m-constant sums
over X <= L walk the Moebius column of L, which keeps only the X with
mu(X, L) != 0, and is P. Hall's closed form when |L| is a prime power.  The
lattice keeps the m-constants, Glück's idempotent e_L per class (filled
by `burnside.gluck_idempotent`) and one Fraction per coefficient value of
the Burnside elements over its group (filled by `BurnsideElement.coeffs`);
a column walked only for an idempotent is not kept.
Enumeration takes no size limit and keeps one lattice per interned table,
over the table's own group, shared by equal groups; a caller that must
bound the work (the CLI's --max-order) checks the group order before
asking for it.
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
        self.index_of = index_of  # mask -> position, in lattice order
        self.conj_class = conj_class  # class id per subgroup
        self.class_reps = class_reps  # subgroup index of each class representative
        self.class_sizes = class_sizes  # number of subgroups in each class; 1: normal
        self._mu_columns: dict[int, dict[int, int]] = {}
        self._m_constants: dict[tuple[int, int], Fraction] = {}  # (L, N) masks
        self._mark_columns: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._idempotents: dict = {}  # class -> e_L, filled by burnside
        self._values: dict = {}  # den -> {num -> Fraction}, one object per value, filled by burnside

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
        """{i: mu(X_i, X_j)} for the X_i <= X_j with mu != 0.  If |X_j| = p^n,
        by P. Hall's closed form ("The Eulerian functions of a group",
        Quart. J. Math. 7, 1936): mu(X_i, X_j) = (-1)^k p^(k(k-1)/2) for
        |X_j : X_i| = p^k if X_i contains the Frattini subgroup, the AND of
        the subgroups of index p, and 0 otherwise.  Else by the recursion
        mu(X_i, X_j) = -sum of mu(Z, X_j) over X_i < Z <= X_j, each such Z
        coming after X_i in (order, mask), so known by then.  A column is
        kept once built, unless `keep` is false: a caller that keeps what it
        derives from the column passes that.  A kept column is returned
        either way."""
        col = self._mu_columns.get(j)
        if col is None:
            subs = self.subgroups
            mj = subs[j].mask
            col = {j: 1}
            n, p = mj.bit_count(), 2
            while p < n and n % p:  # the least prime factor of n > 1
                p += 1
            hall, index, mu = {}, 1, 1  # mu by index p^k, up to n
            while index < n:
                index, mu = index * p, -mu * index
                hall[index] = mu
            if index == n > 1:  # n is a power of p
                # down (order, mask), the subgroups of index p, whose AND is
                # the Frattini subgroup phi, come before every smaller X_i
                phi = mj
                for i in range(j - 1, -1, -1):
                    mi = subs[i].mask
                    if mi & mj == mi:
                        if mi.bit_count() * p == n:
                            phi &= mi
                        if mi & phi == phi:
                            col[i] = hall[n // mi.bit_count()]
            else:
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

    def mark_column(self, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The classes x with a nonzero marks[x][y], by increasing x, and
        those marks: two tuples, whose last entries are y and the diagonal
        marks[y][y].  Built on first read and kept per class.

        X fixes gY exactly when X <= gYg^-1.  Counting the pairs
        (X' ~ X, Y' ~ Y) with X' <= Y' two ways, |class x| ·
        #{Y' ~ Y : X <= Y'} = |class y| · count_x, where count_x is the
        number of conjugates of X inside Y itself, so
        marks[x][y] = |N_G(Y)|/|Y| · #{Y' ~ Y : X <= Y'}
                    = |G| · count_x / (|Y| · |class x|),
        an exact integer.  The counts come from one pass over Y's down-set:
        the subgroups up to Y's representative in (order, mask).
        """
        col = self._mark_columns.get(y)
        if col is None:
            r = self.class_reps[y]
            ym = self.subgroups[r].mask
            count: dict[int, int] = {}
            # index_of lists the masks in (order, mask); Y's subgroups come
            # at or before Y
            for m, cx in zip(self.index_of, self.conj_class[:r + 1]):
                if m & ym == m:
                    count[cx] = count.get(cx, 0) + 1
            xs = tuple(sorted(count))
            per = self.parent.order // ym.bit_count()  # |G:Y|
            sizes = self.class_sizes
            col = self._mark_columns[y] = (
                xs, tuple(per * count[x] // sizes[x] for x in xs))
        return col

    def marks(self) -> list[list[int]]:
        """marks[cX][cY] = number of fixed points of X on G/Y (class reps):
        a new dense table, rendered column by column from `mark_column`."""
        n = len(self.class_reps)
        M = [[0] * n for _ in range(n)]
        for y in range(n):
            for x, m in zip(*self.mark_column(y)):
                M[x][y] = m
        return M


def _cyclic_generators(G: Group) -> list[int]:
    """Each element g's least generator: the least a with <a> = <g>."""
    least: dict[int, int] = {}  # cyclic subgroup mask -> least generator
    cyclic = []
    for a in range(G.order):
        elems, x = [0], a
        while x != 0:
            elems.append(x)
            x = G.table[x][a]
        cyclic.append(mask_of(elems))
        least.setdefault(cyclic[-1], a)
    return [least[m] for m in cyclic]


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
    Each extended h is joined with the cyclic subgroups <a>, a in `todo`,
    the least generators (`_cyclic_generators`) outside `covered`.  Two
    skips leave out joins whose result is known, and change nothing found:
    - known covers: `covered` holds h, every found cover K of h (K >= h of
      prime index over h) and each join of prime index over h.  For a in K
      outside h, h < <h, a> <= K, so <h, a> = K by Lagrange.  The found
      subgroups of each order are numbered as found; per order and least
      generator, a mask holds the numbers of those that contain it, so the
      AND over h's recorded generators names those that contain h;
    - h-conjugates: after a non-central join of h with a, the least
      generator of <x·a·x^-1> for each x in h leaves `todo`, since
      <h, x·a·x^-1> = x<h, a>x^-1 = <h, a> as x lies in <h, a>.
    S5 then takes 288 coset joins, S4xC4 736 and S4xC2 251 (866, 1,746
    and 573 without the skips), and C2^6 2,824 central joins, one per
    subgroup found, instead of 23,562.  A join left to make is exact:
    - a central makes the join the union of the cosets a^i·h for i < k, k
      the least power with a^k in h: |K| table lookups;
    - any other join is `_coset_join`: whole cosets x·h, closure checked on
      their representatives, and G as soon as the cosets outnumber
      |G|/(p·|h|), p the least prime dividing |G|.
    The classes are the orbits, numbered by first member in (order, mask).
    Built once per interned table, over its own group; the generators each
    extended subgroup was closed from, and the masks, are dropped when the
    enumeration ends.
    """
    if G._t.lattice is None:
        G._t.lattice = _enumerate(G._t.group)
    return G._t.lattice


def _enumerate(G: Group) -> SubgroupLattice:
    """`enumerate_subgroups` on a cache miss, kept apart so that a cache hit
    creates none of the closure cells this body needs."""
    t, inv = G.table, G.inverse
    center = center_mask(G)
    conjugators = [g for g in G.generating_sequence() if not (center >> g) & 1]
    least = _cyclic_generators(G)
    gens = mask_of(least) ^ 1  # the least generators but the identity
    orbit_of: dict[int, int] = {}  # every subgroup found -> its orbit
    by_order: dict[int, list[int]] = {}  # per order: the subgroups found, numbered
    holding: dict[int, list[int]] = {}  # per order and least generator: a mask of those holding it

    def record(m: int, orbit: int) -> None:
        n = m.bit_count()
        if n not in by_order:
            by_order[n], holding[n] = [], [0] * G.order
        found, per = by_order[n], holding[n]
        bit = 1 << len(found)
        found.append(m)
        orbit_of[m] = orbit
        m &= gens
        while m:
            g = m.bit_length() - 1
            m ^= 1 << g
            per[g] |= bit

    record(1, 0)
    sizes = [1]  # per orbit
    queue: list[tuple[int, tuple[int, ...]]] = [(1, ())]  # (extended member, generators)
    full = (1 << G.order) - 1
    primes = {p for p in range(2, G.order + 1) if G.order % p == 0 and _is_prime(p)}
    bound = G.order // min(primes, default=1)  # a larger subgroup is G
    for h, hgens in queue:  # queue grows as it is read
        if h == full:
            continue
        order, helems, covered = h.bit_count(), elements_of(h), h
        for p in primes:  # OR in the found covers of h
            found = by_order.get(p * order)
            if found:
                per, known = holding[p * order], (1 << len(found)) - 1
                for s in hgens:
                    known &= per[s]
                while known:
                    i = known.bit_length() - 1
                    known ^= 1 << i
                    covered |= found[i]
        hrows = [t[s] for s in hgens]
        limit = bound // order  # more cosets of h than this make G
        todo = gens & ~covered
        while todo:
            low = todo & -todo
            todo ^= low
            a = low.bit_length() - 1
            if (center >> a) & 1:
                joined, x = h, a  # K is the union of the cosets a^i·h
                while not (h >> x) & 1:
                    row = t[x]
                    for y in helems:
                        joined |= 1 << row[y]
                    x = row[a]
            else:
                joined = _coset_join(t, h, helems, hrows + [t[a]], limit)
                # <h, xax^-1> = x<h, a>x^-1 = <h, a> for x in h
                todo &= ~mask_of(least[t[t[x][a]][inv[x]]] for x in helems)
            if joined.bit_count() // order in primes:
                covered |= joined
                todo &= ~covered
            if joined not in orbit_of:  # record its orbit, queue it alone
                o = len(sizes)
                record(joined, o)
                orbit = [joined]
                for cur in orbit:  # orbit grows as it is read
                    for g in conjugators:
                        cm = conjugate_mask(G, cur, g)
                        if cm not in orbit_of:
                            record(cm, o)
                            orbit.append(cm)
                sizes.append(len(orbit))
                queue.append((joined, hgens + (a,)))
    masks = [m for n in sorted(by_order) for m in sorted(by_order[n])]
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
