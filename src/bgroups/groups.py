"""Explicit finite groups given by Cayley tables.

Element ids are integers 0..order-1 and 0 is always the identity.  Each
distinct Cayley table is interned once, as a `_Table`, in one content-keyed
map that holds it for the life of the process; nothing else hashes table
contents.  A `Group` is a `_Table` under a label, so `==` and `hash` mean
"same contents, labels ignored" without reading the table.  The `_Table`
owns what is derived from the table alone: its own group, labelled `T` and
the order, to which every object the library keeps refers; the subgroup
lattice, generating sequence, element orders, over-K word plan, a
transversal of G/Z(G); memos of product and quotient tables and of
inclusion maps (one per subgroup mask); and the labelled groups that the
public constructors return, one per label.
Homomorphisms, subgroups and products are immutable values (`_Value`): their
fields are read-only, and `==`, `hash` and `repr` go by the fields.  What
a value determines and keeps outside its fields takes no part in them:
a `Subgroup` is slotted and keeps its member tuple (`members()`, filled on
first use); a `Homomorphism` keeps its number of distinct images, counted
once for `is_injective`, `is_surjective` and `is_bijective`, the biset
class maps of `burnside` and its shifted maps f x Id_K.

A construction from parameters (cyclic, cyclic extension, symmetric,
product, semidirect, permutation closure) refuses a group over
MAX_GROUP_ORDER before it builds the table.  Values are checked where they
enter: a direct `Group(...)`,
`Homomorphism(...)` or `Subgroup(...)` call checks its input in full.  Both
laws are checked exactly on a generating sequence only: associativity by
Light's test, and the homomorphism law by `_is_hom`.  One greedy walk,
`greedy_generators`, chooses the generating sequence of a group, checks a
subgroup mask by closing the generators it chooses inside it (or, once the
table has its lattice, by looking the mask up there), and gives the CLI's
class labels their generator words, and `is_normal`, the one
normality test, conjugates by those generators only; `center_mask` tests
commuting with them only.  Every value this library derives from checked
values (products, quotients, subgroups, kernels, compositions, named groups)
is built by `_group` or `_trusted` without a second check.
Masks are ints over element ids; `mask_of` and `elements_of` convert.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm
from operator import attrgetter


class GroupError(ValueError):
    """Raised when a construction precondition fails."""


class ResourceLimit(GroupError):
    """Raised when a computation would pass one of its size limits."""


MAX_GROUP_ORDER = 2048  # the largest group a construction builds a table for
MAX_PERM_DEGREE = 2048  # the most points a permutation group is built on


def _check_order(order: int, text: str | None = None) -> None:
    """Refuse, before its table is built, a group of this order (written as
    `text` when given) over MAX_GROUP_ORDER."""
    if order > MAX_GROUP_ORDER:
        raise ResourceLimit(
            f"group order {text or order} exceeds construction limit {MAX_GROUP_ORDER}")


def _check_degree(n: int) -> None:
    """Refuse, before any point list is built, a permutation group on more
    than MAX_PERM_DEGREE points."""
    if n > MAX_PERM_DEGREE:
        raise ResourceLimit(
            f"permutation degree {n} exceeds construction limit {MAX_PERM_DEGREE}")


_setattr = object.__setattr__  # past the read-only __setattr__ of a Group or a _Value


class _Value:
    """An immutable value with the fields named in its class's `_fields`:
    they are set once, by `__init__` or `_trusted`, and read-only after.
    Two values are equal when they are of one class with equal fields, the
    hash is that of the fields, and the repr lists them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def _trusted(cls, *fields):
    """A `cls` value built from `fields` without running its checks; only
    for values derived from values that were already checked.  The fields
    are set one at a time: filling the instance `__dict__` in one update
    would make it a real dict, which is larger and slower to read."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        _setattr(obj, name, value)
    return obj


class _Table:
    """One distinct Cayley table with the data derived from it alone."""

    __slots__ = ("order", "table", "inverse", "group", "lattice", "gens", "orders", "word_plan",
                 "transversal", "groups", "products", "embeddings", "quotients")

    def __init__(self, table, inverse):
        self.order, self.table, self.inverse = len(table), table, inverse
        self.group = self.lattice = self.gens = self.orders = self.word_plan = self.transversal = None
        self.groups = {}  # label -> the Group on this table under it
        self.products = {}  # other factor's _Table -> (product _Table, maps)
        self.embeddings = {}  # subgroup mask -> inclusion map
        self.quotients = {}  # normal subgroup mask -> (quotient _Table, cosets)


_TABLES: dict[tuple[tuple[int, ...], ...], _Table] = {}


def _intern(table) -> _Table:
    """The one `_Table` with these contents, made on first sight together
    with its own group, labelled `T` and the order."""
    t = _TABLES.get(table)
    if t is None:
        t = _TABLES[table] = _Table(table, tuple(row.index(0) for row in table))
        t.group = _group(t, f"T{t.order}", object.__new__(Group))
    return t


class Group:
    """A finite group: an interned `_Table` under a label.  `order`, `table`
    and `inverse` are the `_Table`'s own objects."""

    __slots__ = ("_t", "order", "table", "inverse", "label")

    def __init__(self, order: int, table, inverse, label: str = "G"):
        table = tuple(map(tuple, table))
        # check on a table of its own, then take the interned one
        _group(_Table(table, tuple(inverse)), label, self)._validate(order)
        _group(_intern(table), label, self)

    def _validate(self, n: int) -> None:
        t, inv = self.table, self.inverse
        if n < 1 or len(t) != n or len(inv) != n or any(len(row) != n for row in t):
            raise GroupError("malformed Cayley table")
        if not all(0 <= x < n for row in (*t, inv) for x in row):
            raise GroupError("element id out of range")
        for x in range(n):
            if t[0][x] != x or t[x][0] != x:
                raise GroupError("identity law fails at element %d" % x)
            if t[x][inv[x]] != 0:
                raise GroupError("inverse law fails at element %d" % x)
        # Light's test: the elements a with (xa)y = x(ay) for all x, y are
        # closed under the product, so checking a generating sequence is exact.
        for a in self.generating_sequence():
            ta = t[a]
            for x in range(n):
                row, tx = t[t[x][a]], t[x]
                for y in range(n):
                    if row[y] != tx[ta[y]]:
                        raise GroupError("associativity fails at (%d,%d,%d)" % (x, a, y))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self):
        return hash(self._t)

    def __eq__(self, other):
        return isinstance(other, Group) and self._t is other._t

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inverse[g]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def element_orders(self) -> tuple[int, ...]:
        if self._t.orders is None:
            self._t.orders = tuple(self.element_order(a) for a in range(self.order))
        return self._t.orders

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(a)
        )

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders()

    def exponent(self) -> int:
        return lcm(*self.element_orders())

    def generating_sequence(self) -> tuple[int, ...]:
        """Deterministic (greedy, smallest-id-first) generating sequence."""
        if self._t.gens is None:
            self._t.gens = greedy_generators(self, (1 << self.order) - 1)
        return self._t.gens

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"


def _group(t: _Table, label: str, G: Group | None = None) -> Group:
    """The Group on the table t under this label, built without a check:
    the one kept in `t.groups`, made on first use, so every group a public
    constructor derives with this table and label is one object; or G, a
    new object filled in and not kept (the checked constructor's own, or
    the table's own group)."""
    if G is None:
        G = t.groups.get(label)
        if G is not None:
            return G
        G = t.groups[label] = object.__new__(Group)
    for name, value in zip(Group.__slots__, (t, t.order, t.table, t.inverse, label)):
        _setattr(G, name, value)
    return G


class Homomorphism(_Value):
    """A map of groups given by the image of each source element.

    `_biset`, `_shifted` and `_image_size` are not fields: `_biset` holds
    this map's class map, from each source subgroup class to the class of
    its image, which `burnside._class_map` fills whole when one of the five
    biset operations first needs it; `_shifted` the maps f x Id_K that `burnside.shift_hom`
    built, by K's table; and `_image_size` the number of distinct
    images, counted on the first injectivity or surjectivity test.  So they
    take no part in `==`, `hash` or `repr`."""

    _fields = ("source", "target", "image")
    _biset = _shifted = _image_size = None

    def __init__(self, source: Group, target: Group, image: tuple[int, ...]):
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "image", image)
        self._validate()

    def _validate(self) -> None:
        if len(self.image) != self.source.order:
            raise GroupError("image array has wrong length")
        if not all(0 <= v < self.target.order for v in self.image):
            raise GroupError("image element out of range")
        t = self.target.table
        if not _is_hom(self.source, self.image, lambda u, v: t[u][v]):
            raise GroupError("map is not a homomorphism")

    def __call__(self, a: int) -> int:
        return self.image[a]

    def _image_order(self) -> int:
        if self._image_size is None:
            _setattr(self, "_image_size", len(set(self.image)))
        return self._image_size

    def is_injective(self) -> bool:
        return self._image_order() == self.source.order

    def is_surjective(self) -> bool:
        return self._image_order() == self.target.order

    def is_bijective(self) -> bool:
        return self.is_injective() and self.source.order == self.target.order

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self o inner."""
        if inner.target != self.source:
            raise GroupError("composition mismatch")
        image = tuple(self.image[x] for x in inner.image)
        return _trusted(Homomorphism, inner.source, self.target, image)

    def inverse_map(self) -> "Homomorphism":
        if not self.is_bijective():
            raise GroupError("not an isomorphism")
        inv = [0] * self.target.order
        for a, b in enumerate(self.image):
            inv[b] = a
        return _trusted(Homomorphism, self.target, self.source, tuple(inv))


class Subgroup(_Value):
    """A subgroup of `parent`, given by a bit mask over its element ids.

    `_members` is a slot but not a field: the member tuple, filled by
    `members()` on first use, so it takes no part in `==`, `hash` or
    `repr`."""

    _fields = ("parent", "mask")  # mask: bitset over parent element ids
    __slots__ = (*_fields, "_members")

    def __init__(self, parent: Group, mask: int):
        _setattr(self, "parent", parent)
        _setattr(self, "mask", mask)
        self._validate()

    def _validate(self) -> None:
        m, G = self.mask, self.parent
        if not m & 1:
            raise GroupError("subgroup must contain the identity")
        if m >> G.order:
            raise GroupError("mask has elements outside the parent")
        if G._t.lattice is None:  # no lattice is built just for this check
            greedy_generators(G, m)
        elif m not in G._t.lattice.index_of:  # exact: the lattice lists every subgroup
            raise GroupError(_NOT_CLOSED)

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        """The member ids, ascending, as the tuple kept on this subgroup."""
        try:
            return self._members
        except AttributeError:
            _setattr(self, "_members", tuple(elements_of(self.mask)))
            return self._members

    def elements(self) -> list[int]:
        """The member ids, ascending, in a new list."""
        return list(self.members())

    def __contains__(self, a: int) -> bool:
        return bool((self.mask >> a) & 1)

    def __le__(self, other: "Subgroup") -> bool:
        return self.mask & other.mask == self.mask

    def is_trivial(self) -> bool:
        return self.mask == 1

    def is_full(self) -> bool:
        return self.order == self.parent.order

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"


def _is_hom(G: Group, f, mul) -> bool:
    """f(1) = mul(f(1), f(1)) and f(x·g) = mul(f(x), f(g)) for every x in G
    and g in G's generating sequence.  Exact for a group law `mul`: f(1) is
    then the identity, and each y in G is a word g1…gk in the generators, so
    f(x·y) = f(x)·f(g1)…f(gk) = f(x)·f(y) by induction on k."""
    t = G.table
    return f[0] == mul(f[0], f[0]) and all(
        f[t[x][g]] == mul(f[x], f[g]) for g in G.generating_sequence() for x in range(G.order)
    )


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def elements_of(mask: int) -> list[int]:
    """The set bits of a mask, ascending: one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


_NOT_CLOSED = "subset not closed under product"


def greedy_generators(G: Group, mask: int) -> tuple[int, ...]:
    """Greedy generators of the subgroup with this mask, which must contain
    the identity: the least member not yet reached joins the generators, and
    a walk from the identity multiplies on the right by the generators,
    raising at the first product outside the mask.  Each new generator at
    least doubles the subgroup reached, so there are at most log2|S| of them
    and the walk costs O(|S|·log|S|) lookups.  In a finite group the walk
    reaches the subgroup generated, so it ends at the mask exactly when the
    mask is a subgroup."""
    t = G.table
    walk, reached, gens = [0], 1, []
    while reached != mask:
        rest = mask & ~reached
        gens.append((rest & -rest).bit_length() - 1)
        old = len(walk)  # already multiplied by every generator but the new one
        for i, a in enumerate(walk):  # walk grows as it is read
            row = t[a]
            for g in gens if i >= old else gens[-1:]:
                c = row[g]
                if not (reached >> c) & 1:
                    if not (mask >> c) & 1:
                        raise GroupError(_NOT_CLOSED)
                    reached |= 1 << c
                    walk.append(c)
    return tuple(gens)


def close_subset(G: Group, elements) -> set[int]:
    """The subgroup generated by `elements`, as a set of element ids.

    A breadth-first walk from the identity that multiplies on the right by
    each given element.  In a finite group every inverse is a power, so the
    elements reached are exactly the subgroup generated, in
    O(|K|·|elements|) table lookups for a result K.
    """
    t = G.table
    gens = set(elements)
    closed = {0}
    walk = [0]
    for a in walk:  # walk grows as it is read: breadth-first
        row = t[a]
        for g in gens:
            c = row[g]
            if c not in closed:
                closed.add(c)
                walk.append(c)
    return closed


def subgroup_generated(G: Group, gens) -> Subgroup:
    return _trusted(Subgroup, G, mask_of(close_subset(G, gens)))


def trivial_subgroup(G: Group) -> Subgroup:
    return _trusted(Subgroup, G, 1)


def full_subgroup(G: Group) -> Subgroup:
    return _trusted(Subgroup, G, (1 << G.order) - 1)


# ---------------------------------------------------------------------------
# constructions


def relabel(G: Group, label: str) -> Group:
    """G under another label, sharing its `_Table`."""
    return _group(G._t, label)


@lru_cache(maxsize=None)
def make_cyclic(n: int, label: str | None = None) -> Group:
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    _check_order(n)
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return _group(_intern(table), label or f"C{n}")


def trivial_group() -> Group:
    return make_cyclic(1, "1")


class Product(_Value):
    """G x H with its projections and injections; built by `direct_product`."""

    _fields = ("group", "proj1", "proj2", "inj1", "inj2")

    def pair(self, a: int, b: int) -> int:
        return a * self.proj2.target.order + b


def direct_product(G: Group, H: Group) -> Product:
    """G x H with element id (a, b) -> a*|H| + b."""
    n, m = G.order, H.order
    if H._t not in G._t.products:  # the table and maps, once per pair of tables
        _check_order(n * m)
        table = tuple(
            tuple(G.table[a1][a2] * m + H.table[b1][b2] for a2 in range(n) for b2 in range(m))
            for a1 in range(n)
            for b1 in range(m)
        )
        G._t.products[H._t] = _intern(table), (
            tuple(i // m for i in range(n * m)),
            tuple(i % m for i in range(n * m)),
            tuple(a * m for a in range(n)),
            tuple(range(m)),
        )
    t, (p1, p2, i1, i2) = G._t.products[H._t]
    P = _group(t, f"{G.label}x{H.label}")
    return _trusted(
        Product,
        P,
        _trusted(Homomorphism, P, G, p1),
        _trusted(Homomorphism, P, H, p2),
        _trusted(Homomorphism, G, P, i1),
        _trusted(Homomorphism, H, P, i2),
    )


def semidirect_product(N: Group, H: Group, action) -> Group:
    """N semidirect H; action[h] is a permutation of N's elements, and
    h -> action[h] must be a homomorphism H -> Aut(N)."""
    n, m = N.order, H.order
    _check_order(n * m)
    action = tuple(tuple(a) for a in action)
    if len(action) != m:
        raise GroupError("action must assign an automorphism to each element of H")
    for a in action:
        if sorted(a) != list(range(n)):
            raise GroupError("action image is not a permutation")
        if not _is_hom(N, a, lambda u, v: N.table[u][v]):
            raise GroupError("action image is not an automorphism")
    if not _is_hom(H, action, lambda a, b: tuple(a[x] for x in b)):
        raise GroupError("action is not a homomorphism to Aut(N)")
    # (n1,h1)(n2,h2) = (n1 * action[h1](n2), h1 h2); id (a,b) -> a*|H| + b
    table = tuple(
        tuple(
            N.table[a1][action[b1][a2]] * m + H.table[b1][b2]
            for a2 in range(n)
            for b2 in range(m)
        )
        for a1 in range(n)
        for b1 in range(m)
    )
    return _group(_intern(table), f"{N.label}:{H.label}")


def quotient(G: Group, N: Subgroup) -> tuple[Group, Homomorphism]:
    """G/N with canonical projection; cosets ordered by minimal member id."""
    if N.parent != G:
        raise GroupError("N must be a subgroup of G")
    if N.mask not in G._t.quotients:  # the table, once per normal subgroup of a table
        if not is_normal(N):
            raise GroupError("subgroup is not normal")
        t, nelems = G.table, N.members()
        coset_of = [-1] * G.order
        reps: list[int] = []
        for g in range(G.order):
            if coset_of[g] < 0:
                for x in nelems:
                    coset_of[t[g][x]] = len(reps)
                reps.append(g)
        table = tuple(tuple(coset_of[t[a][b]] for b in reps) for a in reps)
        G._t.quotients[N.mask] = _intern(table), tuple(coset_of)
    t, coset_of = G._t.quotients[N.mask]
    Q = _group(t, f"{G.label}/N{N.order}")
    return Q, _trusted(Homomorphism, G, Q, coset_of)


def kernel(f: Homomorphism) -> Subgroup:
    return _trusted(Subgroup, f.source, mask_of(a for a, b in enumerate(f.image) if b == 0))


def image(f: Homomorphism) -> Subgroup:
    return _trusted(Subgroup, f.target, mask_of(set(f.image)))


def conjugate_mask(G: Group, mask: int, g: int) -> int:
    """The mask of g x g^-1 for each x in `mask`."""
    t, gi = G.table, G.inverse[g]
    tg = t[g]
    return mask_of([t[tg[a]][gi] for a in elements_of(mask)])


def center_mask(G: Group) -> int:
    """The mask of Z(G): g is central exactly when it commutes with each
    element of G's generating sequence, because the elements that commute
    with g form a subgroup, the centralizer of g."""
    t, gens = G.table, G.generating_sequence()
    return mask_of(g for g in range(G.order) if all(t[g][s] == t[s][g] for s in gens))


def is_normal(N: Subgroup, L: Subgroup | None = None) -> bool:
    """N normal in L, for N <= L (L defaults to N's parent): gNg^-1 = N for
    each of L's greedy generators g.  Exact, because the g with gNg^-1 = N
    form a subgroup, the normalizer of N."""
    G, m = N.parent, N.mask
    gens = G.generating_sequence() if L is None else greedy_generators(G, L.mask)
    return all(conjugate_mask(G, m, g) == m for g in gens)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461  # the least strong pseudoprime to all of them


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the first 12 prime bases, exact below `_MR_BOUND`
    (Sorenson & Webster 2017); a larger p is refused."""
    if p >= _MR_BOUND:
        raise GroupError(f"p = {p} exceeds the primality-test bound {_MR_BOUND}")
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d·2^s with d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and p - 1 not in (pow(x, 1 << r, p) for r in range(s)):
            return False
    return True


def o_p_subgroup(S: Subgroup, p: int) -> Subgroup:
    """O^p(S), the smallest normal subgroup of S with p-group quotient, as a
    subgroup of S's parent: the closure of S's p'-elements."""
    if not _is_prime(p):
        raise GroupError("p must be prime")
    orders = S.parent.element_orders()
    return subgroup_generated(S.parent, [a for a in elements_of(S.mask) if orders[a] % p])


def inner_automorphisms(K: Group) -> list[Homomorphism]:
    """One conjugation map per element of K, deduplicated (K/Z(K) many)."""
    seen = set()
    out = []
    for g in range(K.order):
        im = tuple(K.conj(a, g) for a in range(K.order))
        if im not in seen:
            seen.add(im)
            out.append(_trusted(Homomorphism, K, K, im))
    return out


def subgroup_embedding(S: Subgroup) -> Homomorphism:
    """Subgroup as a standalone Group; returns the inclusion into the parent.

    Elements are relabelled in increasing parent-id order, so the identity
    keeps id 0.  The map is kept once per subgroup mask on the parent's
    table, so a repeat call, under any parent label, returns the same
    object.  Its source and target are the own groups of the subgroup's
    interned table and of the parent's, and its image is the subgroup's
    member tuple.
    """
    G = S.parent
    f = G._t.embeddings.get(S.mask)
    if f is None:
        elems = S.members()
        back = [0] * G.order  # parent id -> subgroup id, for the members
        for i, e in enumerate(elems):
            back[e] = i
        # rows from lists: a tuple built from a generator starts at 10
        # slots and is shrunk, so the rows `_intern` discards would
        # collect in CPython's per-size tuple free lists, which that
        # path never draws from
        rows = []
        for a in elems:
            row = G.table[a]
            rows.append(tuple([back[row[b]] for b in elems]))
        f = G._t.embeddings[S.mask] = _trusted(
            Homomorphism, _intern(tuple(rows)).group, G._t.group, elems)
    return f


# ---------------------------------------------------------------------------
# named groups used throughout the test corpus and the CLI


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> Group:
    """S_n on {0..n-1} (n >= 0); elements are permutations in lexicographic
    order."""
    if n < 0:
        raise GroupError("S_n needs n >= 0")
    order = 1
    for k in range(2, n + 1):  # stops at the first k! past the limit
        order *= k
        _check_order(order, f"{n}!")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return _group(_intern(table), f"S{n}")


def dihedral_group(n: int) -> Group:
    """Dihedral group of order 2n (n >= 1): C_n with the inverting C_2 on top."""
    return cyclic_extension(n, 0, -1, f"D{2*n}")


@lru_cache(maxsize=None)
def cyclic_extension(n: int, t: int, r: int, label: str | None = None) -> Group:
    """Order-2n group <a, b | a^n, b^2 = a^t, b a b^-1 = a^r>.

    Covers dihedral (t=0, r=-1), dicyclic/quaternion (t=n/2, r=-1),
    semidihedral and modular 2-groups.  Element (i, j) = a^i b^j has
    id 2*i + j.
    """
    if n < 1 or (r * r - 1) % n != 0 or (t * (r - 1)) % n != 0:
        raise GroupError("parameters do not define a group")
    _check_order(2 * n)
    r %= n
    t %= n

    def mul(i, j, k, l):
        # a^i b^j a^k b^l
        if j == 0:
            return (i + k) % n, l
        i2 = (i + r * k) % n
        if l == 0:
            return i2, 1
        return (i2 + t) % n, 0

    ids = [(i, j) for i in range(n) for j in range(2)]
    table = tuple(
        tuple(mul(i, j, k, l)[0] * 2 + mul(i, j, k, l)[1] for (k, l) in ids)
        for (i, j) in ids
    )
    return _group(_intern(table), label or f"E({n},{t},{r})")


def quaternion_group() -> Group:
    return cyclic_extension(4, 2, 3, "Q8")


@lru_cache(maxsize=None)
def alternating_4() -> Group:
    """A4 as (C2 x C2) : C3, the 3-cycle permuting the involutions."""
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    # involutions 1, 2, 3 of V cycle as 1 -> 3 -> 2 -> 1
    ident = (0, 1, 2, 3)
    rho = (0, 3, 1, 2)
    rho2 = tuple(rho[rho[i]] for i in range(4))
    return relabel(semidirect_product(V, make_cyclic(3), (ident, rho, rho2)), "A4")


@lru_cache(maxsize=None)
def dicyclic_3() -> Group:
    """C3 : C4 with the generator of C4 acting by inversion."""
    C3, C4 = make_cyclic(3), make_cyclic(4)
    inv = (0, 2, 1)
    ident = (0, 1, 2)
    return relabel(semidirect_product(C3, C4, (ident, inv, ident, inv)), "C3:C4")


def group_from_permutations(n: int, gens: list[tuple[int, ...]], label: str = "P") -> Group:
    """Group generated by permutations of {0..n-1}, as an explicit table.

    Elements are ordered: identity first, then BFS by generator application,
    ties broken by permutation lexicographic order.  The walk keeps, per
    generator g, the row x -> g·x, where (g·x)(i) = g(x(i)); each element a
    is g·b for the element b it was first reached from, so a's table row is
    b's row sent through g's: |P|·|gens|·n work for the walk and |P|^2 for
    the table.
    """
    if n < 0:
        raise GroupError("a permutation group needs n >= 0 points")
    _check_degree(n)
    ident = tuple(range(n))
    gens = sorted(gens)
    for g in gens:
        if sorted(g) != list(ident):
            raise GroupError("not a permutation of range(n)")
    elems = [ident]
    index = {ident: 0}
    reached: list[tuple[int, int]] = []  # per element after the identity: (generator, element) it came from
    rows: list[list[int]] = [[] for _ in gens]  # rows[k][x]: the id of gens[k]·elems[x]
    start = 0
    while start < len(elems):
        end = len(elems)
        found: dict[tuple[int, ...], tuple[int, int]] = {}
        later = []  # (k, x, q) with q new at this level: its id is known once the level is sorted
        for x in range(start, end):
            p = elems[x]
            for k, g in enumerate(gens):
                q = tuple(map(g.__getitem__, p))
                i = index.get(q)
                if i is None:
                    if q not in found:
                        found[q] = (k, x)
                        _check_order(end + len(found), f"at least {end + len(found)}")
                    later.append((k, x, q))
                    i = -1
                rows[k].append(i)
        for q in sorted(found):
            index[q] = len(elems)
            elems.append(q)
            reached.append(found[q])
        for k, x, q in later:
            rows[k][x] = index[q]
        start = end
    table = [tuple(range(len(elems)))]
    for k, b in reached:
        table.append(tuple(map(rows[k].__getitem__, table[b])))
    return _group(_intern(tuple(table)), label)
