"""Explicit finite groups given by Cayley tables.

Element ids are integers 0..order-1 and 0 is always the identity.  Each
distinct Cayley table is interned once, as a `_Table`, in one content-keyed
map that holds it for the life of the process; nothing else hashes table
contents.  A `Group` is a `_Table` under a label, so `==` and `hash` mean
"same contents, labels ignored" without reading the table.  The `_Table`
owns what is derived from the table alone: its own group, labelled `T` and
the order, to which every object the library keeps refers; the subgroup
lattice, generating sequence, element orders, over-K word plan, a
transversal of G/Z(G); and one map object per key, between own groups: the
product maps per other factor's table, and the quotient projection and
subgroup inclusion per mask.  No labelled group is kept: a public
constructor returns a new `Group` on the kept table under its label.
Homomorphisms, subgroups and products are immutable values (`_Value`): their
fields are read-only, and `==`, `hash` and `repr` go by the fields.  What
a value determines and keeps outside its fields takes no part in them:
a `Subgroup` is slotted and keeps its member tuple (`members()`, filled on
first use); a `Homomorphism` keeps its number of distinct images, counted
once for `is_injective`, `is_surjective` and `is_bijective`, the biset
class maps of `burnside` and its shifted maps f x Id_K.

A construction from parameters (cyclic, cyclic extension, symmetric,
product, semidirect, permutation closure) refuses a group over
MAX_GROUP_ORDER before it builds the table, and builds it in one way: it
lists the left rows x -> g·x of its generators and `_walk_rows` makes the
table from them a whole row at a time, its entries shared int objects, not
a new int per cell.  Values are checked where they enter: a direct
`Group(...)`, `Homomorphism(...)` or `Subgroup(...)` call checks its input
in full.  Both
laws are checked exactly on a generating sequence only: associativity by
Light's test, and the homomorphism law by `_is_hom`.  One greedy walk,
`greedy_generators`, chooses the generating sequence of a group, checks a
subgroup mask by closing the generators it chooses inside it (or, once the
table has its lattice, by looking the mask up there), and gives the CLI's
class labels their generator words, and `is_normal`, the normality test
that needs no lattice, conjugates by those generators only; `center_mask` tests
commuting with them only.  Every value this library derives from checked
values (products, quotients, subgroups, kernels, compositions, named groups)
is built by `_group` or `_trusted` without a second check.
Masks are ints over element ids; `mask_of` and `elements_of` convert.
"""

from __future__ import annotations

from itertools import permutations
from math import lcm
from operator import attrgetter, itemgetter


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
                 "transversal", "products", "embeddings", "quotients")

    def __init__(self, table, inverse):
        self.order, self.table, self.inverse = len(table), table, inverse
        self.group = self.lattice = self.gens = self.orders = self.word_plan = self.transversal = None
        self.products = {}  # other factor's _Table -> Product over the own groups
        self.embeddings = {}  # subgroup mask -> inclusion map
        self.quotients = {}  # normal subgroup mask -> projection


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
        """Z(G) = G: its kept transversal of G/Z(G) is the identity alone."""
        return len(_transversal(self)) == 1

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
    """A Group on the table t under this label, built without a check: G
    filled in (the checked constructor's own, or the table's own group),
    else a new object.  Nothing keeps it; what is kept refers to the
    table's own group."""
    if G is None:
        G = object.__new__(Group)
    _setattr(G, "_t", t)
    _setattr(G, "order", t.order)
    _setattr(G, "table", t.table)
    _setattr(G, "inverse", t.inverse)
    _setattr(G, "label", label)
    return G


class Homomorphism(_Value):
    """A map of groups given by the image of each source element.

    `_biset`, `_shifted` and `_image_size` are not fields, so they take no
    part in `==`, `hash` or `repr`: the class map, a tuple with the class of
    the image at each source class, that `burnside._class_map` fills whole
    on first use; the maps f x Id_K of `burnside.shift_hom`, by K's table;
    and the number of distinct images, counted on the first injectivity or
    surjectivity test."""

    _fields = ("source", "target", "image")
    _biset = _shifted = _image_size = None

    def __init__(self, source: Group, target: Group, image: tuple[int, ...]):
        _setattr(self, "source", source)
        _setattr(self, "target", target)
        _setattr(self, "image", tuple(image))
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


def make_cyclic(n: int, label: str | None = None) -> Group:
    """C_n with id i for the i-th power of the generator, whose row is the
    ids rotated by one."""
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    _check_order(n)
    ids = tuple(range(n))
    return _group(_intern(_walk_rows([ids[1:] + ids[:1]], ids)), label or f"C{n}")


def trivial_group() -> Group:
    return make_cyclic(1, "1")


class Product(_Value):
    """G x H with its projections and injections; built by `direct_product`."""

    _fields = ("group", "proj1", "proj2", "inj1", "inj2")

    def pair(self, a: int, b: int) -> int:
        return a * self.proj2.target.order + b


def _product_table(G: Group, H: Group, action=None) -> tuple[tuple[int, ...], ...]:
    """The table on pairs (a, b), id a*|H| + b, of G x H, or of G semidirect
    H when action[b] is the permutation of G's ids by which b acts: walked
    from the rows of (a, 1), (a, 1)·(a2, b2) = (a·a2, b2), for G's
    generators a and of (1, b), (1, b)·(a2, b2) = (action[b](a2), b·b2),
    for H's generators b."""
    n, m = G.order, H.order
    ids = tuple(range(n * m))
    blocks = [ids[i:i + m] for i in range(0, n * m, m)]  # the pairs (a, b) for each a
    action = action or [range(n)] * m
    rows = [[c for a2 in G.table[a] for c in blocks[a2]] for a in G.generating_sequence()]
    rows += [[blocks[a2][b2] for a2 in action[b] for b2 in H.table[b]]
             for b in H.generating_sequence()]
    return _walk_rows(rows, ids)


def _product(g: _Table, h: _Table) -> Product:
    """The product of two tables' own groups, with its maps between own
    groups, kept on g once per h; element id (a, b) -> a*|h| + b."""
    P = g.products.get(h)
    if P is None:
        n, m = g.order, h.order
        _check_order(n * m)
        own = _intern(_product_table(g.group, h.group)).group
        P = g.products[h] = _trusted(
            Product, own,
            _trusted(Homomorphism, own, g.group, tuple(i // m for i in range(n * m))),
            _trusted(Homomorphism, own, h.group, tuple(i % m for i in range(n * m))),
            _trusted(Homomorphism, g.group, own, tuple(a * m for a in range(n))),
            _trusted(Homomorphism, h.group, own, tuple(range(m))),
        )
    return P


def direct_product(G: Group, H: Group) -> Product:
    """G x H under the label `GxH`, with the kept maps of `_product`."""
    P = _product(G._t, H._t)
    return _trusted(Product, _group(P.group._t, f"{G.label}x{H.label}"), P.proj1, P.proj2, P.inj1, P.inj2)


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
    return _group(_intern(_product_table(N, H, action)), f"{N.label}:{H.label}")


def _projection(G: Group, N: Subgroup) -> Homomorphism:
    """The canonical projection G -> G/N, kept per mask on G's table,
    between the own groups of the two tables; cosets ordered by least id."""
    if N.parent != G:
        raise GroupError("N must be a subgroup of G")
    pi = G._t.quotients.get(N.mask)
    if pi is None:
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
        pi = G._t.quotients[N.mask] = _trusted(
            Homomorphism, G._t.group, _intern(table).group, tuple(coset_of))
    return pi


def quotient(G: Group, N: Subgroup) -> tuple[Group, Homomorphism]:
    """G/N under the label `G/N|N|`, with the kept projection of
    `_projection`."""
    pi = _projection(G, N)
    return _group(pi.target._t, f"{G.label}/N{N.order}"), pi


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


def is_normal(N: Subgroup) -> bool:
    """N normal in its parent G: gNg^-1 = N for each g in G's generating
    sequence.  Exact, because the g with gNg^-1 = N form a subgroup, the
    normalizer of N.  A lattice reads normality off its class sizes."""
    G, m = N.parent, N.mask
    return all(conjugate_mask(G, m, g) == m for g in G.generating_sequence())


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


def inner_automorphisms(K: Group) -> list[Homomorphism]:
    """One conjugation map per element of K's Z(K)-transversal (K/Z(K)
    many), in the order of their least conjugating elements."""
    return [_trusted(Homomorphism, K, K, tuple(K.conj(a, g) for a in range(K.order)))
            for g in _transversal(K)]


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


def symmetric_group(n: int) -> Group:
    """S_n on {0..n-1} (n >= 0); elements are permutations in lexicographic
    order, and p·q is p∘q, (p·q)(i) = p(q(i)).  Only the rows x -> g·x of
    the generators (0 1) and (0 1 … n-1) are composed, n·n! steps each; the
    other rows come from them by `_walk_rows`."""
    if n < 0:
        raise GroupError("S_n needs n >= 0")
    order = 1
    for k in range(2, n + 1):  # stops at the first k! past the limit
        order *= k
        _check_order(order, f"{n}!")
    perms = list(permutations(range(n)))
    ids = tuple(range(order))
    index = dict(zip(perms, ids))
    gens = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
    rows = [[index[tuple(map(g.__getitem__, p))] for p in perms] for g in gens]
    return _group(_intern(_walk_rows(rows, ids)), f"S{n}")


def dihedral_group(n: int) -> Group:
    """Dihedral group of order 2n (n >= 1): C_n with the inverting C_2 on top."""
    return cyclic_extension(n, 0, -1, f"D{2*n}")


def cyclic_extension(n: int, t: int, r: int, label: str | None = None) -> Group:
    """Order-2n group <a, b | a^n, b^2 = a^t, b a b^-1 = a^r>.

    Covers dihedral (t=0, r=-1), dicyclic/quaternion (t=n/2, r=-1),
    semidihedral and modular 2-groups.  Element (i, j) = a^i b^j has
    id 2*i + j; the row of a is the ids rotated by 2.
    """
    if n < 1 or (r * r - 1) % n != 0 or (t * (r - 1)) % n != 0:
        raise GroupError("parameters do not define a group")
    _check_order(2 * n)
    r %= n
    t %= n
    ids = tuple(range(2 * n))
    # b a^k b^l = a^(rk) b for l = 0 and a^(rk + t) for l = 1
    b_row = []
    for k in range(n):
        b_row += ids[2 * (r * k % n) + 1], ids[2 * ((r * k + t) % n)]
    return _group(_intern(_walk_rows([ids[2:] + ids[:2], b_row], ids)), label or f"E({n},{t},{r})")


def quaternion_group() -> Group:
    return cyclic_extension(4, 2, 3, "Q8")


def alternating_4() -> Group:
    """A4 as (C2 x C2) : C3, the 3-cycle permuting the involutions."""
    V = direct_product(make_cyclic(2), make_cyclic(2)).group
    # involutions 1, 2, 3 of V cycle as 1 -> 3 -> 2 -> 1
    ident = (0, 1, 2, 3)
    rho = (0, 3, 1, 2)
    rho2 = tuple(rho[rho[i]] for i in range(4))
    return relabel(semidirect_product(V, make_cyclic(3), (ident, rho, rho2)), "A4")


def dicyclic_3() -> Group:
    """C3 : C4 with the generator of C4 acting by inversion."""
    C3, C4 = make_cyclic(3), make_cyclic(4)
    inv = (0, 2, 1)
    ident = (0, 1, 2)
    return relabel(semidirect_product(C3, C4, (ident, inv, ident, inv)), "C3:C4")


def group_from_permutations(n: int, gens: list[tuple[int, ...]]) -> Group:
    """Group generated by permutations of {0..n-1}, as an explicit table.

    Elements are ordered: identity first, then BFS by generator application,
    ties broken by permutation lexicographic order.  The walk keeps, per
    generator g, the row x -> g·x, where (g·x)(i) = g(x(i)), and
    `_walk_rows` builds the table from those rows: |P|·|gens|·n work for
    the walk and |P|^2 for the table.
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
    rows: list[list[int]] = [[] for _ in gens]  # rows[k][x]: the id of gens[k]·elems[x]
    start = 0
    while start < len(elems):
        end = len(elems)
        found: set[tuple[int, ...]] = set()
        later = []  # (k, x, q) with q new at this level: its id is known once the level is sorted
        for x in range(start, end):
            p = elems[x]
            for k, g in enumerate(gens):
                q = tuple(map(g.__getitem__, p))
                i = index.get(q)
                if i is None:
                    if q not in found:
                        found.add(q)
                        _check_order(end + len(found), f"at least {end + len(found)}")
                    later.append((k, x, q))
                    i = -1
                rows[k].append(i)
        for q in sorted(found):
            index[q] = len(elems)
            elems.append(q)
        for k, x, q in later:
            rows[k][x] = index[q]
        start = end
    return _group(_intern(_walk_rows(rows, tuple(range(len(elems))))), "P")


def _walk_rows(gen_rows, ids) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of the group with element ids `ids` generated by the
    elements whose left rows are `gen_rows` (gen_rows[k][x] is the id of
    g_k·x); the one table builder of every construction from parameters.
    A walk of the Cayley graph from the identity, whose row is `ids`: each
    element s·x first reached from x gets x's row sent through s's, since
    (s·x)·y = s·(x·y) (Butler, LNCS 559, 1991), so the table costs |G|^2
    lookups and holds only the entries of `ids` and `gen_rows`."""
    table = [None] * len(ids)
    table[0] = ids
    walk = [0]
    for x in walk:  # walk grows as it is read
        row = table[x]
        for s in gen_rows:
            a = s[x]
            if table[a] is None:
                table[a] = itemgetter(*row)(s)
                walk.append(a)
    return tuple(table)
