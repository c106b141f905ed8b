"""Explicit finite groups given by Cayley tables.

Element ids are integers 0..order-1 and 0 is always the identity.  Groups,
homomorphisms and subgroups are frozen dataclasses, hashed and compared by
their contents with group labels ignored.  Not everything here is pure:
`set_validation` flips a process-global flag that every later construction
reads; constructions are memoized in process-wide caches; and
`dihedral_group`, `alternating_4` and `dicyclic_3` set the label of the
group they have just built with `object.__setattr__`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd


class GroupError(ValueError):
    """Raised when a construction precondition fails."""


# Full associativity checking is O(n^3); beyond this bound we sample.
_FULL_ASSOC_BOUND = 64
_VALIDATE = True


def set_validation(on: bool) -> None:
    """Globally toggle axiom checking on construction (CLI --no-validate)."""
    global _VALIDATE
    _VALIDATE = bool(on)


@dataclass(frozen=True)
class Group:
    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    label: str = "G"

    def __post_init__(self):
        if _VALIDATE:
            self._validate()

    def _validate(self) -> None:
        n = self.order
        if n < 1 or len(self.table) != n or len(self.inverse) != n:
            raise GroupError("malformed Cayley table")
        for x in range(n):
            if self.table[0][x] != x or self.table[x][0] != x:
                raise GroupError("identity law fails at element %d" % x)
            if self.table[x][self.inverse[x]] != 0:
                raise GroupError("inverse law fails at element %d" % x)
        t = self.table
        if n <= _FULL_ASSOC_BOUND:
            triples = itertools.product(range(n), repeat=3)
        else:
            step = max(1, n // 16)
            triples = itertools.product(range(0, n, step), repeat=3)
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise GroupError("associativity fails at (%d,%d,%d)" % (a, b, c))

    def __hash__(self):
        return hash((self.order, self.table))

    def __eq__(self, other):
        return (
            isinstance(other, Group)
            and self.order == other.order
            and self.table == other.table
        )

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
        return tuple(self.element_order(a) for a in range(self.order))

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(a)
        )

    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in range(self.order))

    def exponent(self) -> int:
        e = 1
        for a in range(self.order):
            o = self.element_order(a)
            e = e * o // gcd(e, o)
        return e

    def generating_sequence(self) -> tuple[int, ...]:
        """Deterministic (greedy, smallest-id-first) generating sequence."""
        gens: list[int] = []
        closed = {0}
        while len(closed) < self.order:
            g = min(x for x in range(self.order) if x not in closed)
            gens.append(g)
            closed = close_subset(self, closed | {g})
        return tuple(gens)

    def __repr__(self):
        return f"Group({self.label}, order={self.order})"


@dataclass(frozen=True)
class Homomorphism:
    source: Group
    target: Group
    image: tuple[int, ...]

    def __post_init__(self):
        if _VALIDATE:
            self._validate()

    def _validate(self) -> None:
        if len(self.image) != self.source.order:
            raise GroupError("image array has wrong length")
        if self.image[0] != 0:
            raise GroupError("homomorphism must fix the identity")
        s, t, im = self.source.table, self.target.table, self.image
        for a in range(self.source.order):
            for b in range(self.source.order):
                if im[s[a][b]] != t[im[a]][im[b]]:
                    raise GroupError("map is not a homomorphism at (%d,%d)" % (a, b))

    def __hash__(self):
        return hash((self.source, self.target, self.image))

    def __call__(self, a: int) -> int:
        return self.image[a]

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.target.order

    def is_bijective(self) -> bool:
        return self.is_injective() and self.source.order == self.target.order

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        """self o inner."""
        if inner.target != self.source:
            raise GroupError("composition mismatch")
        return Homomorphism(
            inner.source, self.target, tuple(self.image[x] for x in inner.image)
        )

    def inverse_map(self) -> "Homomorphism":
        if not self.is_bijective():
            raise GroupError("not an isomorphism")
        inv = [0] * self.target.order
        for a, b in enumerate(self.image):
            inv[b] = a
        return Homomorphism(self.target, self.source, tuple(inv))


@dataclass(frozen=True)
class Subgroup:
    parent: Group
    mask: int  # bitset over parent element ids

    def __post_init__(self):
        if _VALIDATE:
            self._validate()

    def _validate(self) -> None:
        if not self.mask & 1:
            raise GroupError("subgroup must contain the identity")
        elems = self.elements()
        t, inv = self.parent.table, self.parent.inverse
        m = self.mask
        for a in elems:
            if not (m >> inv[a]) & 1:
                raise GroupError("subset not closed under inverse")
            for b in elems:
                if not (m >> t[a][b]) & 1:
                    raise GroupError("subset not closed under product")
        if self.parent.order % len(elems) != 0:
            raise GroupError("Lagrange violated")  # unreachable if closed

    def __hash__(self):
        return hash((self.parent, self.mask))

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def elements(self) -> list[int]:
        m = self.mask
        return [i for i in range(self.parent.order) if (m >> i) & 1]

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


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def close_subset(G: Group, elements) -> set[int]:
    """Closure of a subset (with 0) under the group operation."""
    t = G.table
    closed = set(elements) | {0}
    frontier = list(closed)
    while frontier:
        a = frontier.pop()
        for b in list(closed):
            for c in (t[a][b], t[b][a]):
                if c not in closed:
                    closed.add(c)
                    frontier.append(c)
    return closed


def subgroup_generated(G: Group, gens) -> Subgroup:
    return Subgroup(G, mask_of(close_subset(G, gens)))


def trivial_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, 1)


def full_subgroup(G: Group) -> Subgroup:
    return Subgroup(G, (1 << G.order) - 1)


# ---------------------------------------------------------------------------
# constructions


@lru_cache(maxsize=None)
def make_cyclic(n: int, label: str | None = None) -> Group:
    if n < 1:
        raise GroupError("cyclic group order must be >= 1")
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inverse = tuple((-i) % n for i in range(n))
    return Group(n, table, inverse, label or f"C{n}")


@lru_cache(maxsize=None)
def trivial_group() -> Group:
    return make_cyclic(1, "1")


@dataclass(frozen=True)
class Product:
    group: Group
    proj1: Homomorphism
    proj2: Homomorphism
    inj1: Homomorphism
    inj2: Homomorphism

    def pair(self, a: int, b: int) -> int:
        return a * self.proj2.target.order + b


def direct_product(G: Group, H: Group) -> Product:
    """G x H with element id (a, b) -> a*|H| + b."""
    return _direct_product(G, H, G.label, H.label)


# Group equality ignores labels, so the labels are part of the cache key.
@lru_cache(maxsize=None)
def _direct_product(G: Group, H: Group, glabel: str, hlabel: str) -> Product:
    n, m = G.order, H.order
    order = n * m
    table = tuple(
        tuple(
            G.table[a1][a2] * m + H.table[b1][b2]
            for a2 in range(n)
            for b2 in range(m)
        )
        for a1 in range(n)
        for b1 in range(m)
    )
    inverse = tuple(
        G.inverse[a] * m + H.inverse[b] for a in range(n) for b in range(m)
    )
    P = Group(order, table, inverse, f"{glabel}x{hlabel}")
    proj1 = Homomorphism(P, G, tuple(i // m for i in range(order)))
    proj2 = Homomorphism(P, H, tuple(i % m for i in range(order)))
    inj1 = Homomorphism(G, P, tuple(a * m for a in range(n)))
    inj2 = Homomorphism(H, P, tuple(range(m)))
    return Product(P, proj1, proj2, inj1, inj2)


def semidirect_product(N: Group, H: Group, action) -> Group:
    """N semidirect H; action[h] is a permutation of N's elements, and
    h -> action[h] must be a homomorphism H -> Aut(N)."""
    n, m = N.order, H.order
    action = tuple(tuple(a) for a in action)
    if len(action) != m:
        raise GroupError("action must assign an automorphism to each element of H")
    for h in range(m):
        a = action[h]
        if sorted(a) != list(range(n)) or a[0] != 0:
            raise GroupError("action image is not a permutation fixing identity")
        for x in range(n):
            for y in range(n):
                if a[N.table[x][y]] != N.table[a[x]][a[y]]:
                    raise GroupError("action image is not an automorphism")
    for h1 in range(m):
        for h2 in range(m):
            comp = tuple(action[h1][action[h2][x]] for x in range(n))
            if comp != action[H.table[h1][h2]]:
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
    inverse = [0] * (n * m)
    for i in range(n * m):
        for j in range(n * m):
            if table[i][j] == 0:
                inverse[i] = j
                break
    return Group(n * m, table, tuple(inverse), f"{N.label}:{H.label}")


def quotient(G: Group, N: Subgroup) -> tuple[Group, Homomorphism]:
    """G/N with canonical projection; cosets ordered by minimal member id."""
    if not is_normal(N):
        raise GroupError("subgroup is not normal")
    t = G.table
    nelems = N.elements()
    coset_of = [-1] * G.order
    reps: list[int] = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for x in nelems:
            coset_of[t[g][x]] = idx
    q = len(reps)
    table = tuple(
        tuple(coset_of[t[reps[i]][reps[j]]] for j in range(q)) for i in range(q)
    )
    inverse = tuple(coset_of[G.inverse[reps[i]]] for i in range(q))
    Q = Group(q, table, inverse, f"{G.label}/N{N.order}")
    pi = Homomorphism(G, Q, tuple(coset_of))
    return Q, pi


def kernel(f: Homomorphism) -> Subgroup:
    return Subgroup(f.source, mask_of(a for a in range(f.source.order) if f.image[a] == 0))


def image(f: Homomorphism) -> Subgroup:
    return Subgroup(f.target, mask_of(set(f.image)))


def is_normal(N: Subgroup) -> bool:
    """Normality by conjugating every element; needs no subgroup lattice."""
    G = N.parent
    m = N.mask
    elems = N.elements()
    return all((m >> G.conj(a, g)) & 1 for g in range(G.order) for a in elems)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def o_p_subgroup(G: Group, p: int) -> Subgroup:
    """Smallest normal subgroup with p-group quotient: closure of p'-elements."""
    if not _is_prime(p):
        raise GroupError("p must be prime")
    seeds = [a for a in range(G.order) if G.element_order(a) % p != 0]
    return subgroup_generated(G, seeds)


def p_residual_quotient(G: Group, p: int) -> tuple[Group, Homomorphism]:
    """The quotient G/O^p(G), a p-group, with its projection."""
    return quotient(G, o_p_subgroup(G, p))


def inner_automorphisms(K: Group) -> list[Homomorphism]:
    """One conjugation map per element of K, deduplicated (K/Z(K) many)."""
    seen = set()
    out = []
    for g in range(K.order):
        im = tuple(K.conj(a, g) for a in range(K.order))
        if im not in seen:
            seen.add(im)
            out.append(Homomorphism(K, K, im))
    return out


def subgroup_embedding(S: Subgroup) -> Homomorphism:
    """Subgroup as a standalone Group; returns the inclusion into the parent.

    Elements are relabelled in increasing parent-id order, so the identity
    keeps id 0.  The standalone group is the source of the returned map.
    """
    return _subgroup_embedding(S, S.parent.label)


@lru_cache(maxsize=None)  # keyed on the parent's label too, as _direct_product
def _subgroup_embedding(S: Subgroup, label: str) -> Homomorphism:
    G = S.parent
    elems = S.elements()
    back = {e: i for i, e in enumerate(elems)}
    k = len(elems)
    table = tuple(
        tuple(back[G.table[elems[i]][elems[j]]] for j in range(k)) for i in range(k)
    )
    inverse = tuple(back[G.inverse[elems[i]]] for i in range(k))
    H = Group(k, table, inverse, f"{label}|{k}")
    return Homomorphism(H, G, tuple(elems))


def subgroup_as_group(S: Subgroup) -> Group:
    return subgroup_embedding(S).source


# ---------------------------------------------------------------------------
# named groups used throughout the test corpus and the CLI


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> Group:
    """S_n on {0..n-1}; elements are permutations in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    inverse = []
    for p in perms:
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        inverse.append(index[tuple(inv)])
    return Group(len(perms), table, tuple(inverse), f"S{n}")


@lru_cache(maxsize=None)
def dihedral_group(n: int) -> Group:
    """Dihedral group of order 2n (n >= 1): C_n with the inverting C_2 on top."""
    Cn = make_cyclic(n)
    inv_perm = tuple((-i) % n for i in range(n))
    ident = tuple(range(n))
    G = semidirect_product(Cn, make_cyclic(2), (ident, inv_perm))
    object.__setattr__(G, "label", f"D{2*n}")
    return G


@lru_cache(maxsize=None)
def cyclic_extension(n: int, t: int, r: int, label: str | None = None) -> Group:
    """Order-2n group <a, b | a^n, b^2 = a^t, b a b^-1 = a^r>.

    Covers dihedral (t=0, r=-1), dicyclic/quaternion (t=n/2, r=-1),
    semidihedral and modular 2-groups.  Element (i, j) = a^i b^j has
    id 2*i + j.
    """
    r %= n
    t %= n
    if (r * r) % n != 1 or (t * (r - 1)) % n != 0:
        raise GroupError("parameters do not define a group")

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
    inverse = [0] * (2 * n)
    for x in range(2 * n):
        for y in range(2 * n):
            if table[x][y] == 0:
                inverse[x] = y
                break
    return Group(2 * n, table, tuple(inverse), label or f"E({n},{t},{r})")


@lru_cache(maxsize=None)
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
    G = semidirect_product(V, make_cyclic(3), (ident, rho, rho2))
    object.__setattr__(G, "label", "A4")
    return G


@lru_cache(maxsize=None)
def dicyclic_3() -> Group:
    """C3 : C4 with the generator of C4 acting by inversion."""
    C3, C4 = make_cyclic(3), make_cyclic(4)
    inv = (0, 2, 1)
    ident = (0, 1, 2)
    G = semidirect_product(C3, C4, (ident, inv, ident, inv))
    object.__setattr__(G, "label", "C3:C4")
    return G


def group_from_permutations(n: int, gens: list[tuple[int, ...]], label: str = "P") -> Group:
    """Group generated by permutations of {0..n-1}, as an explicit table.

    Elements are ordered: identity first, then BFS by generator application,
    ties broken by permutation lexicographic order.
    """
    ident = tuple(range(n))
    for g in gens:
        if sorted(g) != list(range(n)):
            raise GroupError("not a permutation of range(n)")
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in sorted(gens):
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        nxt.sort()
        elems.extend(nxt)
        frontier = nxt
    index = {p: i for i, p in enumerate(elems)}
    m = len(elems)
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in elems) for p in elems
    )
    inverse = []
    for p in elems:
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        inverse.append(index[tuple(inv)])
    return Group(m, table, tuple(inverse), label)
