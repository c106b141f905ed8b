"""Exact rational Burnside rings and the five elementary biset operations.

An element is a rational combination of conjugacy classes of subgroups, in
either the transitive basis [G/X] or the primitive-idempotent basis e_X.
It is stored sparse and exact: one dict from each class with a nonzero
term to its integer numerator, over one positive integer denominator, in
canonical form (no zero numerator, and the denominator coprime to the
numerators), so equal elements have equal dicts and denominators.  The
dict is built once and never changed, so a result may keep its input's
dict and operations read it in place.  Every operation walks the nonzero
terms only; the sorted `terms` and the dense vector of Fractions,
`coeffs`, are derived on demand.  The Fractions of `coeffs` are kept on
the group's lattice, one object per value, so equal entries of any
elements over one group are one object and compare by identity.
Conversion between the bases goes through the table of marks (triangular
solve), so the explicit idempotent formula can be cross-checked against
the marks characterization instead of being the only path.

Induction, deflation and transport push each [X] to [f(X)] along one class
map kept on the homomorphism f, a tuple indexed by the classes of f's
source and filled whole on first use; restriction and inflation pull marks
back along it, as the result's mark at X is the argument's mark at f(X).

The shifted ring over a fixed group K is the plain ring of the direct
product G x K; the shifted elementary operations act on the G factor and
leave K alone, along f x Id_K, which is kept on f.  A projection or an
inclusion f is itself kept on its table, so f x Id_K and its class map are
built once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .groups import (
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    _product,
    _trusted,
    mask_of,
    subgroup_embedding,
)
from .subgroups import SubgroupLattice, enumerate_subgroups
from .subgroups import m_const  # re-exported: part of this module's API

TRANSITIVE = "transitive"
IDEMPOTENT = "idempotent"
_ZERO = Fraction(0)
_set = object.__setattr__


class BurnsideElement:
    """The sum of (n / den) b_c over (c, n) in `terms`, with b_c the basis
    element of subgroup class c.  `BurnsideElement(G, basis, coeffs)` checks
    a dense vector of rationals, one per class; derived elements come from
    `_element` without a check."""

    __slots__ = ("group", "basis", "_nums", "den", "_coeffs")

    def __init__(self, group: Group, basis: str, coeffs) -> None:
        if not isinstance(group, Group):
            raise GroupError("a Burnside element needs a Group")
        _check_basis(basis)
        try:
            vec = tuple(Fraction(c) for c in coeffs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GroupError("coefficients must be rational numbers") from exc
        n = enumerate_subgroups(group).n_classes()
        if len(vec) != n:
            raise GroupError(f"{len(vec)} coefficients for {n} subgroup classes")
        den = lcm(*(f.denominator for f in vec))
        nums = {c: f.numerator * (den // f.denominator) for c, f in enumerate(vec) if f}
        _element(group, basis, nums, den, self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return (self._nums == other._nums and self.den == other.den
                and self.basis == other.basis and self.group == other.group)

    def __hash__(self):
        return hash((self.group, self.basis, frozenset(self._nums.items()), self.den))

    def __repr__(self):
        return f"BurnsideElement({self.group!r}, {self.basis!r}, {dict(self.terms)} / {self.den})"

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The (class, numerator) pairs of the nonzero terms, by class."""
        return tuple(sorted(self._nums.items()))

    @property
    def lattice(self) -> SubgroupLattice:
        return enumerate_subgroups(self.group)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The dense vector, one Fraction per subgroup class.  Each value is
        read from the lattice's table of kept values, so equal entries of
        any elements over one group are one object."""
        if self._coeffs is None:
            lat = self.lattice
            vec = [_ZERO] * lat.n_classes()
            values, den = lat._values, self.den
            row = values.get(den)
            if row is None:
                row = values[den] = {}
            for c, n in self._nums.items():
                f = row.get(n)
                if f is None:  # one object per value, however it is written
                    f = Fraction(n, den)
                    f = row[n] = values.setdefault(f.denominator, {}).setdefault(f.numerator, f)
                vec[c] = f
            _set(self, "_coeffs", tuple(vec))
        return self._coeffs

    def _combine(self, other: "BurnsideElement", sign: int) -> "BurnsideElement":
        if self.group != other.group or self.basis != other.basis:
            raise GroupError("cannot add elements over different rings/bases")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        nums = self._nums.copy() if fa == 1 else {c: n * fa for c, n in self._nums.items()}
        for c, n in other._nums.items():  # a term that sums to zero goes at once
            n = nums.get(c, 0) + n * fb
            if n:
                nums[c] = n
            else:
                del nums[c]
        return _element(self.group, self.basis, nums, den)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self._combine(other, 1)

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self._combine(other, -1)

    def __rmul__(self, scalar) -> "BurnsideElement":
        s = scalar if type(scalar) is Fraction else Fraction(scalar)
        sn = s.numerator
        nums = {c: n * sn for c, n in self._nums.items()}
        return _element(self.group, self.basis, nums, self.den * s.denominator)

    def support(self) -> frozenset[int]:
        return frozenset(self._nums)


def _element(G: Group, basis: str, nums: dict[int, int], den: int,
             obj: BurnsideElement | None = None) -> BurnsideElement:
    """The element sum of (nums[c] / den) b_c, in canonical form, built (as a
    new element, or into obj) without a check; den > 0.  nums is kept as the
    element's dict when it is already canonical, so no one may change it
    after this call."""
    if 0 in nums.values():
        nums = {c: n for c, n in nums.items() if n}
    if den > 1:
        g = den
        for n in nums.values():  # stops once the gcd is 1, as it mostly soon is
            if g == 1:
                break
            g = gcd(g, n)
        if g > 1:
            den //= g
            nums = {c: n // g for c, n in nums.items()}
    obj = object.__new__(BurnsideElement) if obj is None else obj
    _set(obj, "group", G)
    _set(obj, "basis", basis)
    _set(obj, "_nums", nums)
    _set(obj, "den", den)
    _set(obj, "_coeffs", None)
    return obj


def _check_basis(basis: str) -> None:
    if basis not in (TRANSITIVE, IDEMPOTENT):
        raise GroupError(f"unknown basis {basis!r}")


def zero(G: Group, basis: str = TRANSITIVE) -> BurnsideElement:
    _check_basis(basis)
    return _element(G, basis, {}, 1)


def from_class_coeffs(G: Group, coeffs: dict[int, Fraction], basis: str = TRANSITIVE) -> BurnsideElement:
    vec = [_ZERO] * enumerate_subgroups(G).n_classes()
    for c, v in coeffs.items():
        if not 0 <= c < len(vec):
            raise GroupError(f"no subgroup class {c}")
        vec[c] += Fraction(v)
    return BurnsideElement(G, basis, vec)


def transitive_basis_element(G: Group, X: Subgroup) -> BurnsideElement:
    """[G/X]."""
    return _element(G, TRANSITIVE, {enumerate_subgroups(G).class_of(X): 1}, 1)


def identity_element(G: Group) -> BurnsideElement:
    """[G/G], the identity of the ring."""
    return _element(G, TRANSITIVE, {enumerate_subgroups(G).conj_class[-1]: 1}, 1)


# ---------------------------------------------------------------------------
# idempotents, marks, products


def gluck_idempotent(G: Group, L: Subgroup) -> BurnsideElement:
    """Primitive idempotent e_L in the transitive basis:
    (1/|N_G(L)|) sum over X <= L of |X| mu(X, L) [G/X].

    Built once per conjugacy class and kept on the lattice, over the
    lattice's group, the table's own; the Moebius column walked for it is
    not kept.  A repeat call, with G under any label, returns the same
    object."""
    lat = enumerate_subgroups(G)
    li = lat.index_of.get(L.mask) if L.parent == lat.parent else None  # lat.index, inline
    if li is None:
        raise GroupError("subgroup does not belong to this lattice")
    c = lat.conj_class[li]
    e = lat._idempotents.get(c)
    if e is None:
        totals: dict[int, int] = {}
        for j, mu in lat.moebius_column(li, keep=False).items():
            cj = lat.conj_class[j]
            totals[cj] = totals.get(cj, 0) + lat.subgroups[j].order * mu
        e = lat._idempotents[c] = _element(lat.parent, TRANSITIVE, totals, lat.normalizer_order(li))
    return e


def marks_of(elem: BurnsideElement) -> tuple[Fraction, ...]:
    """Fixed-point vector per subgroup class (the mark homomorphism)."""
    # e_Y has indicator marks, so the coefficients are the marks
    return to_idempotent_basis(elem).coeffs


def to_idempotent_basis(elem: BurnsideElement) -> BurnsideElement:
    if elem.basis == IDEMPOTENT:
        return elem
    column = elem.lattice.mark_column
    # the mark at X sums n_Y marks[X][Y] over the Y in the support
    nums: dict[int, int] = {}
    for y, n in elem._nums.items():
        xs, ms = column(y)
        for x, m in zip(xs, ms):
            nums[x] = nums.get(x, 0) + n * m
    return _element(elem.group, IDEMPOTENT, nums, elem.den)


def to_transitive_basis(elem: BurnsideElement) -> BurnsideElement:
    if elem.basis == TRANSITIVE:
        return elem
    column = elem.lattice.mark_column
    # classes are ordered by subgroup size, so the marks are triangular:
    # solve marks · u = elem from the top class down, each u[y] != 0 pushing
    # marks[x][y] u[y] onto the rows x < y.  u and the pushed sums are
    # numerators over den * scale, and scale grows by the least factor that
    # keeps the next u[x] an integer.
    nums = elem._nums
    scale = 1
    out: dict[int, int] = {}
    pushed: dict[int, int] = {}
    for x in range(max(nums, default=-1), -1, -1):
        s = nums.get(x, 0) * scale - pushed.pop(x, 0)
        if not s:
            continue
        xs, ms = column(x)
        d = ms[-1]  # marks[x][x]
        f = d // gcd(s, d)
        if f > 1:
            scale *= f
            s *= f
            out = {y: u * f for y, u in out.items()}
            pushed = {y: v * f for y, v in pushed.items()}
        u = out[x] = s // d
        for y, m in islice(zip(xs, ms), len(xs) - 1):
            pushed[y] = pushed.get(y, 0) + m * u
    return _element(elem.group, TRANSITIVE, out, elem.den * scale)


def multiply(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Ring product; marks multiply pointwise."""
    if a.group != b.group:
        raise GroupError("mismatched ambient groups")
    pa, pb = to_idempotent_basis(a), to_idempotent_basis(b)
    nb = pb._nums
    nums = {c: n * nb[c] for c, n in pa._nums.items() if c in nb}
    prod = _element(a.group, IDEMPOTENT, nums, pa.den * pb.den)
    if a.basis == IDEMPOTENT and b.basis == IDEMPOTENT:
        return prod
    return to_transitive_basis(prod)


# ---------------------------------------------------------------------------
# elementary biset operations (transitive basis, extended linearly)


def restrict(elem: BurnsideElement, incl: Homomorphism) -> BurnsideElement:
    """Restriction along an injective map H -> G, over H: the mark at
    X <= H is elem's mark at incl(X)."""
    if incl.target != elem.group or not incl.is_injective():
        raise GroupError("restriction needs an injective map into the ambient group")
    return _pull(elem, incl)


def _class_map(f: Homomorphism) -> tuple[int, ...]:
    """f's class map, the class of f(X) at each class X of f's source,
    filled on first use and kept on f."""
    cmap = f._biset
    if cmap is None:
        lat, lat_t = enumerate_subgroups(f.source), enumerate_subgroups(f.target)
        index_of, conj_class, at = lat_t.index_of, lat_t.conj_class, f.image.__getitem__
        cmap = tuple(conj_class[index_of[mask_of(map(at, lat.subgroups[i].members()))]]
                     for i in lat.class_reps)
        _set(f, "_biset", cmap)
    return cmap


def _push(elem: BurnsideElement, f: Homomorphism) -> BurnsideElement:
    """Send each [X] in elem to [f(X)] over f's target."""
    elem = to_transitive_basis(elem)
    cmap = _class_map(f)
    coeffs: dict[int, int] = {}
    for cx, coeff in elem._nums.items():
        c = cmap[cx]
        coeffs[c] = coeffs.get(c, 0) + coeff
    return _element(f.target, TRANSITIVE, coeffs, elem.den)


def _pull(elem: BurnsideElement, f: Homomorphism) -> BurnsideElement:
    """The element over f's source whose mark at X is elem's mark at f(X):
    restriction along an injection, inflation along a surjection."""
    marks = to_idempotent_basis(elem)
    at = marks._nums
    nums = {cx: at.get(c, 0) for cx, c in enumerate(_class_map(f))}
    return to_transitive_basis(_element(f.source, IDEMPOTENT, nums, marks.den))


def induce(elem: BurnsideElement, incl: Homomorphism) -> BurnsideElement:
    """Induction along an injective map H -> G: [H/X] -> [G/X]."""
    if incl.source != elem.group or not incl.is_injective():
        raise GroupError("induction needs an injective map from the element's group")
    return _push(elem, incl)


def inflate(elem: BurnsideElement, proj: Homomorphism) -> BurnsideElement:
    """Inflation along a surjection G -> Q, [Q/Y] -> [G/preimage(Y)]: the
    mark at X <= G is elem's mark at proj(X)."""
    if proj.target != elem.group or not proj.is_surjective():
        raise GroupError("inflation needs a surjection onto the element's group")
    return _pull(elem, proj)


def deflate(elem: BurnsideElement, proj: Homomorphism) -> BurnsideElement:
    """Deflation along a surjection G -> Q: [G/X] -> [Q/image(X)]."""
    if proj.source != elem.group or not proj.is_surjective():
        raise GroupError("deflation needs a surjection from the element's group")
    return _push(elem, proj)


def transport(elem: BurnsideElement, iso: Homomorphism) -> BurnsideElement:
    """Relabelling along a group isomorphism."""
    if iso.source != elem.group or not iso.is_bijective():
        raise GroupError("transport needs an isomorphism from the element's group")
    return _push(elem, iso)


# ---------------------------------------------------------------------------
# shifted operations: op on the G factor of G x K, identity on K


def shift_hom(f: Homomorphism, K: Group) -> Homomorphism:
    """f x Id_K between the canonical direct products.

    Kept on f once per table of K, between the own groups of the two
    product tables, so a repeat call under any label of K returns the same
    map and its class map fills once."""
    if f._shifted is None:
        _set(f, "_shifted", {})
    fs = f._shifted.get(K._t)
    if fs is None:
        P, Pp = _product(f.source._t, K._t).group, _product(f.target._t, K._t).group
        m = K.order
        image = tuple(f.image[i // m] * m + (i % m) for i in range(P.order))
        fs = f._shifted[K._t] = _trusted(Homomorphism, P, Pp, image)
    return fs


def shifted_restrict(elem: BurnsideElement, H: Subgroup, K: Group) -> BurnsideElement:
    """Restriction from G x K to H x K for H <= G."""
    incl = shift_hom(subgroup_embedding(H), K)
    return restrict(elem, incl)


def shifted_induce(elem: BurnsideElement, H: Subgroup, K: Group) -> BurnsideElement:
    """Induction from H x K to G x K; elem must live over H x K."""
    incl = shift_hom(subgroup_embedding(H), K)
    return induce(elem, incl)


def shifted_inflate(elem: BurnsideElement, proj: Homomorphism, K: Group) -> BurnsideElement:
    return inflate(elem, shift_hom(proj, K))


def shifted_deflate(elem: BurnsideElement, proj: Homomorphism, K: Group) -> BurnsideElement:
    return deflate(elem, shift_hom(proj, K))


def shifted_transport(elem: BurnsideElement, iso: Homomorphism, K: Group) -> BurnsideElement:
    return transport(elem, shift_hom(iso, K))
