"""Exact rational Burnside rings and the five elementary biset operations.

Elements are coefficient vectors over conjugacy classes of subgroups, in
either the transitive basis [G/X] or the primitive-idempotent basis e_X.
Conversion between the two goes through the table of marks (triangular
solve), so the explicit idempotent formula can be cross-checked against
the marks characterization instead of being the only path.

The shifted ring over a fixed group K is the plain ring of the direct
product G x K; the shifted elementary operations act on the G factor and
leave K alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import (
    Group,
    GroupError,
    Homomorphism,
    Subgroup,
    direct_product,
    mask_of,
    subgroup_embedding,
)
from .subgroups import SubgroupLattice, enumerate_subgroups
from .subgroups import m_const  # re-exported: part of this module's API

TRANSITIVE = "transitive"
IDEMPOTENT = "idempotent"


@dataclass(frozen=True)
class BurnsideElement:
    group: Group
    basis: str
    coeffs: tuple[Fraction, ...]  # one per subgroup conjugacy class

    @property
    def lattice(self) -> SubgroupLattice:
        return enumerate_subgroups(self.group)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        if self.group != other.group or self.basis != other.basis:
            raise GroupError("cannot add elements over different rings/bases")
        return BurnsideElement(
            self.group, self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "BurnsideElement":
        s = Fraction(scalar)
        return BurnsideElement(self.group, self.basis, tuple(s * c for c in self.coeffs))

    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coeffs) if c != 0)


def zero(G: Group, basis: str = TRANSITIVE) -> BurnsideElement:
    n = enumerate_subgroups(G).n_classes()
    return BurnsideElement(G, basis, (Fraction(0),) * n)


def from_class_coeffs(G: Group, coeffs: dict[int, Fraction], basis: str = TRANSITIVE) -> BurnsideElement:
    lat = enumerate_subgroups(G)
    vec = [Fraction(0)] * lat.n_classes()
    for c, v in coeffs.items():
        vec[c] += Fraction(v)
    return BurnsideElement(G, basis, tuple(vec))


def transitive_basis_element(G: Group, X: Subgroup) -> BurnsideElement:
    """[G/X]."""
    lat = enumerate_subgroups(G)
    return from_class_coeffs(G, {lat.class_of(X): Fraction(1)})


def identity_element(G: Group) -> BurnsideElement:
    """[G/G], the identity of the ring."""
    lat = enumerate_subgroups(G)
    full = lat.subgroups[-1]
    return transitive_basis_element(G, full)


# ---------------------------------------------------------------------------
# idempotents, marks, products


def gluck_idempotent(G: Group, L: Subgroup) -> BurnsideElement:
    """Primitive idempotent e_L in the transitive basis:
    (1/|N_G(L)|) sum over X <= L of |X| mu(X, L) [G/X]."""
    lat = enumerate_subgroups(G)
    li = lat.index(L)
    lmask = L.mask
    coeffs: dict[int, Fraction] = {}
    norm = lat.normalizer_order(li)
    for j, X in enumerate(lat.subgroups):
        if X.mask & lmask != X.mask:
            continue
        mu = lat.moebius(j, li)
        if mu:
            c = lat.conj_class[j]
            coeffs[c] = coeffs.get(c, Fraction(0)) + Fraction(X.order * mu, norm)
    return from_class_coeffs(G, coeffs)


def marks_of(elem: BurnsideElement) -> tuple[Fraction, ...]:
    """Fixed-point vector per subgroup class (the mark homomorphism)."""
    lat = elem.lattice
    if elem.basis == IDEMPOTENT:
        # e_Y has indicator marks, so the coefficients are the marks
        return elem.coeffs
    M = lat.marks()
    nc = lat.n_classes()
    return tuple(
        sum((elem.coeffs[cy] * M[cx][cy] for cy in range(nc)), Fraction(0))
        for cx in range(nc)
    )


def to_idempotent_basis(elem: BurnsideElement) -> BurnsideElement:
    if elem.basis == IDEMPOTENT:
        return elem
    return BurnsideElement(elem.group, IDEMPOTENT, marks_of(elem))


def to_transitive_basis(elem: BurnsideElement) -> BurnsideElement:
    if elem.basis == TRANSITIVE:
        return elem
    lat = elem.lattice
    M = lat.marks()
    nc = lat.n_classes()
    target = list(elem.coeffs)
    # classes are ordered by subgroup size, so M is triangular:
    # M[x][y] != 0 forces |X| <= |Y|, with a nonzero diagonal.
    out = [Fraction(0)] * nc
    for x in range(nc - 1, -1, -1):
        s = sum((out[y] * M[x][y] for y in range(x + 1, nc)), Fraction(0))
        out[x] = Fraction(target[x] - s, M[x][x])
    return BurnsideElement(elem.group, TRANSITIVE, tuple(out))


def multiply(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Ring product; marks multiply pointwise."""
    if a.group != b.group:
        raise GroupError("mismatched ambient groups")
    pa, pb = marks_of(a), marks_of(b)
    prod = BurnsideElement(a.group, IDEMPOTENT, tuple(x * y for x, y in zip(pa, pb)))
    if a.basis == IDEMPOTENT and b.basis == IDEMPOTENT:
        return prod
    return to_transitive_basis(prod)


# ---------------------------------------------------------------------------
# elementary biset operations (transitive basis, extended linearly)


def restrict(elem: BurnsideElement, incl: Homomorphism) -> BurnsideElement:
    """Restriction along an injective map H -> G; result lives over H.

    [G/X] restricts to the sum over H\\G/X double cosets of [H/(H n gXg^-1)].
    """
    elem = to_transitive_basis(elem)
    G = elem.group
    if incl.target != G or not incl.is_injective():
        raise GroupError("restriction needs an injective map into the ambient group")
    H = incl.source
    lat_g = elem.lattice
    lat_h = enumerate_subgroups(H)
    t, inv = G.table, G.inverse
    h_in_g = incl.image
    coeffs: dict[int, Fraction] = {}
    for cy, coeff in enumerate(elem.coeffs):
        if coeff == 0:
            continue
        Y = lat_g.class_rep(cy)
        yelems = Y.elements()
        visited = 0
        for g in range(G.order):
            if (visited >> g) & 1:
                continue
            for h in h_in_g:
                hg = t[h][g]
                for y in yelems:
                    visited |= 1 << t[hg][y]
            gi = inv[g]
            inter = mask_of(
                i
                for i in range(H.order)
                if (Y.mask >> t[t[gi][h_in_g[i]]][g]) & 1
            )
            c = lat_h.conj_class[lat_h.index_of[inter]]
            coeffs[c] = coeffs.get(c, Fraction(0)) + coeff
    return from_class_coeffs(H, coeffs)


def _push(elem: BurnsideElement, target: Group, push) -> BurnsideElement:
    """Send each [G/X] in elem to [target/Y], where Y has mask push(X)."""
    elem = to_transitive_basis(elem)
    lat = elem.lattice
    lat_t = enumerate_subgroups(target)
    coeffs: dict[int, Fraction] = {}
    for cx, coeff in enumerate(elem.coeffs):
        if coeff == 0:
            continue
        c = lat_t.conj_class[lat_t.index_of[push(lat.class_rep(cx))]]
        coeffs[c] = coeffs.get(c, Fraction(0)) + coeff
    return from_class_coeffs(target, coeffs)


def _image_mask(f: Homomorphism):
    return lambda X: mask_of(f.image[x] for x in X.elements())


def induce(elem: BurnsideElement, incl: Homomorphism) -> BurnsideElement:
    """Induction along an injective map H -> G: [H/X] -> [G/X]."""
    if incl.source != elem.group or not incl.is_injective():
        raise GroupError("induction needs an injective map from the element's group")
    return _push(elem, incl.target, _image_mask(incl))


def inflate(elem: BurnsideElement, proj: Homomorphism) -> BurnsideElement:
    """Inflation along a surjection G -> Q: [Q/Y] -> [G/preimage(Y)]."""
    if proj.target != elem.group or not proj.is_surjective():
        raise GroupError("inflation needs a surjection onto the element's group")
    G = proj.source
    return _push(
        elem, G, lambda Y: mask_of(g for g in range(G.order) if proj.image[g] in Y)
    )


def deflate(elem: BurnsideElement, proj: Homomorphism) -> BurnsideElement:
    """Deflation along a surjection G -> Q: [G/X] -> [Q/image(X)]."""
    if proj.source != elem.group or not proj.is_surjective():
        raise GroupError("deflation needs a surjection from the element's group")
    return _push(elem, proj.target, _image_mask(proj))


def transport(elem: BurnsideElement, iso: Homomorphism) -> BurnsideElement:
    """Relabelling along a group isomorphism."""
    if iso.source != elem.group or not iso.is_bijective():
        raise GroupError("transport needs an isomorphism from the element's group")
    return _push(elem, iso.target, _image_mask(iso))


# ---------------------------------------------------------------------------
# shifted operations: op on the G factor of G x K, identity on K


def shift_hom(f: Homomorphism, K: Group) -> Homomorphism:
    """f x Id_K between the canonical direct products."""
    P = direct_product(f.source, K)
    Pp = direct_product(f.target, K)
    m = K.order
    image = tuple(
        f.image[i // m] * m + (i % m) for i in range(P.group.order)
    )
    return Homomorphism(P.group, Pp.group, image)


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
