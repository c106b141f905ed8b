"""The in-process workloads: their inputs, their ops and the checks on them.

Each workload has a set-up function, which builds its input groups (with
validation) and the catalog, and an op generator.  An op is one answer a
script user waits for.  `Op.run` is the only part that is timed; `Op.check`
compares the answer with a value that does not come from the code under
test (a count from the literature, a closed form, a property every correct
answer has, or a count recorded at the seed commit) and returns an error
message, or None.

The seed (through `rng`) sets the op order and every sample.  The library
only sees the generated inputs.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable

from bgroups.burnside import (
    deflate,
    gluck_idempotent,
    marks_of,
    multiply,
    shift_hom,
    shifted_deflate,
    shifted_induce,
    shifted_inflate,
    shifted_restrict,
    shifted_transport,
    to_idempotent_basis,
)
from bgroups.catalog import groups_up_to_order
from bgroups.groups import (
    Subgroup,
    dihedral_group,
    direct_product,
    kernel,
    make_cyclic,
    mask_of,
    quotient,
    subgroup_embedding,
    symmetric_group,
    trivial_group,
)
from bgroups.ideals import (
    P_RESTRICTED,
    TRUNCATED,
    build_bk_poset,
    closed_subsets,
    ideal_eval,
)
from bgroups.overk import (
    beta_k,
    classify_p_persistent_bk,
    embedding_over,
    groups_over_k,
    is_bk_group,
    is_isomorphic_over_k,
    is_p_persistent,
    is_quotient_over_k,
    isomorphisms,
    quotient_over_k,
)
from bgroups.subgroups import enumerate_subgroups, m_constant, normal_subgroups

DEFAULT_DEADLINE = 30.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    deadline: float = DEFAULT_DEADLINE


def _power(G, k):
    out = G
    for _ in range(k - 1):
        out = direct_product(out, G).group
    return out


def _class_facts(lat):
    """(mask, order) of each class representative, read off the lattice."""
    return [(lat.class_rep(c).mask, lat.class_rep(c).order) for c in range(lat.n_classes())]


def _normalizer_order(G, mask: int) -> int:
    """|N_G(X)| by conjugating X with every element (benchmark-side oracle)."""
    t, inv = G.table, G.inverse
    elems = [a for a in range(G.order) if mask >> a & 1]
    return sum(
        1 for g in range(G.order) if all(mask >> t[t[g][a]][inv[g]] & 1 for a in elems)
    )


def _indicator(n: int, hot: int) -> tuple:
    return tuple(Fraction(int(c == hot)) for c in range(n))


def _class_of_mask(lat, mask: int) -> int:
    return lat.class_of(Subgroup(lat.parent, mask))


# ---------------------------------------------------------------------------
# lattice: subgroup enumeration, marks and idempotents of five larger groups

# (subgroups, classes).  C2^5 and C2^6: sums of Gaussian binomials
# [n k]_2, and in an abelian group every class is one subgroup.  S5: the
# classical 156 subgroups in 19 classes.  S4xC2 and S4xC4: recorded at the
# seed commit.
LATTICE_COUNTS = {
    "S4xC2": (98, 33),
    "C2^5": (374, 374),
    "S4xC4": (172, 56),
    "S5": (156, 19),
    "C2^6": (2825, 2825),
}
# C2^6 takes more than 300 s at the seed (ROADMAP item 2; about 1.9 s with
# closure from generators).  5 s keeps the fix visible as a passing op
# without spending the run on the known failure.
LATTICE_DEADLINES = {"S5": 60.0, "S4xC4": 60.0, "C2^6": 5.0}
# C2^6 has 2825 classes: its marks and idempotents are out of reach of any
# per-op deadline until its lattice and marks get the ROADMAP item-2
# algorithms, so only its enumeration is an op.
ENUMERATION_ONLY = {"C2^6"}
MARKS_OF_SAMPLE = 4  # marks_of costs ~0.5 s per idempotent on C2^5


def setup_lattice():
    C2 = make_cyclic(2)
    S4 = symmetric_group(4)
    groups = {
        "S4xC2": direct_product(S4, C2).group,
        "C2^5": _power(C2, 5),
        "S4xC4": direct_product(S4, make_cyclic(4)).group,
        "S5": symmetric_group(5),
        "C2^6": _power(C2, 6),
    }
    groups_up_to_order(16)
    return groups


def lattice_ops(groups, rng: random.Random):
    names = sorted(groups)
    rng.shuffle(names)
    for name in names:
        yield from _lattice_group_ops(name, groups[name], rng)


def _lattice_group_ops(name, G, rng):
    box: dict = {}

    def enum():
        box["lat"] = enumerate_subgroups(G)
        return box["lat"]

    def check_counts(lat):
        got = (len(lat), lat.n_classes())
        want = LATTICE_COUNTS[name]
        return None if got == want else f"(subgroups, classes) = {got}, expected {want}"

    yield Op(f"enumerate {name}", enum, check_counts, LATTICE_DEADLINES.get(name, DEFAULT_DEADLINE))
    lat = box.get("lat")
    if lat is None or name in ENUMERATION_ONLY:
        return
    nc = lat.n_classes()
    facts = _class_facts(lat)
    abelian = G.is_abelian()
    norm = [G.order if abelian else _normalizer_order(G, m) for m, _ in facts]
    full = (1 << G.order) - 1
    top, bottom = _class_of_mask(lat, full), _class_of_mask(lat, 1)

    def check_marks(M):
        if len(M) != nc or any(len(row) != nc for row in M):
            return "marks table has the wrong shape"
        for x, (xm, xo) in enumerate(facts):
            if M[x][top] != 1:
                return f"mark of class {x} on G/G is {M[x][top]}"
            if M[x][x] != norm[x] // xo:
                return f"diagonal mark {x} is {M[x][x]}, expected |N(X):X| = {norm[x] // xo}"
        for y, (ym, yo) in enumerate(facts):
            if M[bottom][y] != G.order // yo:
                return f"mark of 1 on G/Y_{y} is {M[bottom][y]}"
            if abelian:
                for x, (xm, _) in enumerate(facts):
                    want = G.order // yo if xm & ym == xm else 0
                    if M[x][y] != want:
                        return f"abelian mark ({x},{y}) is {M[x][y]}, expected {want}"
        return None

    yield Op(f"marks {name}", lat.marks, check_marks, LATTICE_DEADLINES.get(name, DEFAULT_DEADLINE))

    es: dict[int, object] = {}
    order = list(range(nc))
    rng.shuffle(order)
    for c in order:
        yield Op(f"idempotent {name}", _idempotent_run(G, lat, c, es), _idempotent_check(c, facts, norm))
    if len(es) == nc:
        target = _indicator(nc, top)
        yield Op(
            f"idempotent_sum {name}",
            lambda: reduce(operator.add, (es[c] for c in range(nc))),
            lambda total: None if tuple(total.coeffs) == target else "sum of e_L is not [G/G]",
        )
    for c in rng.sample(sorted(es), min(MARKS_OF_SAMPLE, len(es))):
        want = _indicator(nc, c)
        yield Op(
            f"marks_of {name}",
            lambda e=es[c]: marks_of(e),
            lambda got, want=want: None if tuple(got) == want else "marks of e_L are not an indicator",
        )


def _idempotent_run(G, lat, c, es):
    def run():
        es[c] = gluck_idempotent(G, lat.class_rep(c))
        return es[c]

    return run


def _idempotent_check(c, facts, norm):
    """e_L = (1/|N(L)|) sum_{X <= L} |X| mu(X, L) [G/X]: its coefficient on
    [G/L] is |L|/|N(L)| and it has none on classes larger than L."""

    def check(e):
        order = facts[c][1]
        if e.coeffs[c] != Fraction(order, norm[c]):
            return f"coefficient on its own class is {e.coeffs[c]}"
        if any(e.coeffs[x] for x, (_, xo) in enumerate(facts) if xo > order):
            return "nonzero coefficient on a larger class"
        return None

    return check


# ---------------------------------------------------------------------------
# ring: Burnside-ring identities over shifted products G x K, |G x K| <= 48

RING_MAX_ORDER = 48
# K label -> G label -> (subgroups, classes) of G x K, recorded at the seed
# commit.  C2xC2xC2xC2 x C2 = C2^5 also matches the Gaussian-binomial count.
RING_LATTICE_COUNTS = {
    "1": {"C1": (1, 1), "C2": (2, 2), "C3": (2, 2), "C4": (3, 3), "C2xC2": (5, 5),
        "C5": (2, 2), "C6": (4, 4), "D6": (6, 4), "C7": (2, 2), "C8": (4, 4), "C4xC2": (8, 8),
        "C2xC2xC2": (16, 16), "D8": (10, 8), "Q8": (6, 6), "C9": (3, 3), "C3xC3": (6, 6),
        "C10": (4, 4), "D10": (8, 4), "C11": (2, 2), "C12": (6, 6), "C2xC2xC3": (10, 10),
        "D12": (16, 10), "A4": (10, 5), "C3:C4": (8, 6), "C13": (2, 2), "C14": (4, 4),
        "D14": (10, 4), "C15": (4, 4), "C16": (5, 5), "C8xC2": (11, 11), "C4xC4": (15, 15),
        "C4xC2xC2": (27, 27), "C2xC2xC2xC2": (67, 67), "D16": (19, 11), "SD16": (15, 10),
        "Q16": (11, 9), "M16": (11, 10), "D8xC2": (35, 27), "Q8xC2": (19, 19),
        "C4:C4": (15, 13), "C2xC2:C4": (23, 17), "D8xC4/N2": (23, 20)},
    "C2": {"C1": (2, 2), "C2": (5, 5), "C3": (4, 4), "C4": (8, 8), "C2xC2": (16, 16),
        "C5": (4, 4), "C6": (10, 10), "D6": (16, 10), "C7": (4, 4), "C8": (11, 11),
        "C4xC2": (27, 27), "C2xC2xC2": (67, 67), "D8": (35, 27), "Q8": (19, 19), "C9": (6, 6),
        "C3xC3": (12, 12), "C10": (10, 10), "D10": (22, 10), "C11": (4, 4), "C12": (16, 16),
        "C2xC2xC3": (32, 32), "D12": (54, 32), "A4": (26, 12), "C3:C4": (22, 16),
        "C13": (4, 4), "C14": (10, 10), "D14": (28, 10), "C15": (8, 8), "C16": (14, 14),
        "C8xC2": (38, 38), "C4xC4": (54, 54), "C4xC2xC2": (118, 118),
        "C2xC2xC2xC2": (374, 374), "D16": (70, 38), "SD16": (54, 34), "Q16": (38, 30),
        "M16": (38, 34), "D8xC2": (158, 118), "Q8xC2": (78, 78), "C4:C4": (54, 46),
        "C2xC2:C4": (94, 66), "D8xC4/N2": (94, 82)},
    "C4": {"C1": (3, 3), "C2": (8, 8), "C3": (6, 6), "C4": (15, 15), "C2xC2": (27, 27),
        "C5": (6, 6), "C6": (16, 16), "D6": (26, 16), "C7": (6, 6), "C8": (22, 22),
        "C4xC2": (54, 54), "C2xC2xC2": (118, 118), "D8": (62, 47), "Q8": (38, 35),
        "C9": (9, 9), "C3xC3": (18, 18), "C10": (16, 16), "D10": (36, 16), "C11": (6, 6),
        "C12": (30, 30), "C2xC2xC3": (54, 54), "D12": (92, 54), "A4": (42, 19),
        "C3:C4": (44, 30)},
}
DEFLATION_CLASSES_PER_N = 24  # classes L checked per normal N (all, if fewer)
STABILITY_MAX_ORDER = 8  # evaluation stability is checked where |G x K| <= 8


def setup_ring():
    return groups_up_to_order(16), (trivial_group(), make_cyclic(2), make_cyclic(4))


def ring_ops(inputs, rng: random.Random):
    """Every product lattice first, each in an op of its own, so that no
    identity op pays for an enumeration; then the identities, shuffled."""
    catalog, ks = inputs
    lattices, ops = [], []
    for K in ks:
        klat = enumerate_subgroups(K)
        for i, G in enumerate(catalog):
            if G.order * K.order > RING_MAX_ORDER:
                continue
            tag = f"#{i}x{K.label}"
            seed = rng.random()
            want = RING_LATTICE_COUNTS[K.label].get(G.label)
            lattices.append(Op(f"lattice {tag}", _product_lattice_run(G, K), _lattice_check(want)))
            ops.append(Op(f"deflation {tag}", _deflation_run(G, K, seed), _no_mismatch))
            ops.append(Op(f"orthogonality {tag}", _orthogonality_run(G, K, seed), _check_orthogonality))
            ops.append(Op(f"idempotent_sum {tag}", _sum_run(G, K), _check_sum))
            if G.order * K.order <= STABILITY_MAX_ORDER:
                for c in range(klat.n_classes()):
                    bk = embedding_over(K, klat.class_rep(c))
                    ops.append(Op(f"stability {tag}", _stability_run(bk, G, K), _no_mismatch))
    rng.shuffle(lattices)
    rng.shuffle(ops)
    return lattices + ops


def _product_lattice_run(G, K):
    return lambda: enumerate_subgroups(direct_product(G, K).group)


def _lattice_check(want):
    """(subgroups, classes) as recorded; every subgroup order divides the
    group order; 1 and G are there."""

    def check(lat):
        n = lat.parent.order
        orders = [S.order for S in lat.subgroups]
        if any(n % k for k in orders) or orders.count(1) != 1 or orders.count(n) != 1:
            return "subgroup orders do not fit Lagrange, or 1 or G is missing"
        got = (len(lat), lat.n_classes())
        return None if got == want else f"(subgroups, classes) = {got}, expected {want}"

    return check


def _no_mismatch(result):
    checked, bad = result
    if not checked:
        return "nothing was checked"
    return None if not bad else f"{bad} of {checked} identities fail"


def _deflation_run(G, K, seed):
    """Deflating e_L along (G ->> G/N) x Id_K gives
    |N(Lbar):Lbar| / |N(L):L| * m_{L, L n (N x 1)} * e_Lbar
    for every normal N of G; L is a seeded sample of subgroup classes."""

    def run():
        rng = random.Random(seed)
        GK = direct_product(G, K).group
        lat = enumerate_subgroups(GK)
        nc = lat.n_classes()
        checked = bad = 0
        for N in normal_subgroups(G):
            Q, pi = quotient(G, N)
            QK = direct_product(Q, K).group
            latq = enumerate_subgroups(QK)
            pis = shift_hom(pi, K)
            nmask = mask_of(n * K.order for n in N.elements())
            sample = range(nc) if nc <= DEFLATION_CLASSES_PER_N else rng.sample(range(nc), DEFLATION_CLASSES_PER_N)
            for c in sample:
                L = lat.class_rep(c)
                got = deflate(gluck_idempotent(GK, L), pis)
                j = subgroup_embedding(L)
                back = {j.image[i]: i for i in range(L.order)}
                LN = Subgroup(j.source, mask_of(back[x] for x in L.elements() if (nmask >> x) & 1))
                llat = enumerate_subgroups(j.source)
                m = m_constant(llat, llat.subgroups[-1], LN)
                lbar = mask_of(pis.image[x] for x in L.elements())
                nq = latq.normalizer_order(latq.index_of[lbar]) // lbar.bit_count()
                ng = lat.normalizer_order(lat.index_of[L.mask]) // L.order
                expected = (Fraction(nq, ng) * m) * gluck_idempotent(QK, Subgroup(QK, lbar))
                checked += 1
                bad += got.coeffs != expected.coeffs
        return checked, bad

    return run


def _orthogonality_run(G, K, seed):
    """e_i e_j for one seeded pair of classes: e_i if i == j, else 0."""

    def run():
        rng = random.Random(seed)
        GK = direct_product(G, K).group
        lat = enumerate_subgroups(GK)
        nc = lat.n_classes()
        i = rng.randrange(nc)
        j = i if rng.random() < 0.5 else rng.randrange(nc)
        ei = gluck_idempotent(GK, lat.class_rep(i))
        ej = ei if j == i else gluck_idempotent(GK, lat.class_rep(j))
        return i == j, multiply(ei, ej).coeffs, ei.coeffs

    return run


def _check_orthogonality(result):
    same, prod, ei = result
    if same:
        return None if tuple(prod) == tuple(ei) else "e_i e_i != e_i"
    return None if not any(prod) else "e_i e_j != 0 for i != j"


def _sum_run(G, K):
    def run():
        GK = direct_product(G, K).group
        lat = enumerate_subgroups(GK)
        total = reduce(operator.add, (gluck_idempotent(GK, lat.class_rep(c)) for c in range(lat.n_classes())))
        return total.coeffs, _class_of_mask(lat, (1 << GK.order) - 1)

    return run


def _check_sum(result):
    coeffs, top = result
    return None if tuple(coeffs) == _indicator(len(coeffs), top) else "sum of e_L is not [G/G]"


def _stability_run(bk, G, K):
    """The ideal evaluation of bk at G maps into the evaluation at the target
    of each of the five shifted elementary operations."""

    def run():
        allowed: dict[int, tuple] = {}

        def in_span(elem, target):
            if id(target) not in allowed:
                allowed[id(target)] = (target, set(ideal_eval(bk, target).basis_classes))
            return set(to_idempotent_basis(elem).support()) <= allowed[id(target)][1]

        GK = direct_product(G, K).group
        lat = enumerate_subgroups(GK)
        glat = enumerate_subgroups(G)
        subs = [glat.class_rep(c) for c in range(glat.n_classes())]
        quots = [quotient(G, N) for N in normal_subgroups(G)]
        auto = next(isomorphisms(G, G))
        checked = bad = 0

        def tally(ok):
            nonlocal checked, bad
            checked += 1
            bad += not ok

        for c in ideal_eval(bk, G).basis_classes:
            e = gluck_idempotent(GK, lat.class_rep(c))
            for H in subs:
                tally(in_span(shifted_restrict(e, H, K), subgroup_embedding(H).source))
            for Q, pi in quots:
                tally(in_span(shifted_deflate(e, pi, K), Q))
            tally(in_span(shifted_transport(e, auto, K), G))
        for H in subs:
            Hg = subgroup_embedding(H).source
            HK = direct_product(Hg, K).group
            hlat = enumerate_subgroups(HK)
            for c in ideal_eval(bk, Hg).basis_classes:
                tally(in_span(shifted_induce(gluck_idempotent(HK, hlat.class_rep(c)), H, K), G))
        for Q, pi in quots:
            QK = direct_product(Q, K).group
            qlat = enumerate_subgroups(QK)
            for c in ideal_eval(bk, Q).basis_classes:
                tally(in_span(shifted_inflate(gluck_idempotent(QK, qlat.class_rep(c)), pi, K), G))
        return checked, bad

    return run


# ---------------------------------------------------------------------------
# overk: many tiny groups over K; beta_K, classification, posets

# (K, p) -> number of p-persistent B_K-group classes: one per subgroup class
# H of K, plus one when H^[p] is cyclic (trivial included).  Every class
# has order <= p^2 |K| <= 16, so the catalog search below is exhaustive.
CLASSIFY_COUNTS = {("C2", 2): 4, ("C4", 2): 6, ("C2xC2", 2): 9, ("C3", 3): 4, ("S3", 2): 8, ("D8", 2): 13}
# 3^c * 2^nc ideals of the p-restricted lattice, as the census in
# scripts/lattice_census.py printed them at the seed commit.
CENSUS_TOTALS = {("C2", 2): 9, ("C4", 2): 27, ("C2xC2", 2): 162, ("C3", 3): 9, ("S3", 2): 81, ("D8", 2): 1944}
TRUNCATED_ORDERS = (4, 8)
CLOSED_SET_CAP = 10**4


def setup_overk():
    C2 = make_cyclic(2)
    ks = {
        "1": trivial_group(),
        "C2": C2,
        "C3": make_cyclic(3),
        "C4": make_cyclic(4),
        "C2xC2": direct_product(C2, C2).group,
        "S3": symmetric_group(3),
        "D8": dihedral_group(4),
    }
    return groups_up_to_order(16), ks


def overk_ops(inputs, rng: random.Random):
    """All (L, phi) first (one `homs` op per (L, K)), then the beta ops,
    classifications and closed-set counts in one seeded order, so that the
    heavy ops are spread over the round."""
    catalog, ks = inputs
    pairs = [(kname, i) for kname in ("1", "C2", "C4", "C2xC2", "S3", "D8") for i in range(len(catalog))]
    rng.shuffle(pairs)
    found = []
    for kname, i in pairs:
        box: dict = {}
        M, K = catalog[i], ks[kname]
        yield Op(f"homs #{i}/{kname}", _homs_run(M, K, box), lambda xs, M=M, K=K: _check_homs(xs, M, K))
        found.append((f"#{i}/{kname}", box.get("xs", ())))
    ops = [Op(f"beta {tag}", _beta_run(x), _all_hold) for tag, xs in found for x in xs]
    extra = [("classify", k, p) for k, p in CLASSIFY_COUNTS]
    extra += [("census", k, p) for k, p in CENSUS_TOTALS]
    extra += [("truncated", k, m) for k in ("1", "C2", "C4", "C2xC2") for m in TRUNCATED_ORDERS]
    ops += [_overk_extra_op(spec, catalog, ks) for spec in extra]
    rng.shuffle(ops)
    yield from ops


def _homs_run(M, K, box):
    def run():
        box["xs"] = groups_over_k(M, K)
        return box["xs"]

    return run


def _check_homs(xs, M, K):
    s, t = M.table, K.table
    seen = set()
    for x in xs:
        im = tuple(x.phi.image)
        if len(im) != M.order or im[0] != 0:
            return "malformed map"
        if any(im[s[a][b]] != t[im[a]][im[b]] for a in range(M.order) for b in range(M.order)):
            return "a listed map is not a homomorphism"
        seen.add(im)
    if len(seen) != len(xs):
        return "repeated homomorphism"
    if (0,) * M.order not in seen:
        return "trivial homomorphism missing"
    want = _count_homs(M, K)
    return None if len(seen) == want else f"{len(seen)} homomorphisms, brute-force count {want}"


def _generators(G) -> list[int]:
    """A generating set: add the first element not yet reached, until all are."""
    t, full = G.table, (1 << G.order) - 1
    gens: list[int] = []
    reached = 1
    while reached != full:
        gens.append(next(x for x in range(G.order) if not reached >> x & 1))
        reached, frontier = 1, [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = t[x][g]
                    if not reached >> y & 1:
                        reached |= 1 << y
                        nxt.append(y)
            frontier = nxt
    return gens


def _element_order(G, g: int) -> int:
    k, x = 1, g
    while x:
        x, k = G.table[x][g], k + 1
    return k


def _count_homs(M, K) -> int:
    """|Hom(M, K)| by brute force over generator images: a choice of images
    extends to a homomorphism iff walking the Cayley graph of M along the
    generators never assigns one element two images."""
    s, t = M.table, K.table
    gens = _generators(M)
    korder = [_element_order(K, y) for y in range(K.order)]
    choices = [[y for y in range(K.order) if _element_order(M, g) % korder[y] == 0] for g in gens]
    count = 0
    for ims in itertools.product(*choices):
        f = [-1] * M.order
        f[0] = 0
        frontier, ok = [0], True
        while frontier and ok:
            nxt = []
            for x in frontier:
                for g, y in zip(gens, ims):
                    z, w = s[x][g], t[f[x]][y]
                    if f[z] < 0:
                        f[z] = w
                        nxt.append(z)
                    elif f[z] != w:
                        ok = False
                        break
                if not ok:
                    break
            frontier = nxt
        count += ok
    return count


def _all_hold(props):
    failed = [k for k, v in props.items() if not v]
    return None if not failed else "fails: " + ", ".join(failed)


def _beta_run(x):
    """beta_K(x) and the properties of criterion 5."""

    def run():
        M = x.L
        lat = enumerate_subgroups(M)
        full = lat.subgroups[-1]
        b = beta_k(x)
        props = {
            "bk_verdict": is_bk_group(b),
            "quotient": is_quotient_over_k(x, b),
            "idempotent": is_isomorphic_over_k(beta_k(b), b),
        }
        ker = kernel(x.phi)
        admissible = [N for N in normal_subgroups(M) if N.mask & ker.mask == N.mask]
        m = {N.mask: m_constant(lat, full, N) for N in admissible}
        best = max(N.order for N in admissible if m[N.mask] != 0)
        props["well_defined"] = all(
            is_isomorphic_over_k(quotient_over_k(x, N), b)
            for N in admissible
            if m[N.mask] != 0 and N.order == best
        )
        props["preserved"] = all(
            is_isomorphic_over_k(beta_k(quotient_over_k(x, N)), b) == (m[N.mask] != 0)
            for N in admissible
        )
        return props

    return run


def _overk_extra_op(spec, catalog, ks):
    kind, kname, arg = spec
    K = ks[kname]
    if kind == "classify":
        return Op(f"classify {kname} p={arg}", _classify_run(K, arg, catalog), _classify_check(CLASSIFY_COUNTS[(kname, arg)]))
    if kind == "census":
        want = CENSUS_TOTALS[(kname, arg)]
        return Op(
            f"closed_sets {kname} p={arg}",
            lambda: _closed_count(build_bk_poset(K, P_RESTRICTED, p=arg)),
            lambda got: _closed_check(got, want),
        )
    return Op(
        f"closed_sets {kname} max_order={arg}",
        lambda: _closed_count(build_bk_poset(K, TRUNCATED, max_order=arg)),
        lambda got: _closed_check(got, None),
    )


def _classify_run(K, p, catalog):
    """The emitted classification against a search over all groups of order
    <= 16 mapping to K (criterion 8)."""

    def run():
        emitted = [x for x, _ in classify_p_persistent_bk(K, p)]
        found = []
        for L in catalog:
            for x in groups_over_k(L, K):
                if is_bk_group(x) and is_p_persistent(x, p) and not any(is_isomorphic_over_k(x, r) for r in found):
                    found.append(x)
        missing = sum(not any(is_isomorphic_over_k(f, e) for e in emitted) for f in found)
        extra = sum(not any(is_isomorphic_over_k(e, f) for f in found) for e in emitted)
        return len(emitted), len(found), missing, extra

    return run


def _classify_check(want):
    def check(result):
        emitted, found, missing, extra = result
        if (emitted, found, missing, extra) != (want, want, 0, 0):
            return f"emitted {emitted}, found {found}, missing {missing}, extra {extra}; expected {want}"
        return None

    return check


def _closed_count(poset):
    return len(closed_subsets(poset, cap=CLOSED_SET_CAP)), poset.quotient_rel


def _closed_check(result, want):
    got, rel = result
    brute = _count_closed(rel)
    if got != brute:
        return f"closed_subsets gives {got}, brute-force count {brute}"
    if want is not None and got != want:
        return f"{got} closed sets, census 3^c 2^nc gives {want}"
    return None


def _count_closed(rel) -> int:
    """Subsets S with: j in S and rel[i][j] implies i in S, by brute force."""
    n = len(rel)
    above = [sum(1 << i for i in range(n) if rel[i][j]) for j in range(n)]
    count = 0
    for s in range(1 << n):
        if all(not (s >> j & 1) or above[j] & s == above[j] for j in range(n)):
            count += 1
    return count


WORKLOADS = {
    "lattice": (setup_lattice, lattice_ops),
    "ring": (setup_ring, ring_ops),
    "overk": (setup_overk, overk_ops),
}
