"""Parser for group specification documents.

A document is a line-based text format defining named groups and named
homomorphisms.  Lines are directives; blank lines and '#' comments are
ignored.  Every name must be defined before use.

    group C4  = cyclic 4
    group S3  = symmetric 3
    group D8  = dihedral 4                # dihedral group of order 2n
    group T   = semidirect C3 C4 action 0:0,1,2 1:0,2,1 2:0,1,2 3:0,2,1
    group L   = product C2 T
    group A5p = perm 5 (0 1 2)(3 4), (0 1)
    quotient K phi = L by 12 4            # K = L/N, N = normal closure
    hom f = L -> K images 0 1 0 1 ...     # full image list

`semidirect N H action ...` lists, for every element h of H in id order,
`h:` followed by the images of all elements of N under the action of h.
`quotient` defines both the quotient group and the projection map.
The constructions check their input, and refuse a group over
`groups.MAX_GROUP_ORDER`, or a `perm` on more than `groups.MAX_PERM_DEGREE`
points, before building it, whether or not a command uses it;
`validate=False` skips only the homomorphism law of `hom` maps, whose
images are range-checked regardless.  Every error met while parsing a
line, an unknown name included, is raised as a `SpecError` that starts
with the line number, added in one place, except a group past the order
or degree limit, which stays a `ResourceLimit` with the same prefix.
"""

from __future__ import annotations

from .groups import (
    Group,
    GroupError,
    Homomorphism,
    ResourceLimit,
    _check_degree,
    _trusted,
    dihedral_group,
    direct_product,
    group_from_permutations,
    make_cyclic,
    quotient,
    relabel,
    semidirect_product,
    subgroup_generated,
    symmetric_group,
    Subgroup,
)


class SpecError(ValueError):
    """Raised on any parse or validation failure, with a line number when
    the failure is on a line of the document."""


class GroupSpecDocument:
    def __init__(self) -> None:
        self.groups: dict[str, Group] = {}
        self.homs: dict[str, Homomorphism] = {}

    def group(self, name: str) -> Group:
        if name not in self.groups:
            raise SpecError(f"unknown group {name!r}")
        return self.groups[name]

    def hom(self, name: str) -> Homomorphism:
        if name not in self.homs:
            raise SpecError(f"unknown homomorphism {name!r}")
        return self.homs[name]


def _parse_cycles(text: str, n: int) -> tuple[int, ...]:
    """'(0 1 2)(3 4)' -> permutation of range(n) as an image tuple.  The
    cycles are disjoint: a point named twice is refused, not composed."""
    perm = [-1] * n  # -1: a point no cycle names, which stays fixed
    body = text.strip()
    if not body.startswith("("):
        raise SpecError(f"expected cycle notation, got {text!r}")
    depth = 0
    cycles: list[list[int]] = []
    cur: list[str] = []
    for ch in body:
        if ch == "(":
            if depth:
                raise SpecError(f"nested parenthesis in {text!r}")
            depth, cur = 1, []
        elif ch == ")":
            if not depth:
                raise SpecError(f"unbalanced parenthesis in {text!r}")
            depth = 0
            cycles.append([int(tok) for tok in "".join(cur).split()])
        elif depth:
            cur.append(ch)
        elif not ch.isspace():
            raise SpecError(f"stray character {ch!r} in {text!r}")
    if depth:
        raise SpecError(f"unbalanced parenthesis in {text!r}")
    for cyc in cycles:
        if any(not 0 <= p < n for p in cyc):
            raise SpecError(f"bad cycle {cyc} on {n} points")
        for i, p in enumerate(cyc):
            if perm[p] >= 0:
                raise SpecError(f"point {p} appears twice in the cycles {body!r}")
            perm[p] = cyc[(i + 1) % len(cyc)]
    return tuple(q if q >= 0 else p for p, q in enumerate(perm))


def _parse_group_expr(doc: GroupSpecDocument, name: str, expr: str) -> Group:
    toks = expr.split()
    if not toks:
        raise SpecError("empty group expression")
    kind = toks[0]
    try:
        if kind in ("cyclic", "symmetric", "dihedral"):
            (n,) = map(int, toks[1:])  # exactly one argument, else ValueError
            if kind == "cyclic":
                return make_cyclic(n, label=name)
            g = symmetric_group(n) if kind == "symmetric" else dihedral_group(n)
        elif kind == "product":
            if len(toks) < 3:
                raise SpecError("product needs two or more factors")
            g = doc.group(toks[1])
            for factor in toks[2:]:
                g = direct_product(g, doc.group(factor)).group
        elif kind == "semidirect":
            if len(toks) < 4 or toks[3] != "action":
                raise SpecError("expected 'semidirect N H action h:images ...'")
            N, H = doc.group(toks[1]), doc.group(toks[2])
            action: list[tuple[int, ...]] = [()] * H.order
            seen = set()
            for item in toks[4:]:
                if ":" not in item:
                    raise SpecError(f"bad action item {item!r}")
                h_txt, imgs_txt = item.split(":", 1)
                h = int(h_txt)
                if not 0 <= h < H.order or h in seen:
                    raise SpecError(f"bad or repeated element {h}")
                seen.add(h)
                action[h] = tuple(int(v) for v in imgs_txt.split(","))
                if len(action[h]) != N.order:
                    raise SpecError(f"action of {h} must list {N.order} images")
            if len(seen) != H.order:
                raise SpecError("action must cover every element of H")
            g = semidirect_product(N, H, tuple(action))
        elif kind == "perm":
            npoints = int(toks[1])
            _check_degree(npoints)  # before _parse_cycles builds a list of the points
            rest = expr.split(None, 2)[2]
            gens = [
                _parse_cycles(part, npoints)
                for part in rest.split(",")
                if part.strip()
            ]
            if not gens:
                raise SpecError("perm needs at least one generator")
            g = group_from_permutations(npoints, gens, label=name)
        else:
            raise SpecError(f"unknown construction {kind!r}")
    except (IndexError, ValueError) as exc:
        if isinstance(exc, (SpecError, GroupError)):  # a construction's own reason
            raise
        raise SpecError(f"malformed group expression {expr!r}") from exc
    return relabel(g, name)


def _normal_closure(G: Group, elems: list[int]) -> Subgroup:
    gens = set(elems)
    for e in elems:
        for g in range(G.order):
            gens.add(G.conj(e, g))
    return subgroup_generated(G, sorted(gens))


def parse_spec(text: str, validate: bool = True) -> GroupSpecDocument:
    doc = GroupSpecDocument()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "group":
                if len(toks) < 4 or toks[2] != "=":
                    raise SpecError("expected 'group NAME = ...'")
                name = toks[1]
                if name in doc.groups:
                    raise SpecError(f"group {name!r} redefined")
                doc.groups[name] = _parse_group_expr(doc, name, line.split("=", 1)[1].strip())
            elif toks[0] == "quotient":
                # quotient QNAME HOMNAME = GNAME by e1 e2 ...
                if len(toks) < 7 or toks[3] != "=" or toks[5] != "by":
                    raise SpecError("expected 'quotient Q PI = G by elems...'")
                qname, hname, gname = toks[1], toks[2], toks[4]
                if qname in doc.groups or hname in doc.homs:
                    raise SpecError("name redefined")
                G = doc.group(gname)
                elems = [int(t) for t in toks[6:]]
                if any(not 0 <= e < G.order for e in elems):
                    raise SpecError("element id out of range")
                Q, pi = quotient(G, _normal_closure(G, elems))
                doc.groups[qname] = Q = relabel(Q, qname)
                doc.homs[hname] = _trusted(Homomorphism, G, Q, pi.image)
            elif toks[0] == "hom":
                # hom NAME = SRC -> DST images i0 i1 ...
                if (len(toks) < 8 or toks[2] != "=" or toks[4] != "->"
                        or toks[6] != "images"):
                    raise SpecError("expected 'hom NAME = SRC -> DST images ...'")
                name = toks[1]
                if name in doc.homs:
                    raise SpecError(f"homomorphism {name!r} redefined")
                src, dst = doc.group(toks[3]), doc.group(toks[5])
                img = tuple(int(t) for t in toks[7:])
                if len(img) != src.order:
                    raise SpecError(f"expected {src.order} images, got {len(img)}")
                if any(not 0 <= v < dst.order for v in img):
                    raise SpecError("image element out of range")
                doc.homs[name] = (Homomorphism(src, dst, img) if validate
                                  else _trusted(Homomorphism, src, dst, img))
            else:
                raise SpecError(f"unknown directive {toks[0]!r}")
        except ValueError as exc:  # a SpecError, a GroupError, or a bad int
            # one place adds the line number, also to an unknown name; a
            # construction past its order limit stays a ResourceLimit
            error = ResourceLimit if isinstance(exc, ResourceLimit) else SpecError
            raise error(f"line {lineno}: {exc}") from exc
    return doc


def load_spec(path: str, validate: bool = True) -> GroupSpecDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec(fh.read(), validate)
