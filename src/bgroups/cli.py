"""Command-line driver.

Four subcommands over a group specification document:

    bgroups idempotent SPEC --group G --subgroup trivial|full|e1,e2,...
    bgroups beta-k     SPEC --k K --l L --phi PHI
    bgroups simple     SPEC --k K --l L --phi PHI --targets G1,G2,...
    bgroups p-lattice  SPEC --k K --p P

Common flags: --max-order N, --no-validate, --format {text,json},
--check/--no-check, --out FILE.

Exit codes: 0 success, 2 parse/validation error or a spec or --out file
that cannot be opened, 3 resource cap exceeded or out of memory, 4
mathematical precondition failed.

Reports are deterministic: the same document and flags produce byte-identical
output.  Rationals are always rendered as "num/den".
"""

from __future__ import annotations

import argparse
import os
import sys
from decimal import Decimal
from fractions import Fraction

# A command imports the modules it runs (burnside, overk, ideals) itself,
# so a process starts with only the spec parser and the lattice loaded.
from .groups import (
    Group,
    GroupError,
    ResourceLimit,
    Subgroup,
    full_subgroup,
    greedy_generators,
    image,
    kernel,
    subgroup_generated,
    trivial_subgroup,
)
from .specdoc import GroupSpecDocument, SpecError, load_spec
from .subgroups import enumerate_subgroups

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_MATH = 4

REPORT_VERSION = "1"


class MathPreconditionError(ValueError):
    pass


class OrderBoundExceeded(ResourceLimit):
    """Group too large for exhaustive subgroup enumeration."""


class Report:
    def __init__(self, meta: dict[str, str] | None = None) -> None:
        self.meta = {} if meta is None else meta
        self.tables: dict[str, list[list[str]]] = {}


def rat(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def class_label(lat, c: int) -> str:
    """Stable label for a subgroup class: order plus a canonical generating
    word (the greedy generators of the deterministic class rep)."""
    rep = lat.class_rep(c)
    return f"{rep.order}<{','.join(map(str, greedy_generators(lat.parent, rep.mask)))}>"


def render_text(report: Report) -> str:
    lines = []
    for k, v in report.meta.items():
        lines.append(f"{k}: {v}")
    for name, rows in report.tables.items():
        lines.append(f"table {name}:")
        for row in rows:
            lines.append("  " + " | ".join(row))
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    import json

    return json.dumps({"meta": report.meta, "tables": report.tables}, indent=2) + "\n"


def read_report(text: str) -> Report:
    """Parse a text report back into its structured form (inverse of
    render_text for reports produced by this tool)."""
    report = Report()
    current: list[list[str]] | None = None
    for raw in text.splitlines():
        if not raw.strip():
            continue
        if raw.startswith("  ") and current is not None:
            current.append([cell.strip() for cell in raw.strip().split(" | ")])
        elif raw.startswith("table ") and raw.rstrip().endswith(":"):
            name = raw[len("table "):].rstrip()[:-1]
            current = []
            report.tables[name] = current
        else:
            key, _, value = raw.partition(": ")
            report.meta[key] = value
            current = None
    return report


# ---------------------------------------------------------------------------
# subcommands


def _base_meta(cmd: str, args) -> dict[str, str]:
    return {
        "report-version": REPORT_VERSION,
        "command": cmd,
        "spec": os.path.basename(args.spec),
        "max-order": str(args.max_order),
        "validate": str(not args.no_validate).lower(),
        "check": str(args.check).lower(),
    }


def _check_orders(args, *orders: int) -> None:
    """Refuse, before any work, a group larger than --max-order whose subgroup
    lattice the command would enumerate, or whose table its check builds."""
    largest = max(orders)
    if largest > args.max_order:
        raise OrderBoundExceeded(
            f"group order {largest} exceeds enumeration bound {args.max_order}"
        )


def _parse_subgroup(G: Group, selector: str) -> Subgroup:
    if selector == "trivial":
        return trivial_subgroup(G)
    if selector == "full":
        return full_subgroup(G)
    try:
        elems = [int(t) for t in selector.split(",")]
    except ValueError as exc:
        raise SpecError(f"bad subgroup selector {selector!r}") from exc
    if any(not 0 <= e < G.order for e in elems):
        raise SpecError(f"subgroup selector {selector!r} out of range")
    return subgroup_generated(G, elems)


def cmd_idempotent(doc: GroupSpecDocument, args) -> Report:
    from .burnside import gluck_idempotent, marks_of

    G = doc.group(args.group)
    _check_orders(args, G.order)
    L = _parse_subgroup(G, args.subgroup)
    lat = enumerate_subgroups(G)
    e = gluck_idempotent(G, L)
    report = Report(meta=_base_meta("idempotent", args))
    report.meta["group"] = f"{G.label} order={G.order}"
    report.meta["subgroup"] = class_label(lat, lat.class_of(L))
    report.meta["subgroup-classes"] = str(lat.n_classes())
    labels = [class_label(lat, c) for c in range(lat.n_classes())]
    marks = marks_of(e)
    report.tables["coefficients"] = [[lb, rat(v)] for lb, v in zip(labels, e.coeffs)]
    report.tables["marks"] = [[lb, rat(v)] for lb, v in zip(labels, marks)]
    if args.check:
        cl = lat.class_of(L)
        indicator = tuple(Fraction(1 if c == cl else 0) for c in range(lat.n_classes()))
        report.meta["check-marks-indicator"] = (
            "pass" if marks == indicator else "FAIL"
        )
    return report


def _over_k(doc: GroupSpecDocument, args):
    from .overk import GroupOverK

    K, L, phi = doc.group(args.k), doc.group(args.l), doc.hom(args.phi)
    if phi.source != L or phi.target != K:
        raise SpecError(f"{args.phi!r} is not a homomorphism {args.l} -> {args.k}")
    return GroupOverK(L, phi)


def cmd_beta_k(doc: GroupSpecDocument, args) -> Report:
    from .overk import beta_k_subgroup, is_bk_group, kernel_m_constants, quotient_over_k

    x = _over_k(doc, args)
    _check_orders(args, x.L.order)
    lat = enumerate_subgroups(x.L)
    report = Report(meta=_base_meta("beta-k", args))
    report.meta["k"] = f"{x.K.label} order={x.K.order}"
    report.meta["l"] = f"{x.L.label} order={x.L.order}"
    report.meta["kernel-order"] = str(kernel(x.phi).order)
    ms = list(kernel_m_constants(x))
    report.tables["m-constants"] = [
        [class_label(lat, lat.class_of(N)), rat(m)] for N, m in ms
    ]
    chosen = beta_k_subgroup(ms)
    report.meta["verdict"] = "B_K-group" if chosen.is_trivial() else "not a B_K-group"
    report.meta["chosen-q"] = class_label(lat, lat.class_of(chosen))
    b = quotient_over_k(x, chosen)
    report.meta["beta-order"] = str(b.L.order)
    report.meta["beta-image-order"] = str(image(b.phi).order)
    if args.check:
        report.meta["check-beta-is-bk"] = "pass" if is_bk_group(b) else "FAIL"
    return report


def cmd_simple(doc: GroupSpecDocument, args) -> Report:
    from .ideals import minimal_groups, simple_dim
    from .overk import is_bk_group, is_isomorphic

    x = _over_k(doc, args)
    targets = [(name, doc.group(name)) for name in args.targets.split(",") if name]
    _check_orders(args, x.L.order, *(G.order * x.K.order for _, G in targets))
    if not is_bk_group(x):
        raise MathPreconditionError(
            f"({args.l}, {args.phi}) is not a B_K-group; reduce it with the "
            "beta-k command first"
        )
    report = Report(meta=_base_meta("simple", args))
    report.meta["k"] = f"{x.K.label} order={x.K.order}"
    report.meta["l"] = f"{x.L.label} order={x.L.order}"
    mins = minimal_groups(x)
    report.tables["minimal-groups"] = [
        [f"minimal-{i}", f"order={g.order}"] for i, g in enumerate(mins)
    ]
    report.meta["minimal-order"] = str(mins[0].order if mins else 0)
    report.tables["dimensions"] = [
        [name, f"order={G.order}", f"dim={simple_dim(x, G)}"] for name, G in targets
    ]
    if args.check:
        ok = all(
            not is_isomorphic(mins[i], mins[j])
            for i in range(len(mins))
            for j in range(i)
        )
        report.meta["check-minimal-distinct"] = "pass" if ok else "FAIL"
    return report


def cmd_p_lattice(doc: GroupSpecDocument, args) -> Report:
    from .ideals import count_p_ideals, p_ideal_lattice
    from .overk import CASE_CP, CASE_CP2, CASE_EMBEDDING

    K = doc.group(args.k)
    p = args.p
    _check_orders(args, K.order)
    desc = p_ideal_lattice(K, p)
    lat = enumerate_subgroups(K)
    reps = [lat.class_rep(c) for c in range(lat.n_classes())]
    if args.check:  # the check builds each node's table, and no lattice: H, C_p x H, C_p^2 x H
        extra = {CASE_CP: p, CASE_CP2: p * p}
        _check_orders(args, *(H.order * extra.get(c, 1) for H, c in zip(reps, desc.cases)))
    report = Report(meta=_base_meta("p-lattice", args))
    report.meta["k"] = f"{K.label} order={K.order}"
    report.meta["p"] = str(p)
    report.tables["components"] = [
        [class_label(lat, ci), "isolated" if case is None else "chain2",
         "+".join(filter(None, (CASE_EMBEDDING, case)))]
        for ci, case in enumerate(desc.cases)
    ]
    report.meta["c-count"] = str(desc.c_count)
    report.meta["nc-count"] = str(desc.nc_count)
    # str(int) refuses counts over 4300 digits (C2^7 has 8,817); Decimal is exact
    report.meta["total-ideals"] = str(Decimal(desc.total_ideals))
    if args.check:
        report.meta["verified"] = "pass" if count_p_ideals(desc) == desc.total_ideals else "FAIL"
    else:
        report.meta["verified"] = "skipped"
    return report


# ---------------------------------------------------------------------------
# driver


def _positive_int(text: str) -> int:
    """An order bound: no group has fewer than one element."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgroups",
        description="Exact computations with Burnside rings and relative B-groups.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("spec", help="group specification document")
        p.add_argument("--max-order", type=_positive_int, default=128,
                       help="largest group whose subgroup lattice the command "
                            "enumerates, or whose table the p-lattice check builds, "
                            "checked before any work (default %(default)s)")
        p.add_argument("--no-validate", action="store_true",
                       help="skip the homomorphism law check of the spec's hom maps")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--check", dest="check", action="store_true", default=True,
                       help="run cross-check oracles (default)")
        p.add_argument("--no-check", dest="check", action="store_false")
        p.add_argument("--out", default=None,
                       help="also write the report to this file")

    p = sub.add_parser("idempotent", help="primitive idempotent and its marks")
    common(p)
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup", required=True,
                   help="'trivial', 'full', or comma-separated generator ids")

    p = sub.add_parser("beta-k", help="largest B_K-group quotient")
    common(p)
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--phi", required=True)

    p = sub.add_parser("simple", help="minimal groups and simple dimensions")
    common(p)
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--targets", required=True,
                   help="comma-separated group names to evaluate at")

    p = sub.add_parser("p-lattice", help="p-restricted ideal lattice census")
    common(p)
    p.add_argument("--k", required=True)
    p.add_argument("--p", type=int, required=True)
    return parser


COMMANDS = {
    "idempotent": cmd_idempotent,
    "beta-k": cmd_beta_k,
    "simple": cmd_simple,
    "p-lattice": cmd_p_lattice,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = COMMANDS[args.cmd](load_spec(args.spec, not args.no_validate), args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:  # the frames that held the memory are gone by now
        print("error: out of memory: the input needs more memory than this process may use",
              file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, SpecError, GroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MathPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    text = render_text(report) if args.format == "text" else render_json(report)
    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # an --out path that cannot be written ends like a bad spec path
            # a failed write or flush (a full disk) names no file, so name it here
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_PARSE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
