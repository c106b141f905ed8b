"""Command-line driver.

Four subcommands over a group specification document:

    bgroups idempotent SPEC --group G --subgroup trivial|full|e1,e2,...
    bgroups beta-k     SPEC --k K --l L --phi PHI
    bgroups simple     SPEC --k K --l L --phi PHI --targets G1,G2,...
    bgroups p-lattice  SPEC --k K --p P

Common flags: --max-order N, --no-validate, --format {text,json},
--check/--no-check, --out FILE.

Exit codes: 0 success, 2 parse/validation error, 3 resource cap exceeded,
4 mathematical precondition failed.

Reports are deterministic: the same document and flags produce byte-identical
output.  Rationals are always rendered as "num/den".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .burnside import gluck_idempotent, marks_of
from .groups import (
    Group,
    GroupError,
    Subgroup,
    full_subgroup,
    kernel,
    set_validation,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
)
from .ideals import ClosedSetCapExceeded, minimal_groups, p_ideal_lattice, simple_dim
from .overk import (
    CASE_EMBEDDING,
    GroupOverK,
    beta_k_subgroup,
    is_bk_group,
    is_isomorphic,
    kernel_m_constants,
    p_persistent_case,
    quotient_over_k,
)
from .specdoc import GroupSpecDocument, SpecError, load_spec
from .subgroups import OrderBoundExceeded, enumerate_subgroups

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_MATH = 4

REPORT_VERSION = "1"


class MathPreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class CliConfig:
    max_order: int = 128
    validate: bool = True
    fmt: str = "text"
    check: bool = True
    out: str | None = None


@dataclass
class Report:
    meta: dict[str, str] = field(default_factory=dict)
    tables: dict[str, list[list[str]]] = field(default_factory=dict)


def rat(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def class_label(lat, c: int) -> str:
    """Stable label for a subgroup class: order plus a canonical generating
    word (greedy minimal generators of the deterministic class rep)."""
    rep = lat.class_rep(c)
    G = lat.parent
    gens: list[int] = []
    have = subgroup_generated(G, []).mask
    for x in rep.elements():
        if not (have >> x) & 1:
            gens.append(x)
            have = subgroup_generated(G, gens).mask
        if have == rep.mask:
            break
    return f"{rep.order}<{','.join(map(str, gens))}>"


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


def _base_meta(cmd: str, args, cfg: CliConfig) -> dict[str, str]:
    return {
        "report-version": REPORT_VERSION,
        "command": cmd,
        "spec": os.path.basename(args.spec),
        "max-order": str(cfg.max_order),
        "validate": str(cfg.validate).lower(),
        "check": str(cfg.check).lower(),
    }


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


def cmd_idempotent(doc: GroupSpecDocument, args, cfg: CliConfig) -> Report:
    G = doc.group(args.group)
    L = _parse_subgroup(G, args.subgroup)
    lat = enumerate_subgroups(G, order_bound=cfg.max_order)
    e = gluck_idempotent(G, L)
    report = Report(meta=_base_meta("idempotent", args, cfg))
    report.meta["group"] = f"{G.label} order={G.order}"
    report.meta["subgroup"] = class_label(lat, lat.class_of(L))
    report.meta["subgroup-classes"] = str(lat.n_classes())
    rows = [
        [class_label(lat, c), rat(e.coeffs[c])]
        for c in range(lat.n_classes())
    ]
    report.tables["coefficients"] = rows
    marks = marks_of(e)
    report.tables["marks"] = [
        [class_label(lat, c), rat(marks[c])] for c in range(lat.n_classes())
    ]
    if cfg.check:
        indicator = tuple(
            Fraction(1 if c == lat.class_of(L) else 0)
            for c in range(lat.n_classes())
        )
        report.meta["check-marks-indicator"] = (
            "pass" if marks == indicator else "FAIL"
        )
    return report


def _over_k(doc: GroupSpecDocument, args) -> GroupOverK:
    K, L, phi = doc.group(args.k), doc.group(args.l), doc.hom(args.phi)
    if phi.source != L or phi.target != K:
        raise SpecError(f"{args.phi!r} is not a homomorphism {args.l} -> {args.k}")
    return GroupOverK(L, phi, label=args.l)


def cmd_beta_k(doc: GroupSpecDocument, args, cfg: CliConfig) -> Report:
    x = _over_k(doc, args)
    lat = enumerate_subgroups(x.L, order_bound=cfg.max_order)
    report = Report(meta=_base_meta("beta-k", args, cfg))
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
    report.meta["beta-image-order"] = str(
        len({b.phi.image[a] for a in range(b.L.order)})
    )
    if cfg.check:
        report.meta["check-beta-is-bk"] = "pass" if is_bk_group(b) else "FAIL"
    return report


def cmd_simple(doc: GroupSpecDocument, args, cfg: CliConfig) -> Report:
    x = _over_k(doc, args)
    if not is_bk_group(x):
        raise MathPreconditionError(
            f"({args.l}, {args.phi}) is not a B_K-group; reduce it with the "
            "beta-k command first"
        )
    report = Report(meta=_base_meta("simple", args, cfg))
    report.meta["k"] = f"{x.K.label} order={x.K.order}"
    report.meta["l"] = f"{x.L.label} order={x.L.order}"
    mins = minimal_groups(x)
    report.tables["minimal-groups"] = [
        [f"minimal-{i}", f"order={g.order}"] for i, g in enumerate(mins)
    ]
    report.meta["minimal-order"] = str(mins[0].order if mins else 0)
    names = [t for t in args.targets.split(",") if t]
    rows = []
    for name in names:
        G = doc.group(name)
        if G.order * x.K.order > cfg.max_order:
            raise OrderBoundExceeded(
                f"product order {G.order * x.K.order} exceeds cap {cfg.max_order}"
            )
        rows.append([name, f"order={G.order}", f"dim={simple_dim(x, G)}"])
    report.tables["dimensions"] = rows
    if cfg.check:
        ok = all(
            not is_isomorphic(mins[i], mins[j])
            for i in range(len(mins))
            for j in range(i)
        )
        report.meta["check-minimal-distinct"] = "pass" if ok else "FAIL"
    return report


def cmd_p_lattice(doc: GroupSpecDocument, args, cfg: CliConfig) -> Report:
    K = doc.group(args.k)
    p = args.p
    report = Report(meta=_base_meta("p-lattice", args, cfg))
    report.meta["k"] = f"{K.label} order={K.order}"
    report.meta["p"] = str(p)
    lat = enumerate_subgroups(K, order_bound=cfg.max_order)
    desc = p_ideal_lattice(K, p, verify=cfg.check)
    rows = []
    for ci, (_, kind) in enumerate(desc.components):
        case = p_persistent_case(subgroup_as_group(lat.class_rep(ci)), p)
        cases = [CASE_EMBEDDING] + ([case] if case else [])
        rows.append([class_label(lat, ci), kind, "+".join(cases)])
    report.tables["components"] = rows
    report.meta["c-count"] = str(desc.c_count)
    report.meta["nc-count"] = str(desc.nc_count)
    report.meta["total-ideals"] = str(desc.total_ideals)
    if cfg.check:
        report.meta["verified"] = "pass" if desc.verified else "FAIL"
    else:
        report.meta["verified"] = "skipped"
    return report


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgroups",
        description="Exact computations with Burnside rings and relative B-groups.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("spec", help="group specification document")
        p.add_argument("--max-order", type=int, default=128,
                       help="subgroup-lattice order cap (default 128)")
        p.add_argument("--no-validate", action="store_true",
                       help="skip group-axiom validation on construction")
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
    cfg = CliConfig(
        max_order=args.max_order,
        validate=not args.no_validate,
        fmt=args.format,
        check=args.check,
        out=args.out,
    )
    set_validation(cfg.validate)
    try:
        try:
            doc = load_spec(args.spec)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        report = COMMANDS[args.cmd](doc, args, cfg)
    except (SpecError, GroupError) as exc:
        if isinstance(exc, (OrderBoundExceeded, ClosedSetCapExceeded)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RESOURCE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MathPreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    finally:
        set_validation(True)
    text = render_text(report) if cfg.fmt == "text" else render_json(report)
    sys.stdout.write(text)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
