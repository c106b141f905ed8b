"""Span tracing for the benchmark, installed from outside the library.

`install()` wraps public bgroups functions and methods.  Each call records
a span (name, start, end, parent span, op id) in flat arrays that stay in
memory until `Tracer.summary()` or `Tracer.write_spans()` runs at the end
of a traced run.  Modules import one another's functions by name
(`from .subgroups import enumerate_subgroups`), so a wrapper replaces every
bgroups module attribute, and every value of a module-level dict, that
refers to the wrapped object.

Only public names are wrapped.  A name missing at some commit is skipped
and listed in `Tracer.missing`; the metrics derived from it are reported
as absent, not as a crash.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

MODULES = ("groups", "subgroups", "burnside", "overk", "ideals", "catalog", "specdoc", "cli")

# (span name, module, attribute path).  Spans that share a name are one
# timer; the "<layer>.other" spans exist so that time spent in the rest of
# a layer is not charged to its caller.  Tiny per-element helpers
# (Group.mul, conjugate_mask, ...) are not wrapped: they are called millions
# of times and their time lands in the enclosing span.
TARGETS = (
    ("groups.construct", "groups", "Group.__init__"),
    ("groups.construct", "groups", "Homomorphism.__init__"),
    ("groups.construct", "groups", "Subgroup.__init__"),
    ("groups.close_subset", "groups", "close_subset"),
    ("groups.quotient", "groups", "quotient"),
    ("groups.direct_product", "groups", "direct_product"),
    ("groups.other", "groups", "semidirect_product"),
    ("groups.other", "groups", "subgroup_generated"),
    ("groups.other", "groups", "subgroup_embedding"),
    ("groups.other", "groups", "kernel"),
    ("groups.other", "groups", "is_normal"),
    ("groups.other", "groups", "o_p_subgroup"),
    ("groups.other", "groups", "inner_automorphisms"),
    ("groups.other", "groups", "symmetric_group"),
    ("groups.other", "groups", "group_from_permutations"),
    ("subgroups.enumerate", "subgroups", "enumerate_subgroups"),
    ("subgroups.marks", "subgroups", "SubgroupLattice.marks"),
    ("subgroups.moebius", "subgroups", "SubgroupLattice.moebius"),
    ("subgroups.m_constant", "subgroups", "m_constant"),
    ("subgroups.normal_subgroups", "subgroups", "normal_subgroups"),
    ("subgroups.other", "subgroups", "SubgroupLattice.normalizer_order"),
    ("subgroups.other", "subgroups", "count_complements"),
    ("burnside.idempotent", "burnside", "gluck_idempotent"),
    ("burnside.marks_of", "burnside", "marks_of"),
    ("burnside.to_transitive", "burnside", "to_transitive_basis"),
    ("burnside.multiply", "burnside", "multiply"),
    ("burnside.restrict", "burnside", "restrict"),
    ("burnside.induce", "burnside", "induce"),
    ("burnside.inflate", "burnside", "inflate"),
    ("burnside.deflate", "burnside", "deflate"),
    ("burnside.transport", "burnside", "transport"),
    ("burnside.shifted_restrict", "burnside", "shifted_restrict"),
    ("burnside.shifted_induce", "burnside", "shifted_induce"),
    ("burnside.shifted_inflate", "burnside", "shifted_inflate"),
    ("burnside.shifted_deflate", "burnside", "shifted_deflate"),
    ("burnside.shifted_transport", "burnside", "shifted_transport"),
    ("burnside.other", "burnside", "BurnsideElement.__add__"),
    ("burnside.other", "burnside", "BurnsideElement.__rmul__"),
    ("burnside.other", "burnside", "zero"),
    ("burnside.other", "burnside", "from_class_coeffs"),
    ("burnside.other", "burnside", "identity_element"),
    ("burnside.other", "burnside", "to_idempotent_basis"),
    ("burnside.other", "burnside", "shift_hom"),
    ("overk.homomorphisms", "overk", "homomorphisms"),
    ("overk.is_isomorphic", "overk", "is_isomorphic"),
    ("overk.iso_over_k", "overk", "is_isomorphic_over_k"),
    ("overk.is_quotient", "overk", "is_quotient_over_k"),
    ("overk.beta_k", "overk", "beta_k"),
    ("overk.is_bk_group", "overk", "is_bk_group"),
    ("overk.classify", "overk", "classify_p_persistent_bk"),
    ("overk.other", "overk", "quotient_over_k"),
    ("overk.other", "overk", "is_p_persistent"),
    ("overk.other", "overk", "groups_over_k"),
    ("overk.other", "overk", "dedupe_over_k"),
    ("overk.other", "overk", "embedding_over"),
    ("overk.other", "overk", "pair_from_subgroup"),
    ("ideals.simple_dim", "ideals", "simple_dim"),
    ("ideals.ideal_eval", "ideals", "ideal_eval"),
    ("ideals.minimal_groups", "ideals", "minimal_groups"),
    ("ideals.build_bk_poset", "ideals", "build_bk_poset"),
    ("ideals.closed_subsets", "ideals", "closed_subsets"),
    ("ideals.p_ideal_lattice", "ideals", "p_ideal_lattice"),
    ("catalog.build", "catalog", "groups_of_order"),
    ("catalog.build", "catalog", "groups_up_to_order"),
    ("specdoc.load_spec", "specdoc", "load_spec"),
    ("cli.report", "cli", "cmd_idempotent"),
    ("cli.report", "cli", "cmd_beta_k"),
    ("cli.report", "cli", "cmd_simple"),
    ("cli.report", "cli", "cmd_p_lattice"),
    ("cli.report", "cli", "class_label"),
    ("cli.report", "cli", "render_text"),
    ("cli.report", "cli", "render_json"),
)

ROOT = "op"  # span around one benchmark op; its self time is unattributed


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self.op_of = array("l")
        self.stack: list[int] = []
        self.op_id = 0
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.import_s: float | None = None  # `import bgroups.cli` in a fresh interpreter

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name_id.append(self._nid(name))
        self.op_of.append(self.op_id)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one benchmark op (op 0 is the set-up)."""
        self.op_id = op_id
        return self.open(ROOT)

    def end_op(self, idx: int) -> None:
        """Close the op's root span, and any span a deadline left open.

        A deadline can also land between the appends of `open`, so the
        arrays are first cut back to the spans that were recorded whole.
        """
        now = perf_counter()
        whole = min(len(self.start), len(self.end), len(self.parent), len(self.name_id), len(self.op_of))
        for arr in (self.start, self.end, self.parent, self.name_id, self.op_of):
            del arr[whole:]
        self.stack = [j for j in self.stack if j < whole]
        while self.stack and self.stack[-1] != idx:
            j = self.stack.pop()
            if not self.end[j]:
                self.end[j] = now
        self.close(idx)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(self, None, args, exc)
                raise
            finally:
                self.close(idx)
            if observe is not None:
                observe(self, result, args, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self seconds per span name, plus the counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans: dict[str, list[float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            rec = spans.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - child[i]
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in spans.items()},
            "counters": dict(self.counters),
            "missing": list(self.missing),
            "import_s": self.import_s,
        }

    def write_spans(self, path: str) -> None:
        """All spans, as a JSON header line and then the raw arrays.

        The header gives the span count, the name table and the arrays in
        file order with their `array` typecodes; span i has start[i],
        end[i] (perf_counter seconds), parent[i] (-1 for a root),
        name_id[i] and op_of[i].
        """
        fields = ("start", "end", "parent", "name_id", "op_of")
        header = {
            "count": len(self.start),
            "names": self.names,
            "arrays": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


# -- counters observed at span boundaries ------------------------------------


def _seen(obj, flag: str) -> bool:
    """Mark `obj` as seen under `flag`; True if it already was."""
    if getattr(obj, flag, False):
        return True
    try:
        setattr(obj, flag, True)
    except (AttributeError, TypeError):
        pass
    return False


def _on_enumerate(tr, lat, args, exc):
    if exc is None and not _seen(lat, "_perfbench_counted"):
        tr.count("subgroups.enumerate.lattices_built")
        tr.count("subgroups.enumerate.subgroups_found", len(lat))
        tr.count("subgroups.enumerate.classes", lat.n_classes())


def _on_marks(tr, table, args, exc):
    if exc is None and not _seen(args[0], "_perfbench_marks_counted"):
        tr.count("subgroups.marks.entries", sum(len(row) for row in table))


def _on_homs(tr, homs, args, exc):
    if exc is None:
        tr.count("overk.homomorphisms.found", len(homs))


def _true_counter(key):
    def observe(tr, result, args, exc):
        if exc is None and result:
            tr.count(key)

    return observe


def _on_closed(tr, sets, args, exc):
    if exc is None:
        tr.count("ideals.closed_subsets.sets", len(sets))
    elif type(exc).__name__ == "ClosedSetCapExceeded":
        tr.count("ideals.closed_subsets.cap_hits")


def _on_poset(tr, poset, args, exc):
    if exc is None:
        tr.count("ideals.poset_nodes", len(poset.nodes))


OBSERVERS = {
    "enumerate_subgroups": _on_enumerate,
    "SubgroupLattice.marks": _on_marks,
    "homomorphisms": _on_homs,
    "is_isomorphic_over_k": _true_counter("overk.iso_over_k.trues"),
    "is_quotient_over_k": _true_counter("overk.is_quotient.trues"),
    "closed_subsets": _on_closed,
    "build_bk_poset": _on_poset,
}


def _rebind(modules, old, new) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new


def install(tracer: Tracer) -> Tracer:
    """Wrap every name in TARGETS that exists in the imported library.

    If bgroups is not imported yet, `import bgroups.cli` (which imports every
    module) is timed first, before any wrapper exists.
    """
    if "bgroups" not in sys.modules:
        t0 = perf_counter()
        try:
            importlib.import_module("bgroups.cli")
            tracer.import_s = perf_counter() - t0
        except ImportError:
            pass
    modules = {}
    for short in MODULES:
        try:
            modules[short] = importlib.import_module("bgroups." + short)
        except ImportError:
            tracer.missing.append("bgroups." + short)
    loaded = [m for name, m in sys.modules.items() if name == "bgroups" or name.startswith("bgroups.")]
    for span, short, path in TARGETS:
        mod = modules.get(short)
        owner, _, attr = path.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        fn = getattr(holder, attr, None) if holder is not None else None
        if fn is None or (owner and attr not in vars(holder)):
            tracer.missing.append(f"{short}.{path}")
            continue
        wrapped = tracer.wrap(span, fn, OBSERVERS.get(path))
        if owner:
            setattr(holder, attr, wrapped)
        else:
            _rebind(loaded, fn, wrapped)
    return tracer


# -- per-layer metrics ---------------------------------------------------------

BISET = tuple(
    f"burnside.{prefix}{op}"
    for op in ("restrict", "induce", "inflate", "deflate", "transport")
    for prefix in ("", "shifted_")
)
# (span, fields) reported as "<span>.<field>"
SPAN_FIELDS = (
    ("groups.construct", ("calls", "self_s")),
    ("groups.close_subset", ("calls", "self_s")),
    ("groups.quotient", ("calls", "self_s")),
    ("groups.direct_product", ("calls", "self_s")),
    ("subgroups.enumerate", ("calls", "self_s")),
    ("subgroups.marks", ("self_s",)),
    ("subgroups.moebius", ("calls", "self_s")),
    ("subgroups.m_constant", ("calls", "self_s")),
    ("subgroups.normal_subgroups", ("calls", "self_s")),
    ("burnside.idempotent", ("calls", "self_s")),
    ("burnside.marks_of", ("calls", "self_s")),
    ("burnside.to_transitive", ("self_s",)),
    ("burnside.multiply", ("self_s",)),
    ("burnside.deflate", ("self_s",)),
    ("burnside.restrict", ("self_s",)),
    ("overk.homomorphisms", ("calls", "self_s")),
    ("overk.is_isomorphic", ("calls", "self_s")),
    ("overk.iso_over_k", ("calls", "self_s")),
    ("overk.is_quotient", ("calls", "self_s")),
    ("overk.beta_k", ("calls", "self_s")),
    ("overk.is_bk_group", ("self_s",)),
    ("overk.classify", ("self_s",)),
    ("ideals.simple_dim", ("self_s",)),
    ("ideals.ideal_eval", ("self_s",)),
    ("ideals.minimal_groups", ("self_s",)),
    ("ideals.build_bk_poset", ("self_s",)),
    ("ideals.closed_subsets", ("self_s",)),
    ("ideals.p_ideal_lattice", ("self_s",)),
    ("catalog.build", ("self_s",)),
    ("specdoc.load_spec", ("self_s",)),
    ("cli.report", ("self_s",)),
)
# counter -> span it is counted at
COUNTERS = {
    "subgroups.enumerate.lattices_built": "subgroups.enumerate",
    "subgroups.enumerate.subgroups_found": "subgroups.enumerate",
    "subgroups.enumerate.classes": "subgroups.enumerate",
    "subgroups.marks.entries": "subgroups.marks",
    "overk.homomorphisms.found": "overk.homomorphisms",
    "ideals.closed_subsets.sets": "ideals.closed_subsets",
    "ideals.closed_subsets.cap_hits": "ideals.closed_subsets",
    "ideals.poset_nodes": "ideals.build_bk_poset",
}


def merge(summaries: list[dict]) -> dict:
    """Sum span and counter totals over several traced processes."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for s in summaries:
        for name, rec in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += rec[k]
        for k, v in s["counters"].items():
            counters[k] = counters.get(k, 0) + v
        missing.update(s["missing"])
    return {"spans": spans, "counters": counters, "missing": sorted(missing)}


def _absent_spans(missing) -> set[str]:
    present = {span for span, short, path in TARGETS if f"{short}.{path}" not in missing}
    return {span for span, _, _ in TARGETS} - present


def layer_metrics(merged: dict, rounds: int) -> dict:
    """Per-layer metrics per round; None marks a metric whose library names
    are missing at this commit."""
    spans, counters = merged["spans"], merged["counters"]
    absent = _absent_spans(merged["missing"])

    def field(span, key):
        if span in absent:
            return None
        return spans.get(span, {}).get(key, 0) / rounds

    out: dict = {}
    for span, fields in SPAN_FIELDS:
        for key in fields:
            out[f"{span}.{key}"] = field(span, key)
    live = [s for s in BISET if s not in absent]
    out["burnside.biset.calls"] = sum(field(s, "calls") for s in live) if live else None
    out["burnside.biset.self_s"] = sum(field(s, "self_s") for s in live) if live else None
    for name, span in COUNTERS.items():
        out[name] = None if span in absent else counters.get(name, 0) / rounds

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    built = out["subgroups.enumerate.lattices_built"]
    calls = out["subgroups.enumerate.calls"]
    out["subgroups.enumerate.hit_ratio"] = None if calls is None else (1 - built / calls if calls else 0.0)
    for span, key in (("overk.iso_over_k", "overk.iso_over_k.trues"), ("overk.is_quotient", "overk.is_quotient.trues")):
        trues = None if span in absent else counters.get(key, 0) / rounds
        out[f"{span}.true_ratio"] = ratio(trues, out[f"{span}.calls"])
    op = spans.get(ROOT, {"total_s": 0.0, "self_s": 0.0})
    for layer in MODULES:
        own = sum(rec["self_s"] for name, rec in spans.items() if name.startswith(layer + "."))
        out[f"{layer}.self_share"] = ratio(own, op["total_s"])
    out["trace.unattributed_share"] = ratio(op["self_s"], op["total_s"])
    return out
