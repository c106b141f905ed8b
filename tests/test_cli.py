"""Command-line driver: spec-document parsing, deterministic reports,
golden-file equality, round-trip reading, and exit codes."""

import ast
import importlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import bgroups
from bgroups.burnside import gluck_idempotent
from bgroups.catalog import groups_up_to_order
from bgroups.cli import class_label, main, read_report, render_text
from bgroups.groups import (
    MAX_GROUP_ORDER,
    MAX_PERM_DEGREE,
    Group,
    GroupError,
    Homomorphism,
    direct_product,
    quotient,
    relabel,
    subgroup_embedding,
    symmetric_group,
)
from bgroups.ideals import IdealLatticeDescription
from bgroups.overk import (
    CASE_CP,
    CASE_CP2,
    GroupOverK,
    beta_k,
    classify_p_persistent_bk,
    is_isomorphic,
)
from bgroups.specdoc import SpecError, load_spec, parse_spec
from bgroups.subgroups import enumerate_subgroups
from closed_forms import elementary_abelian_m_constant
from util import greedy_generators_oracle

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
SPEC = os.path.join(GOLDEN, "worked_example.bspec")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def golden(fname) -> str:
    with open(os.path.join(GOLDEN, fname), "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# spec document parsing


def test_parse_constructions():
    doc = parse_spec(
        """
        group C2 = cyclic 2
        group C3 = cyclic 3
        group S3 = symmetric 3
        group D8 = dihedral 4
        group V  = product C2 C2
        group T  = semidirect C3 C2 action 0:0,1,2 1:0,2,1
        group P  = perm 3 (0 1 2), (0 1)
        """
    )
    assert doc.group("D8").order == 8
    assert doc.group("V").order == 4 and doc.group("V").exponent() == 2
    assert is_isomorphic(doc.group("T"), doc.group("S3"))
    assert is_isomorphic(doc.group("P"), doc.group("S3"))


def test_parse_quotient_and_hom():
    doc = parse_spec(
        """
        group C4 = cyclic 4
        group C2 = cyclic 2
        quotient Q pi = C4 by 2
        hom f = C4 -> C2 images 0 1 0 1
        """
    )
    assert doc.group("Q").order == 2
    assert doc.hom("pi").source == doc.group("C4")
    assert doc.hom("f").image == (0, 1, 0, 1)


@pytest.mark.parametrize(
    "text",
    [
        "group X = cyclic 0",
        "group X = frobnicate 3",
        "group X = product A B",  # undefined names
        "group C2 = cyclic 2\ngroup C2 = cyclic 2",  # redefinition
        "group C4 = cyclic 4\nhom f = C4 -> C4 images 0 2 0 0",  # not a hom
        "group C3 = cyclic 3\ngroup X = perm 3 (0 1 5)",  # point out of range
        "nonsense directive",
        "group A = cyclic 4 5",  # one argument only
        "group A = symmetric 3 x",
        "group A = dihedral 4 7",
    ],
)
def test_parse_errors(text):
    with pytest.raises(SpecError):
        parse_spec(text)


def test_unvalidated_spec_skips_only_the_hom_check():
    bad_hom = "group C4 = cyclic 4\nhom f = C4 -> C4 images 0 2 0 0"
    with pytest.raises(SpecError):
        parse_spec(bad_hom)
    assert parse_spec(bad_hom, validate=False).hom("f").image == (0, 2, 0, 0)
    with pytest.raises(SpecError):  # constructions check their input regardless
        parse_spec("group C3 = cyclic 3\ngroup C2 = cyclic 2\n"
                   "group X = semidirect C3 C2 action 0:0,1,2 1:0,1,1",
                   validate=False)


def test_no_validate_leaves_later_checks_on(capsys):
    code, out = run_cli(["p-lattice", SPEC, "--k", "C4", "--p", "2",
                         "--no-validate"], capsys)
    assert code == 0 and "validate: false" in out
    with pytest.raises(GroupError):
        Group(2, ((1, 0), (0, 1)), (0, 1))


# ---------------------------------------------------------------------------
# golden files (determinism)

GOLDEN_CASES = [
    ("idempotent.txt", ["idempotent", SPEC, "--group", "S3", "--subgroup", "1,2"]),
    ("beta_k.txt", ["beta-k", SPEC, "--k", "K", "--l", "L", "--phi", "phi"]),
    ("simple.txt", ["simple", SPEC, "--k", "K", "--l", "L", "--phi", "phi",
                    "--targets", "G1,G2"]),
    ("p_lattice.txt", ["p-lattice", SPEC, "--k", "C4", "--p", "2"]),
    ("p_lattice.json", ["p-lattice", SPEC, "--k", "C4", "--p", "2",
                        "--format", "json"]),
]


@pytest.mark.parametrize("fname,args", GOLDEN_CASES, ids=[f for f, _ in GOLDEN_CASES])
def test_golden_output(fname, args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == golden(fname)


@pytest.mark.parametrize("fname,args", GOLDEN_CASES, ids=[f for f, _ in GOLDEN_CASES])
def test_golden_output_in_a_fresh_process(fname, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(HERE, os.pardir, "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys; from bgroups.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == golden(fname)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_golden_output_after_the_other_commands(seed, capsys):
    """Each golden command, run in-process after the others in a seeded
    order, still prints its golden file byte for byte."""
    cases = list(GOLDEN_CASES)
    random.Random(seed).shuffle(cases)
    for fname, args in cases:
        code, out = run_cli(args, capsys)
        assert code == 0
        assert out == golden(fname), (seed, fname)


def _use_under_other_labels(doc) -> None:
    """Use every table of the spec first under another label: build the
    lattice, each class's idempotent and embedding for each spec group and
    for its product with K, beta_K of (L, phi), and the p = 2
    classification over C4."""
    other = {name: relabel(G, "Other" + name) for name, G in doc.groups.items()}
    K = other["K"]
    products = [direct_product(G, K).group for G in other.values()]
    for G in list(other.values()) + products:
        lat = enumerate_subgroups(G)
        for c in range(lat.n_classes()):
            gluck_idempotent(G, lat.class_rep(c))
            subgroup_embedding(lat.class_rep(c))
    phi = Homomorphism(other["L"], K, doc.hom("phi").image)
    beta_k(GroupOverK(other["L"], phi))
    classify_p_persistent_bk(other["C4"], 2)


@pytest.mark.parametrize("fname,args", GOLDEN_CASES, ids=[f for f, _ in GOLDEN_CASES])
def test_golden_output_after_use_under_other_labels(fname, args, capsys):
    _use_under_other_labels(load_spec(SPEC))
    code, out = run_cli(args, capsys)
    assert code == 0
    assert out == golden(fname)


_RELABELLED_THEN_GOLDEN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from test_cli import GOLDEN_CASES, SPEC, _use_under_other_labels
from bgroups.cli import main
from bgroups.groups import Homomorphism, relabel
from bgroups.ideals import count_p_ideals, minimal_groups, p_ideal_lattice, simple_dim
from bgroups.overk import GroupOverK, is_bk_group
from bgroups.specdoc import load_spec

doc = load_spec(SPEC)
_use_under_other_labels(doc)
other = {name: relabel(G, "Other" + name) for name, G in doc.groups.items()}
x = GroupOverK(other["L"], Homomorphism(other["L"], other["K"], doc.hom("phi").image))
assert is_bk_group(x)
minimal_groups(x)
for name in ("G1", "G2"):
    simple_dim(x, other[name])
count_p_ideals(p_ideal_lattice(other["C4"], 2))
runs = []
for fname, args in GOLDEN_CASES:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    runs.append((fname, code, out.getvalue()))
print(json.dumps(runs))
"""


def test_golden_output_in_a_process_that_used_every_spec_group_relabelled():
    """A fresh process first runs the library paths of the five golden
    commands with every spec group under another label: each class's
    idempotent and embedding, beta_K, the minimal groups and simple
    dimensions at G1 and G2, and the p = 2 lattice of C4 with its check.
    The five commands it then runs through `main` print their golden files
    byte for byte."""
    proc = subprocess.run([sys.executable, "-c", _RELABELLED_THEN_GOLDEN, HERE],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [fname for fname, _, _ in runs] == [fname for fname, _ in GOLDEN_CASES]
    for fname, code, out in runs:
        assert code == 0 and out == golden(fname), fname


def test_class_labels_match_the_greedy_oracle():
    """The generator word of each class label is the greedy choice made with
    the brute-force closure, over every class of the catalog groups up to
    order 16 and S4."""
    for G in groups_up_to_order(16) + [symmetric_group(4)]:
        lat = enumerate_subgroups(G)
        for c in range(lat.n_classes()):
            rep = lat.class_rep(c)
            members = [x for x in range(G.order) if (rep.mask >> x) & 1]
            word = ",".join(map(str, greedy_generators_oracle(G, members)))
            assert class_label(lat, c) == f"{rep.order}<{word}>", (G, c)


def test_repeated_runs_are_byte_identical(capsys):
    _, a = run_cli(GOLDEN_CASES[1][1], capsys)
    _, b = run_cli(GOLDEN_CASES[1][1], capsys)
    assert a == b


# ---------------------------------------------------------------------------
# round-trip reader


@pytest.mark.parametrize("fname,args", GOLDEN_CASES[:4], ids=[f for f, _ in GOLDEN_CASES[:4]])
def test_text_report_roundtrip(fname, args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    report = read_report(out)
    assert render_text(report) == out
    assert report.meta["report-version"] == "1"
    assert report.meta["command"] == args[0]


def test_json_report_is_valid_and_matches_text_fields(capsys):
    _, text_out = run_cli(GOLDEN_CASES[3][1], capsys)
    _, json_out = run_cli(GOLDEN_CASES[4][1], capsys)
    data = json.loads(json_out)
    parsed = read_report(text_out)
    assert data["meta"] == parsed.meta
    assert data["tables"] == {k: v for k, v in parsed.tables.items()}


# ---------------------------------------------------------------------------
# flags and exit codes


def test_out_flag_writes_report(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code, out = run_cli(GOLDEN_CASES[1][1] + ["--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.read_text() == out


def test_out_into_a_missing_directory_exits_2_without_a_traceback(tmp_path):
    """An --out path that cannot be opened, or written (a full device fails
    on the write, whose error names no file), ends like an unreadable spec:
    exit 2 and one error line naming the path, after the report."""
    paths = [str(tmp_path / "no-such-dir" / "x")]
    if os.path.exists("/dev/full"):
        paths.append("/dev/full")
    for path in paths:
        proc = subprocess.run([sys.executable, "-m", "bgroups.cli", "idempotent", SPEC, "--group", "L",
                               "--subgroup", "full", "--out", path], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert path in proc.stderr
        assert proc.stdout.startswith("report-version: 1\n")


def test_spec_that_is_not_utf8_exits_2_without_a_traceback(tmp_path):
    """Bytes that do not decode end like any other bad spec: exit 2 and one
    error line naming the path and the byte offset."""
    bad = tmp_path / "bad.bspec"
    bad.write_bytes(b"group A = cyclic 2\n\xff\xfe\n")
    proc = subprocess.run([sys.executable, "-m", "bgroups.cli", "idempotent", str(bad), "--group", "A",
                           "--subgroup", "full"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: {bad}: not UTF-8 at byte 19\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("line", [
    "group A = product X C2",
    "group A = semidirect C2 X action 0:0,1 1:0,1",
    "hom f = C2 -> X images 0 0",
    "quotient Q q = X by 1",
])
def test_unknown_name_in_a_spec_line_names_the_line(line):
    """A name looked up while parsing a line is reported with that line's
    number; a command-line name keeps the bare message."""
    with pytest.raises(SpecError) as err:
        parse_spec(f"group C2 = cyclic 2\n\n{line}\n")
    assert str(err.value) == "line 3: unknown group 'X'"
    with pytest.raises(SpecError) as err:
        parse_spec("group C2 = cyclic 2").group("NOPE")
    assert str(err.value) == "unknown group 'NOPE'"


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.bspec"
    bad.write_text("group X = frobnicate 3\n")
    code, _ = run_cli(["idempotent", str(bad), "--group", "X",
                       "--subgroup", "full"], capsys)
    assert code == 2


@pytest.mark.parametrize("n", ["0", "-2"])
def test_exit_code_dihedral_order_below_one(tmp_path, capsys, n):
    bad = tmp_path / "bad.bspec"
    bad.write_text(f"group D = dihedral {n}\n")
    assert main(["idempotent", str(bad), "--group", "D", "--subgroup", "full"]) == 2
    assert capsys.readouterr().err == "error: line 1: parameters do not define a group\n"


@pytest.mark.parametrize("expr, reason", [
    ("symmetric -3", "S_n needs n >= 0"),
    ("symmetric -1", "S_n needs n >= 0"),
    ("perm -1 ()", "a permutation group needs n >= 0 points"),
    ("perm -2 (), ()", "a permutation group needs n >= 0 points"),
], ids=["symmetric -3", "symmetric -1", "perm -1 ()", "perm -2 (), ()"])
def test_exit_code_negative_degree(tmp_path, capsys, expr, reason):
    bad = tmp_path / "bad.bspec"
    bad.write_text(f"group A = {expr}\n")
    assert main(["idempotent", str(bad), "--group", "A", "--subgroup", "full"]) == 2
    assert capsys.readouterr().err == f"error: line 1: {reason}\n"


@pytest.mark.parametrize("cycles, point", [
    ("(0 1)(0 1)", 0),  # composed, the identity: it once loaded as a group of order 2
    ("(0 1 2)(0 2 1)", 0),  # composed, the identity: it once loaded as C3
    ("(0 1) (1 2)", 1),  # it once failed as "not a permutation of range(n)"
    ("(0 1 2), (1 2)(2 0)", 2),  # in the second generator
], ids=["twice-(0 1)", "3-cycle-and-inverse", "overlap", "second-generator"])
def test_cycles_of_one_generator_are_disjoint(tmp_path, capsys, cycles, point):
    """A point named twice in the cycles of one `perm` generator is refused
    with the point and the line, exit 2; the cycles are not composed."""
    bad = tmp_path / "bad.bspec"
    bad.write_text(f"group C2 = cyclic 2\ngroup X = perm 3 {cycles}\n")
    assert main(["idempotent", str(bad), "--group", "C2", "--subgroup", "full"]) == 2
    gen = cycles.split(",")[-1].strip()
    assert capsys.readouterr().err == f"error: line 2: point {point} appears twice in the cycles {gen!r}\n"
    with pytest.raises(SpecError, match=f"point {point} appears twice"):
        parse_spec(f"group X = perm 3 {cycles}")
    assert parse_spec("group X = perm 3 (0 1)(2), (1 2)").group("X").order == 6


@pytest.mark.parametrize("text, message", [
    ("group C2 = cyclic 2\ngroup C3 = cyclic 3\n"
     "group X = semidirect C3 C2 action 0:0,1,2 1:0,1,1\n",
     "line 3: action image is not a permutation"),
    ("group Y = cyclic 0\n", "line 1: cyclic group order must be >= 1"),
], ids=["semidirect", "cyclic"])
def test_spec_error_keeps_the_construction_reason(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.bspec"
    bad.write_text(text)
    assert main(["idempotent", str(bad), "--group", "X", "--subgroup", "full"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("expr, order", [
    ("cyclic 99999999999", "99999999999"),
    ("symmetric 9", "9!"),
    ("symmetric 99999999999", "99999999999!"),
    ("symmetric 7", "7!"),
    ("product C64 C64", "4096"),
], ids=["cyclic", "symmetric 9", "symmetric huge", "symmetric 7", "product"])
def test_spec_group_past_the_construction_limit_exits_3(tmp_path, capsys, expr, order):
    """Every spec group obeys MAX_GROUP_ORDER, checked before its table is
    built, even one that the command does not use; the error keeps its
    line number and exits 3."""
    spec = tmp_path / "big.bspec"
    spec.write_text(f"group C2 = cyclic 2\ngroup C64 = cyclic 64\ngroup A = {expr}\n")
    start = time.perf_counter()
    assert main(["idempotent", str(spec), "--group", "C2", "--subgroup", "full"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: line 3: group order {order} exceeds construction limit {MAX_GROUP_ORDER}\n")


def test_spec_groups_within_the_construction_limit_load(tmp_path, capsys):
    """S6 (order 720) loads though no command uses it, and the benchmark's
    cyclic 150 runs under --max-order 200."""
    spec = tmp_path / "ok.bspec"
    spec.write_text("group C2 = cyclic 2\ngroup S6 = symmetric 6\ngroup C150 = cyclic 150\n")
    assert main(["idempotent", str(spec), "--group", "C2", "--subgroup", "full"]) == 0
    assert main(["idempotent", str(spec), "--group", "C150", "--subgroup", "full",
                 "--max-order", "200"]) == 0
    assert "check-marks-indicator: pass" in capsys.readouterr().out


def test_spec_group_past_the_limit_exits_3_in_a_small_child(tmp_path):
    """In a fresh process limited to 256 MiB, the two spec lines that used to
    end in a MemoryError or run on exit 3 naming the limit."""
    spec = tmp_path / "big.bspec"
    for expr in ("cyclic 99999999999", "symmetric 9"):
        spec.write_text(f"group A = {expr}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "bgroups.cli", "idempotent", str(spec), "--group", "A",
             "--subgroup", "full"],
            capture_output=True, text=True, timeout=30, preexec_fn=_address_space_limit(256),
        )
        assert proc.returncode == 3, proc.stderr
        assert f"exceeds construction limit {MAX_GROUP_ORDER}" in proc.stderr


def test_perm_degree_past_the_limit_exits_3_in_a_small_child(tmp_path):
    """In a fresh process limited to 256 MiB, a perm line on 10^8 points,
    which used to end in a MemoryError traceback from its point list,
    exits 3 at once naming its line, the degree and the limit."""
    spec = tmp_path / "big.bspec"
    spec.write_text("group C2 = cyclic 2\ngroup P = perm 100000000 (0 1)\n")
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "idempotent", str(spec), "--group", "C2",
         "--subgroup", "full"],
        capture_output=True, text=True, timeout=30, preexec_fn=_address_space_limit(256),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        f"error: line 2: permutation degree 100000000 exceeds construction limit {MAX_PERM_DEGREE}\n")


@pytest.mark.parametrize(
    "lines, mib",
    [("group A = cyclic 2048", 64),
     ("group D = dihedral 1024", 64),
     ("group C1024 = cyclic 1024\ngroup P = product C1024 C2", 64),
     ("group C1024 = cyclic 1024\ngroup P = product C2 C1024", 64)],
    ids=["cyclic-2048", "dihedral-1024", "C1024xC2", "C2xC1024"])
def test_largest_tables_load_in_a_small_child(tmp_path, lines, mib):
    """Groups of order 2048, the construction limit, load in a fresh process
    limited to 64 MiB, a product in either order of its factors: every
    table entry is one of 2048 shared int objects.  With a new int per
    entry each needed more than 128 MiB and died with a MemoryError."""
    spec = tmp_path / "big.bspec"
    spec.write_text(f"group C2 = cyclic 2\n{lines}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "idempotent", str(spec), "--group", "C2",
         "--subgroup", "full"],
        capture_output=True, text=True, timeout=60, preexec_fn=_address_space_limit(mib),
    )
    assert proc.returncode == 0, proc.stderr


def test_out_of_memory_exits_3_without_a_traceback(tmp_path):
    """A child that may map only 16 MiB more than it holds after importing
    the CLI cannot build the 34 MB table of cyclic 2048: the MemoryError
    ends in exit 3 and one `error: out of memory` line, like a size limit."""
    spec = tmp_path / "big.bspec"
    spec.write_text("group C2 = cyclic 2\ngroup A = cyclic 2048\n")
    code = (
        "import resource, sys\n"
        "from bgroups.cli import main\n"
        "with open('/proc/self/status') as fh:\n"
        "    vm = next(int(line.split()[1]) for line in fh if line.startswith('VmSize:'))\n"
        "limit = vm * 1024 + 16 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "idempotent", str(spec), "--group", "C2",
         "--subgroup", "full"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory"), proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("expr", ["cyclic 4 5", "symmetric 3 x", "dihedral 4 7"])
def test_exit_code_extra_argument(tmp_path, capsys, expr):
    bad = tmp_path / "bad.bspec"
    bad.write_text(f"group A = {expr}\n")
    assert main(["idempotent", str(bad), "--group", "A", "--subgroup", "full"]) == 2
    assert "malformed group expression" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    code, _ = run_cli(["idempotent", "/nonexistent.bspec", "--group", "X",
                       "--subgroup", "full"], capsys)
    assert code == 2


def test_exit_code_unknown_name(capsys):
    code, _ = run_cli(["idempotent", SPEC, "--group", "NOPE",
                       "--subgroup", "full"], capsys)
    assert code == 2


def test_exit_code_resource_cap(capsys):
    code, _ = run_cli(["idempotent", SPEC, "--group", "L",
                       "--subgroup", "full", "--max-order", "8"], capsys)
    assert code == 3


def test_p_lattice_enforces_max_order_before_the_census(capsys):
    code = main(["p-lattice", SPEC, "--k", "L", "--p", "2", "--max-order", "16"])
    assert code == 3
    assert "enumeration bound 16" in capsys.readouterr().err


def test_order_bound(tmp_path, capsys):
    spec = tmp_path / "c6.bspec"
    spec.write_text("group Z = cyclic 6\n")
    code = main(["idempotent", str(spec), "--group", "Z", "--subgroup", "full",
                 "--max-order", "4"])
    assert code == 3
    assert "exceeds enumeration bound 4" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["0", "-5", "two"])
def test_max_order_must_be_a_positive_integer(bound, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["idempotent", SPEC, "--group", "L", "--subgroup", "full",
              "--max-order", bound])
    assert exc.value.code == 2
    assert "--max-order: must be a positive integer" in capsys.readouterr().err


def test_max_order_above_the_default_reaches_every_layer(tmp_path, capsys):
    spec = tmp_path / "c150.bspec"
    spec.write_text("group Z = cyclic 150\n")
    args = ["idempotent", str(spec), "--group", "Z", "--subgroup", "1"]
    assert main(args) == 3
    assert "group order 150 exceeds enumeration bound 128" in capsys.readouterr().err
    code, out = run_cli(args + ["--max-order", "200"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "subgroup-classes: 12" in lines  # one per divisor of 150
    assert "check-marks-indicator: pass" in lines


def test_p_lattice_counts_closed_sets_of_a_large_poset(capsys):
    code, out = run_cli(["p-lattice", SPEC, "--k", "L", "--p", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "total-ideals: 8503056" in lines  # 3^12 * 2^4
    assert "verified: pass" in lines


def test_p_lattice_verifies_on_elementary_abelian_32(tmp_path, capsys):
    spec = tmp_path / "c2_5.bspec"
    spec.write_text(
        "group C2 = cyclic 2\n"
        "group E4 = product C2 C2\n"
        "group E8 = product E4 C2\n"
        "group E16 = product E8 C2\n"
        "group E32 = product E16 C2\n"
    )
    code, out = run_cli(["p-lattice", str(spec), "--k", "E32", "--p", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "k: E32 order=32" in lines
    assert "verified: pass" in lines


def _decimal_digits(n: int) -> str:
    """n in decimal, from base-10**1000 chunks: str(int) refuses over 4300
    digits."""
    chunks = []
    while n >= 10**1000:
        n, r = divmod(n, 10**1000)
        chunks.append(f"{r:01000d}")
    return str(n) + "".join(reversed(chunks))


def test_p_lattice_renders_a_count_over_4300_digits(monkeypatch, capsys):
    import bgroups.ideals as ideals  # cmd_p_lattice imports p_ideal_lattice from here

    total = 3**128 * 2**29084

    def census(K, p):  # C2's two classes, with the counts of C2^7 at p = 2
        desc = IdealLatticeDescription(K, p, [CASE_CP2, CASE_CP])
        desc.c_count, desc.nc_count, desc.total_ideals = 128, 29084, total
        return desc

    monkeypatch.setattr(ideals, "p_ideal_lattice", census)
    code, out = run_cli(["p-lattice", SPEC, "--k", "C2", "--p", "2", "--no-check"], capsys)
    assert code == 0
    digits = _decimal_digits(total)
    assert len(digits) == 8817
    assert f"total-ideals: {digits}" in out.splitlines()


def _address_space_limit(mib: int):
    """A preexec_fn that caps the child's address space at mib MiB."""
    def limit():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (mib * 2**20, mib * 2**20))
    return limit


C2_7_SPEC = (
    "group C2 = cyclic 2\n"
    "group E4 = product C2 C2\n"
    "group E8 = product E4 C2\n"
    "group E16 = product E8 C2\n"
    "group E32 = product E16 C2\n"
    "group E64 = product E32 C2\n"
    "group E128 = product E64 C2\n"
)


def test_p_lattice_verifies_on_elementary_abelian_128(tmp_path):
    """C2^7, the largest elementary abelian group under the default order
    cap: 29,340 poset nodes in 29,212 subgroup classes, checked one class at
    a time in a child limited to 96 MiB of address space: the check peaks
    near 60 MiB, and one poset over all classes would need about 121 MiB."""
    spec = tmp_path / "c2_7.bspec"
    spec.write_text(C2_7_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "p-lattice", str(spec), "--k", "E128",
         "--p", "2"],
        capture_output=True, text=True, timeout=300, preexec_fn=_address_space_limit(96),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "k: E128 order=128" in lines
    assert "c-count: 128" in lines
    assert "nc-count: 29084" in lines
    assert f"total-ideals: {_decimal_digits(3**128 * 2**29084)}" in lines
    assert "verified: pass" in lines


def test_idempotent_of_a_small_subgroup_of_elementary_abelian_128(tmp_path):
    """C2^7 has 29,212 subgroup classes, but the marks of e_L for |L| = 4
    read the columns of the five classes <= L only, each built from its
    down-set on first read: about 1-2 s and a 43 MB peak on a shared 2-vCPU
    box, run in a child limited to 64 MiB of address space (it needs
    40-48 MiB) and 30 s.  Building every column by the all-pairs scan took
    42 s and 119 MB, and fails under a 96 MiB limit."""
    spec = tmp_path / "c2_7.bspec"
    spec.write_text(C2_7_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "idempotent", str(spec), "--group", "E128",
         "--subgroup", "1,2"],
        capture_output=True, text=True, timeout=30, preexec_fn=_address_space_limit(64),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "group: E128 order=128" in lines
    assert "subgroup: 4<1,2>" in lines and "subgroup-classes: 29212" in lines
    assert "check-marks-indicator: pass" in lines


E7_SPEC = "group C2 = cyclic 2\ngroup E2 = product C2 C2\n" + "".join(
    f"group E{k + 1} = product E{k} C2\n" for k in range(2, 7))


def test_beta_k_on_elementary_abelian_128_in_a_small_child(tmp_path):
    """beta-k over C2 of C2^7, phi the projection onto the last factor: each
    of the 2,825 m-constants of the kernel C2^6 is the product of one walk
    for a minimal normal C2 and an m-constant of C2^6, not a walk of the
    29,212 subgroups of C2^7's Moebius column, so the run ends within 10 s
    in a child limited to 256 MiB (a walk per subgroup took 17.7-27.9 s).
    Every row is the elementary abelian closed form."""
    spec = tmp_path / "e7.bspec"
    images = " ".join(str(i % 2) for i in range(128))
    spec.write_text(f"{E7_SPEC}hom pr = E7 -> C2 images {images}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "beta-k", str(spec), "--k", "C2", "--l", "E7",
         "--phi", "pr"],
        capture_output=True, text=True, timeout=10, preexec_fn=_address_space_limit(256),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in ("chosen-q: 32<2,4,8,16,32>", "beta-order: 4", "check-beta-is-bk: pass"):
        assert line in lines
    rows = [line.split(" | ") for line in lines[lines.index("table m-constants:") + 1:]]
    assert len(rows) == 2825
    for label, value in rows:
        rank = int(label.split("<")[0]).bit_length() - 1
        assert Fraction(value) == elementary_abelian_m_constant(2, 7, rank), label


def test_simple_on_elementary_abelian_64_in_a_small_child(tmp_path):
    """The simple functor S_{C2,C2,id} at C2^6, whose dimension counts
    m-constants of C2^6 and of its subgroups, ends within 15 s in a child
    limited to 256 MiB (a Moebius walk per m-constant took about 20-35 s)."""
    spec = tmp_path / "e6.bspec"
    spec.write_text(f"{E7_SPEC}hom id = C2 -> C2 images 0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "simple", str(spec), "--k", "C2", "--l", "C2",
         "--phi", "id", "--targets", "E6"],
        capture_output=True, text=True, timeout=15, preexec_fn=_address_space_limit(256),
    )
    assert proc.returncode == 0, proc.stderr
    assert "  E6 | order=64 | dim=64" in proc.stdout.splitlines()


def test_p_lattice_check_bounds_the_poset_nodes(capsys):
    args = ["p-lattice", SPEC, "--k", "C4", "--p", "2", "--max-order", "4"]
    assert main(args) == 3  # the node C2 x C4 of the check has order 8
    assert "group order 8 exceeds enumeration bound 4" in capsys.readouterr().err
    code, out = run_cli(args + ["--no-check"], capsys)
    assert code == 0 and "verified: skipped" in out


@pytest.mark.parametrize("flag", ["--check", "--no-check"])
def test_p_lattice_computes_each_class_case_once(monkeypatch, capsys, flag):
    """The census's cases bound the check's node orders, fill the
    components table and give the check its nodes: one p_persistent_case
    call per subgroup class of K, with or without the check."""
    import bgroups.ideals as ideals
    import bgroups.overk as overk

    calls, case = [], overk.p_persistent_case

    def counted(H, p):
        calls.append(H.mask)
        return case(H, p)

    monkeypatch.setattr(overk, "p_persistent_case", counted)  # for any caller that imports it
    monkeypatch.setattr(ideals, "p_persistent_case", counted)
    code, out = run_cli(["p-lattice", SPEC, "--k", "K", "--p", "2", flag], capsys)
    assert code == 0
    K = load_spec(SPEC).group("K")
    lat = enumerate_subgroups(K)
    assert sorted(calls) == sorted(lat.class_rep(c).mask for c in range(lat.n_classes()))


@pytest.mark.parametrize("p, code, message", [
    (1009, 3, "group order 4072324 exceeds enumeration bound 128"),  # 1009^2 * |K|
    (1000000, 2, "p must be prime"),
    (2**61 - 1, 3, f"group order {(2**61 - 1) ** 2 * 4} exceeds enumeration bound 128"),
    (10**24, 2, "exceeds the primality-test bound 318665857834031151167461"),
])
def test_p_lattice_check_builds_no_node_to_bound_it(p, code, message):
    # in a child process with a timeout: building C_p x C_p x H would not end
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "p-lattice", SPEC, "--k", "K",
         "--p", str(p)],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == code
    assert message in proc.stderr


def test_simple_bounds_l_before_any_work(capsys):
    code = main(["simple", SPEC, "--k", "K", "--l", "L", "--phi", "phi",
                 "--targets", "C2", "--max-order", "20"])
    assert code == 3
    assert "group order 24 exceeds enumeration bound 20" in capsys.readouterr().err


BAD_IMAGE_SPEC = "group K = cyclic 2\ngroup L = cyclic 4\nhom phi = L -> K images 0 5 0 1\n"


def test_unvalidated_spec_still_range_checks_hom_images(tmp_path, capsys):
    with pytest.raises(SpecError, match="out of range"):
        parse_spec(BAD_IMAGE_SPEC, validate=False)
    spec = tmp_path / "bad_image.bspec"
    spec.write_text(BAD_IMAGE_SPEC)
    code = main(["beta-k", str(spec), "--k", "K", "--l", "L", "--phi", "phi",
                 "--no-validate"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_exit_code_math_precondition(tmp_path, capsys):
    spec = tmp_path / "notbk.bspec"
    spec.write_text(
        "group C2 = cyclic 2\nquotient One eps = C2 by 1\n"
    )
    code, _ = run_cli(["simple", str(spec), "--k", "One", "--l", "C2",
                       "--phi", "eps", "--targets", "C2"], capsys)
    assert code == 4


def test_no_check_skips_verification(capsys):
    code, out = run_cli(["p-lattice", SPEC, "--k", "C4", "--p", "2",
                         "--no-check"], capsys)
    assert code == 0
    assert "verified: skipped" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bgroups.cli", "p-lattice", SPEC,
         "--k", "C4", "--p", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "total-ideals: 27" in proc.stdout


def test_cli_imports_only_the_standard_library():
    """The core has no dependencies: importing bgroups.cli in a fresh
    interpreter loads no new top-level module outside the standard library.
    Modules already loaded before the import (site hooks) are not counted."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bgroups.cli\n"
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "bgroups" in loaded
    assert loaded - {"bgroups"} <= sys.stdlib_module_names


def _fresh_modules(code: str) -> list[str]:
    """The modules that running `code` in a fresh interpreter adds to those
    loaded at start-up (site hooks)."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_cli_import_loads_no_command_module():
    """`import bgroups.cli` leaves each command's modules, json and the
    dataclasses machinery unloaded."""
    loaded = _fresh_modules("import bgroups.cli")
    assert "bgroups.cli" in loaded
    heavy = {"dataclasses", "inspect", "json", "bgroups.burnside", "bgroups.overk",
             "bgroups.ideals", "bgroups.catalog"}
    assert heavy.isdisjoint(loaded)


@pytest.mark.parametrize("args,unloaded", [
    (["idempotent", SPEC, "--group", "S3", "--subgroup", "1,2"],
     {"bgroups.overk", "bgroups.ideals"}),
    (["beta-k", SPEC, "--k", "K", "--l", "L", "--phi", "phi"],
     {"bgroups.ideals", "bgroups.burnside"}),
], ids=["idempotent", "beta-k"])
def test_a_command_imports_only_the_modules_it_runs(args, unloaded):
    code = (
        "import contextlib, io\n"
        "from bgroups.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({args!r}) == 0\n"
    )
    assert unloaded.isdisjoint(_fresh_modules(code))


def test_lazy_package_names_resolve():
    """The overk and burnside names of `bgroups.__all__` are imported on
    first access, by attribute and by `from bgroups import *`."""
    code = (
        "from bgroups import *\n"
        "import bgroups, bgroups.burnside as b, bgroups.overk as o\n"
        "assert (GroupOverK, beta_k, is_bk_group) == (o.GroupOverK, o.beta_k, o.is_bk_group)\n"
        "assert (BurnsideElement, gluck_idempotent, m_const) == "
        "(b.BurnsideElement, b.gluck_idempotent, b.m_const)\n"
        "assert not hasattr(bgroups, 'no_such_name')\n"
    )
    assert "bgroups.overk" in _fresh_modules(code)
    assert bgroups.beta_k is beta_k


def test_public_api_is_pinned():
    assert bgroups.__all__ == [
        "Group", "GroupError", "Homomorphism", "Subgroup", "direct_product",
        "make_cyclic", "quotient", "semidirect_product", "GroupOverK", "beta_k",
        "is_bk_group", "BurnsideElement", "gluck_idempotent", "m_const",
    ]


def test_every_traced_name_resolves():
    """Every (module, attribute path) that perfbench/tracing.py times still
    names an attribute of bgroups, by the rule its install() uses: a method
    must be defined on its class itself.  TARGETS is read from the file's
    syntax tree, so nothing is wrapped.  A refactor that drops a traced name
    fails here, instead of leaving that layer's benchmark metric empty."""
    path = os.path.join(HERE, os.pardir, "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    missing = []
    for _, short, attr_path in targets:
        holder = importlib.import_module("bgroups." + short)
        owner, _, attr = attr_path.rpartition(".")
        if owner:
            holder = getattr(holder, owner, None)
        found = holder is not None and getattr(holder, attr, None) is not None
        if not found or (owner and attr not in vars(holder)):
            missing.append(f"{short}.{attr_path}")
    assert targets
    assert missing == []


def _decorator_name(node) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_no_cache_is_keyed_on_groups():
    """What is derived from a Cayley table lives on its interned table, and
    the constructors return the group kept on the table under each label,
    so no module of the core imports, names or decorates with an
    lru_cache or cache at all."""
    src = os.path.join(HERE, os.pardir, "src", "bgroups")
    offenders = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            cache_name = node.name if isinstance(node, ast.alias) else _decorator_name(node)
            if cache_name in ("lru_cache", "cache"):
                offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def _imports_and_uses(tree):
    """The names a module binds by import, with the module each comes from
    ("" for a plain import), and the names it reads: every Name, the base of
    every attribute chain, and each string of a module-level `__all__`."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.module or ""
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = ""
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported, used


def test_every_import_is_used_or_reexported():
    """Each name a bgroups module imports is read in that module, or is
    imported from it by another bgroups module (a re-export such as
    `burnside.m_const`)."""
    src = os.path.join(HERE, os.pardir, "src", "bgroups")
    modules = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                modules[name[:-3]] = _imports_and_uses(ast.parse(fh.read()))
    reexported = {
        (source, bound)
        for imported, _ in modules.values()
        for bound, source in imported.items()
    }
    unused = [
        f"{mod}.{bound}"
        for mod, (imported, used) in modules.items()
        for bound in imported
        if bound not in used and (mod, bound) not in reexported
    ]
    assert unused == []
