"""Command-line driver: spec-document parsing, deterministic reports,
golden-file equality, round-trip reading, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from bgroups.cli import main, read_report, render_text
from bgroups.groups import quotient
from bgroups.overk import is_isomorphic
from bgroups.specdoc import SpecError, parse_spec

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden")
SPEC = os.path.join(GOLDEN, "worked_example.bspec")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


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
    ],
)
def test_parse_errors(text):
    with pytest.raises(SpecError):
        parse_spec(text)


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


@pytest.mark.parametrize("fname,args", GOLDEN_CASES, ids=lambda v: str(v[0] if isinstance(v, tuple) else v))
def test_golden_output(fname, args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    with open(os.path.join(GOLDEN, fname), "r", encoding="utf-8") as fh:
        assert out == fh.read()


def test_repeated_runs_are_byte_identical(capsys):
    _, a = run_cli(GOLDEN_CASES[1][1], capsys)
    _, b = run_cli(GOLDEN_CASES[1][1], capsys)
    assert a == b


# ---------------------------------------------------------------------------
# round-trip reader


@pytest.mark.parametrize("fname,args", GOLDEN_CASES[:4], ids=lambda v: str(v[0] if isinstance(v, tuple) else v))
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


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.bspec"
    bad.write_text("group X = frobnicate 3\n")
    code, _ = run_cli(["idempotent", str(bad), "--group", "X",
                       "--subgroup", "full"], capsys)
    assert code == 2


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
