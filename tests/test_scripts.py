"""The scripts' standard output, compared byte for byte with golden files
after the trailing timing fields (`N.NNs`) are masked."""

import os
import re
import runpy
import subprocess
import sys

import pytest

HERE = os.path.dirname(__file__)
ROOT = os.path.dirname(HERE)
TIMING = re.compile(rb"\d+\.\d+s$", re.M)


def _masked(out: bytes) -> bytes:
    return TIMING.sub(b"N.NNs", out)


# golden file stem -> script and its arguments
SCRIPT_RUNS = {
    "worked_example": ("worked_example.py",),
    "worked_example_verbose": ("worked_example.py", "--verbose"),
    "lattice_census": ("lattice_census.py",),
}


@pytest.mark.parametrize("golden", SCRIPT_RUNS)
def test_script_output_matches_golden(golden):
    script, *args = SCRIPT_RUNS[golden]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, env=env, check=True,
    )
    with open(os.path.join(HERE, "golden", golden + ".out"), "rb") as fh:
        golden = fh.read()
    assert _masked(proc.stdout) == _masked(golden)


def test_census_without_verify_reads_each_case_once_and_builds_no_node(monkeypatch, capsys):
    """`lattice_census.py --no-verify`, run in process, prints the golden
    census with `[unchecked]` for `[verified]`.  Its case counts come from
    the census, one p_persistent_case call per subgroup class of each K at
    each p, and no node is built: no table gains an inclusion map."""
    import bgroups.ideals as ideals
    from bgroups.groups import _TABLES
    from bgroups.subgroups import enumerate_subgroups

    calls, case = [], ideals.p_persistent_case

    def counted(H, p):
        calls.append((id(H.parent._t), p, H.mask))
        return case(H, p)

    monkeypatch.setattr(ideals, "p_persistent_case", counted)
    monkeypatch.setattr(sys, "argv", ["lattice_census.py", "--no-verify"])
    before = {key: dict(t.embeddings) for key, t in _TABLES.items()}
    script = runpy.run_path(os.path.join(ROOT, "scripts", "lattice_census.py"), run_name="__main__")
    with open(os.path.join(HERE, "golden", "lattice_census.out"), "rb") as fh:
        golden = fh.read().replace(b"[verified]", b"[unchecked]")
    assert _masked(capsys.readouterr().out.encode()) == _masked(golden)
    want = []
    for K in script["default_family"]():
        lat = enumerate_subgroups(K)
        masks = [lat.class_rep(c).mask for c in range(lat.n_classes())]
        want += [(id(K._t), p, mask) for p in (2, 3) for mask in masks]
    assert sorted(calls) == sorted(want)
    assert all(t.embeddings == before.get(key, {}) for key, t in _TABLES.items())
