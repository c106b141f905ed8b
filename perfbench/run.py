#!/usr/bin/env python3
"""The bgroups benchmark: one closed-loop client, four workloads.

    python3 perfbench/run.py --workload lattice|ring|overk|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  The client is this process, with no
extra threads and at most one child process at a time.  A round is one
fresh interpreter's worth of work, the way one script run or one `bgroups`
invocation sees the library: its caches fill only within the round.

- lattice, ring, overk: a round is one `worker.py` process that builds the
  inputs (set-up) and then runs the workload's seeded ops in-process.
- cli: a round is one seeded cycle of `bgroups` invocations and scripts,
  each a fresh process started through `boot.py`.

Rounds repeat, each with the next seed, until --seconds have passed (at
least one round).  Metrics are medians over rounds.  Nothing else runs
while a round runs.  Every op's output is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round twice,
untraced and then traced (span wrappers from tracing.py), and prints the
per-layer metrics.  CPU time and peak memory come from getrusage in the
worker and os.wait4 on each child: only the benchmark's own processes are
measured; nothing is traced system-wide, no cache is dropped and no CPU is
pinned.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import re
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "tests" / "golden" / "worked_example.bspec"
REQUIRED = (
    ROOT / "src" / "bgroups" / "__init__.py",
    SPEC,
    ROOT / "scripts" / "worked_example.py",
    ROOT / "scripts" / "lattice_census.py",
)
BUILD = ROOT / ".bench_build"  # everything the benchmark writes goes here
SCRATCH = BUILD / f"perfbench-{os.getpid()}"

RUN_BUDGET_S = 150.0  # no op starts later than this after the run began
KILL_GRACE_S = 10.0  # a child still alive this long after its budget is killed
SETUP_TIMEOUT_S = 60.0
SETUP_END_S = 170.0  # no set-up runs past this, so a run ends within 180 s
# Extra set-up-only processes per run, for a steady median: half before
# the rounds and half after, so that the median spans the whole run.
SETUP_SAMPLES = 10
MIN_OPS_FOR_PERCENTILES = 20
TAIL_OPS_BEYOND = 10

WORKLOADS = ("lattice", "ring", "overk", "cli")

UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "run_cpu_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# The end-to-end metrics in the result line.  op_p50_s and op_tail_s are
# printed but not among them: each rests on a few ops, or on sub-millisecond
# ops whose median moved by 2x between fresh processes on a shared 2-vCPU
# machine, so their run-to-run spread exceeds any bound a regression gate
# could use.
END_TO_END = ("setup_s", "run_s", "run_cpu_s", "peak_rss_mb", "ok_ratio")


class Clock:
    def __init__(self) -> None:
        self.t0 = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def remaining(self) -> float:
        return RUN_BUDGET_S - self.elapsed()


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool
    started: float  # monotonic clock, just before the spawn
    out: str
    err: str


def spawn(argv: list[str], timeout: float, name: str) -> Child:
    """Run one child to completion, killing it after `timeout` seconds.

    The wait uses a pidfd and poll, so it needs no thread; os.wait4 returns
    the child's own CPU time and peak resident memory.
    """
    out_path, err_path = SCRATCH / f"{name}.out", SCRATCH / f"{name}.err"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        started = time.monotonic()
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    reaped = False
    try:
        fd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            timed_out = not poller.poll(max(0.0, timeout) * 1000)
        finally:
            os.close(fd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Child(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024,
        timed_out=timed_out,
        started=started,
        out=out_path.read_text(encoding="utf-8", errors="replace"),
        err=err_path.read_text(encoding="utf-8", errors="replace"),
    )


@dataclass
class Round:
    ops: list[dict] = field(default_factory=list)  # op, s, cpu_s, error, wrong
    setup_s: float | None = None
    rss_mb: float = 0.0
    traces: list[dict] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return sum(o["s"] for o in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(o["cpu_s"] for o in self.ops)


def _failed(op: str, error: str) -> dict:
    """An op that did not run."""
    return {"op": op, "s": 0.0, "cpu_s": 0.0, "error": error, "wrong": False}


# ---------------------------------------------------------------------------
# lattice, ring, overk: one worker process per round


def worker_round(workload: str, seed: int, traced: bool, clock: Clock) -> Round:
    budget = clock.remaining()
    results = SCRATCH / "round.jsonl"
    results.unlink(missing_ok=True)
    argv = [str(HERE / "worker.py"), workload, str(seed), f"{budget:.3f}", str(results)]
    if traced:
        argv += ["--trace", str(BUILD / f"perfbench-spans-{workload}.bin")]
    child = spawn(argv, budget + KILL_GRACE_S, "worker")
    rnd = Round(rss_mb=child.rss_mb)
    lines = results.read_text(encoding="utf-8").splitlines() if results.exists() else []
    ended = False
    for line in lines:
        rec = json.loads(line)
        if "ready" in rec:
            rnd.setup_s = rec["ready"] - child.started
        elif "op" in rec:
            rnd.ops.append(rec)
        elif "end" in rec:
            ended = True
            if "trace" in rec:
                rnd.traces.append(rec["trace"])
    if not ended or child.code != 0:
        why = "killed at the run budget" if child.timed_out else f"exit {child.code}"
        tail = child.err.strip().splitlines()[-1:] or [""]
        rnd.ops.append(_failed("worker", f"worker {why}: {tail[0][:200]}"))
    return rnd


def worker_setup(workload: str, timeout: float) -> float:
    results = SCRATCH / "setup.jsonl"
    results.unlink(missing_ok=True)
    child = spawn([str(HERE / "worker.py"), workload, "0", "0", str(results), "--setup-only"], timeout, "setup")
    _require_setup(child)
    return json.loads(results.read_text(encoding="utf-8").splitlines()[0])["ready"] - child.started


def _require_setup(child: Child) -> None:
    """A set-up that fails leaves nothing to measure: stop the run."""
    if child.code != 0:
        raise RuntimeError(f"set-up failed with exit {child.code}: {child.err.strip()[-500:]}")


# ---------------------------------------------------------------------------
# cli: fresh-process invocations on the worked-example spec


@dataclass
class CliOp:
    name: str
    argv: list[str]
    check: Callable[[Child], "tuple[str | None, bool]"]  # (error, wrong answer?)
    deadline: float = 60.0


GOLDEN = (
    ("idempotent.txt", ["idempotent", str(SPEC), "--group", "S3", "--subgroup", "1,2"]),
    ("beta_k.txt", ["beta-k", str(SPEC), "--k", "K", "--l", "L", "--phi", "phi"]),
    ("simple.txt", ["simple", str(SPEC), "--k", "K", "--l", "L", "--phi", "phi", "--targets", "G1,G2"]),
    ("p_lattice.txt", ["p-lattice", str(SPEC), "--k", "C4", "--p", "2"]),
)
# (K, p) -> total ideals printed by scripts/lattice_census.py, recorded at
# the seed commit; each must also equal 3^c 2^nc and be [verified].
CENSUS = {
    ("1", 2): 3, ("1", 3): 3, ("C2", 2): 9, ("C2", 3): 9, ("C3", 2): 9, ("C3", 3): 9,
    ("C4", 2): 27, ("C4", 3): 27, ("C6", 2): 81, ("C6", 3): 81, ("C2xC2", 2): 162,
    ("C2xC2", 3): 243, ("S3", 2): 81, ("S3", 3): 81, ("D8", 2): 1944, ("D8", 3): 6561,
    ("Q8", 2): 486, ("Q8", 3): 729,
}
CYCLIC_ORDER = 150  # above the default lattice cap of 128: ROADMAP item 4a


def _bad_exit(child: Child) -> str | None:
    if child.code != 0:
        return f"exit {child.code}, expected 0: {child.err.strip()[-200:]}"
    return None


def _golden_check(fname: str):
    want = (SPEC.parent / fname).read_text(encoding="utf-8")

    def check(child: Child):
        if err := _bad_exit(child):
            return err, False
        return (None, False) if child.out == want else (f"output differs from golden {fname}", True)

    return check


def _check_simple_l(child: Child):
    if err := _bad_exit(child):
        return err, False
    # dim=7 recorded at the seed; two minimal groups of order 12 (paper)
    need = ("  L | order=24 | dim=7", "minimal-order: 12", "check-minimal-distinct: pass")
    missing = [s for s in need if s not in child.out.splitlines()]
    return (f"missing {missing}", True) if missing else (None, False)


def _check_p_lattice_l(child: Child):
    if child.code == 3 and "closed sets" in child.err:
        return None, False
    if child.code == 0:
        return (None, False) if "verified: pass" in child.out.splitlines() else ("verified is not pass", True)
    return f"exit {child.code}: {child.err.strip()[-200:]}", False


def _moebius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def _check_cyclic(g: int):
    """e_L for L = <g> in C_n: the coefficient on [G/C_e] is e mu(d/e)/n
    for e | d = |L|, else 0; its marks are an indicator."""
    n = CYCLIC_ORDER
    d = n // math.gcd(g, n)
    want = {e: (Fraction(e * _moebius(d // e), n) if d % e == 0 else Fraction(0)) for e in range(1, n + 1) if n % e == 0}

    def check(child: Child):
        if err := _bad_exit(child):
            return err, False
        lines = child.out.splitlines()
        if "check-marks-indicator: pass" not in lines:
            return "marks are not an indicator", True
        got = {}
        rows = lines[lines.index("table coefficients:") + 1:] if "table coefficients:" in lines else []
        for line in rows:
            if not line.startswith("  "):
                break
            label, _, value = line.strip().partition(" | ")
            got[int(label.split("<")[0])] = Fraction(value)
        return (None, False) if got == want else ("coefficients differ from e mu(d/e)/n", True)

    return check


def _check_worked_example(child: Child):
    if err := _bad_exit(child):
        return err, False
    text = child.out
    need = ("B_K-group: True;  beta has order 24", "minimal groups (2):",
            "~ C2xS3;  simple dimension 1", "~ C3:C4;  simple dimension 1")
    missing = [s for s in need if s not in text]
    return (f"missing {missing}", True) if missing else (None, False)


CENSUS_LINE = re.compile(r"K=(\S+)\s+p=(\d+):\s+c=(\d+) nc=(\d+) total=(\d+)\s+\[(\w+)\]")


def _check_census(child: Child):
    if err := _bad_exit(child):
        return err, False
    seen = {}
    for m in CENSUS_LINE.finditer(child.out):
        k, p, c, nc, total, flag = m.groups()
        c, nc, total = int(c), int(nc), int(total)
        if flag != "verified" or total != 3**c * 2**nc:
            return f"K={k} p={p}: total {total}, 3^{c} 2^{nc}, {flag}", True
        seen[(k, int(p))] = total
    return (None, False) if seen == CENSUS else ("census totals differ from the recorded ones", True)


def cli_cycle(rng: random.Random) -> list[CliOp]:
    g = rng.randrange(1, CYCLIC_ORDER)
    spec = SCRATCH / "cyclic.bspec"
    spec.write_text(f"# generated, seed {rng.random():.6f}\ngroup Z = cyclic {CYCLIC_ORDER}\n", encoding="utf-8")
    ops = [CliOp(f"golden {f}", ["cli", *a], _golden_check(f)) for f, a in GOLDEN]
    ops += [
        CliOp("simple --targets L",
              ["cli", "simple", str(SPEC), "--k", "K", "--l", "L", "--phi", "phi", "--targets", "L"],
              _check_simple_l),
        CliOp("p-lattice --k L", ["cli", "p-lattice", str(SPEC), "--k", "L", "--p", "2"], _check_p_lattice_l),
        CliOp(f"idempotent cyclic {CYCLIC_ORDER}",
              ["cli", "idempotent", str(spec), "--group", "Z", "--subgroup", str(g), "--max-order", "200"],
              _check_cyclic(g)),
        CliOp("worked_example.py", ["script", str(ROOT / "scripts" / "worked_example.py")], _check_worked_example),
        CliOp("lattice_census.py", ["script", str(ROOT / "scripts" / "lattice_census.py")], _check_census),
    ]
    rng.shuffle(ops)
    return ops


def cli_round(seed: int, traced: bool, clock: Clock) -> Round:
    rnd = Round()
    trace_file = SCRATCH / "boot-trace.json"
    for op in cli_cycle(random.Random(seed)):
        limit = min(op.deadline, clock.remaining())
        if limit <= 0:
            rnd.ops.append(_failed(op.name, "not started: run budget spent"))
            continue
        argv = [str(HERE / "boot.py")]
        if traced:
            trace_file.unlink(missing_ok=True)
            argv += ["--trace", str(trace_file)]
        child = spawn(argv + op.argv, limit, "cli")
        rnd.rss_mb = max(rnd.rss_mb, child.rss_mb)
        if child.timed_out:
            error, wrong = f"deadline {limit:.1f} s", False
        else:
            try:
                error, wrong = op.check(child)
            except (ValueError, IndexError) as exc:  # output too malformed to read
                error, wrong = f"unreadable output: {exc}", True
        rnd.ops.append({"op": op.name, "s": child.wall_s, "cpu_s": child.cpu_s, "error": error, "wrong": wrong})
        if traced and trace_file.exists():
            rnd.traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
    return rnd


def cli_setup(timeout: float) -> float:
    child = spawn([str(HERE / "boot.py"), "setup", str(SPEC)], timeout, "setup")
    _require_setup(child)
    return json.loads(child.out.splitlines()[-1])["ready"] - child.started


# ---------------------------------------------------------------------------
# metrics


def round_seed(seed: int, r: int) -> int:
    return seed * 1_000_003 + r


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_OPS_BEYOND ops beyond it."""
    s = sorted(times)
    k = max(1, len(s) - TAIL_OPS_BEYOND)
    return s[k - 1], 100.0 * k / len(s)


def end_to_end(rounds: list[Round], setups: list[float]) -> tuple[dict, list[str]]:
    """Each metric is a median over rounds, so that its percentile and op
    count do not depend on how many rounds fit in --seconds.  op_p50_s and
    op_tail_s are left out when a round has fewer than
    MIN_OPS_FOR_PERCENTILES ops."""
    ops = [o for r in rounds for o in r.ops]
    failed = sum(1 for o in ops if o["error"])
    per_round = f"median of {len(rounds)} round(s)"
    m = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.run_s for r in rounds),
        "run_cpu_s": statistics.median(r.cpu_s for r in rounds),
    }
    notes = {"setup_s": f"median of {len(setups)} set-ups", "run_s": per_round, "run_cpu_s": per_round}
    lines = []
    if min(len(r.ops) for r in rounds) >= MIN_OPS_FOR_PERCENTILES:
        tails = [tail([o["s"] for o in r.ops]) for r in rounds]
        sizes = "/".join(str(len(r.ops)) for r in rounds)
        m["op_p50_s"] = statistics.median(statistics.median(o["s"] for o in r.ops) for r in rounds)
        m["op_tail_s"] = statistics.median(value for value, _ in tails)
        notes["op_p50_s"] = f"{per_round} of {sizes} ops"
        notes["op_tail_s"] = f"p{statistics.median(p for _, p in tails):.1f}, {per_round} of {sizes} ops"
    else:
        lines.append(f"  op_p50_s and op_tail_s: not defined, a round has fewer than {MIN_OPS_FOR_PERCENTILES} ops")
    m["peak_rss_mb"] = max(r.rss_mb for r in rounds)
    m["ok_ratio"] = (len(ops) - failed) / len(ops)
    notes["peak_rss_mb"] = "largest of the measured processes"
    notes["ok_ratio"] = f"fail_ratio {failed / len(ops):.4f} = {failed} failed of {len(ops)} attempted"
    lines[:0] = [f"  {k:<12} {v:>12.6g} {UNITS[k]:<5}  {notes[k]}" for k, v in m.items()]
    return m, lines


def per_layer(plain: list[Round], traced: list[Round]) -> tuple[dict, list[str]]:
    merged = tracing.merge([t for r in traced for t in r.traces])
    m = tracing.layer_metrics(merged, len(traced))
    imports = [t["import_s"] for r in traced for t in r.traces if t.get("import_s") is not None]
    m["cli.import_s"] = statistics.median(imports) if imports else None
    m["trace.overhead_ratio"] = statistics.median(t.run_s for t in traced) / statistics.median(p.run_s for p in plain)
    lines = [f"  {k:<40} {'absent' if v is None else f'{v:.6g}'}" for k, v in m.items()]
    if merged["missing"]:
        lines.append("  names missing at this commit: " + ", ".join(merged["missing"]))
    return m, lines


def failure_lines(rounds: list[Round]) -> list[str]:
    counts: dict[tuple, int] = {}
    for o in (o for r in rounds for o in r.ops if o["error"]):
        key = (o["op"], o["error"], o["wrong"])
        counts[key] = counts.get(key, 0) + 1
    return [
        f"  {'WRONG' if wrong else 'failed'} x{n}: {op}: {error}"
        for (op, error, wrong), n in sorted(counts.items(), key=lambda kv: -kv[1])[:12]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print("perfbench: not a bgroups checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2

    clock = Clock()
    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli":
            run_round, setup_once = cli_round, cli_setup
        else:
            run_round = functools.partial(worker_round, args.workload)
            setup_once = functools.partial(worker_setup, args.workload)
        setups = [] if args.trace else [setup_once(SETUP_TIMEOUT_S) for _ in range(SETUP_SAMPLES // 2)]
        plain: list[Round] = []
        traced: list[Round] = []
        r = 0
        while True:
            seed = round_seed(args.seed, r)
            plain.append(run_round(seed, False, clock))
            if args.trace:
                traced.append(run_round(seed, True, clock))
            r += 1
            if clock.elapsed() >= args.seconds or clock.remaining() <= 0:
                break
        for _ in range(0 if args.trace else SETUP_SAMPLES - SETUP_SAMPLES // 2):
            if SETUP_END_S - clock.elapsed() < 5.0:
                break
            setups.append(setup_once(min(SETUP_TIMEOUT_S, SETUP_END_S - clock.elapsed())))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    setups += [rnd.setup_s for rnd in plain if rnd.setup_s is not None]

    rounds = plain + traced
    ops = [o for rnd in rounds for o in rnd.ops]
    failed = sum(1 for o in ops if o["error"])
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} round(s), "
          f"{len(ops)} ops, {failed} failed, trace {args.trace}")
    if args.trace:
        metrics, lines = per_layer(plain, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, lines = end_to_end(plain, setups)
        metrics = {k: metrics[k] for k in END_TO_END}
        units = UNITS
    print("\n".join(lines + failure_lines(rounds)))
    result = {
        "correct": not any(o["wrong"] for o in ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
