"""One round of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED BUDGET_S OUT [--setup-only] [--trace SPANS]

Writes JSON lines to OUT: first {"ready": t} once imports, input groups
and catalog are built (t on the monotonic clock, which the parent shares),
then one line per op, then {"end": ...}.  Each op runs under its deadline,
enforced with SIGALRM in this process, so no thread or extra process is
started.  No new op starts once BUDGET_S has passed; those ops count as
failed.  With --trace, the library is wrapped before the workload imports
it and the span summary goes into the end line.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class Deadline(BaseException):
    """Raised by SIGALRM inside an op; BaseException so library code that
    catches Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise Deadline


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    workload, seed, budget, out_path = argv[0], int(argv[1]), float(argv[2]), argv[3]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    deadline_at = time.monotonic() + budget

    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.install(tracing.Tracer())
        setup_span = tracer.begin_op(0)
    import workloads

    setup, make_ops = workloads.WORKLOADS[workload]
    inputs = setup()
    if tracer:
        tracer.end_op(setup_span)
    with open(out_path, "w", encoding="utf-8", buffering=1) as out:
        out.write(json.dumps({"ready": time.monotonic()}) + "\n")
        if setup_only:
            return 0
        signal.signal(signal.SIGALRM, _on_alarm)
        for n, op in enumerate(make_ops(inputs, random.Random(seed)), 1):
            out.write(json.dumps(_run_op(op, n, deadline_at, tracer)) + "\n")
        end = {"end": True}
        if tracer:
            end["trace"] = tracer.summary()
            tracer.write_spans(spans_path)
        out.write(json.dumps(end) + "\n")
    return 0


def _run_op(op, n, deadline_at, tracer) -> dict:
    rec = {"op": op.name, "s": 0.0, "cpu_s": 0.0, "error": None, "wrong": False}
    limit = min(op.deadline, deadline_at - time.monotonic())
    if limit <= 0:
        rec["error"] = "not started: run budget spent"
        return rec
    if tracer:
        span = tracer.begin_op(n)
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        rec["error"] = f"deadline {limit:.1f} s"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
    rec["s"] = time.perf_counter() - t0
    rec["cpu_s"] = _cpu() - cpu0
    if tracer:
        tracer.end_op(span)
    if rec["error"] is None:
        try:
            problem = op.check(result)
        except Exception as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            rec["error"] = problem[:300]
            rec["wrong"] = True
    return rec


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
