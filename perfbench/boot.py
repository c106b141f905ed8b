"""Start one bgroups invocation the way a user does, optionally traced.

    python3 perfbench/boot.py [--trace OUT] cli ARGS...         # bgroups ARGS...
    python3 perfbench/boot.py [--trace OUT] script PATH ARGS...  # python3 PATH ARGS...
    python3 perfbench/boot.py setup SPEC

`cli` does what the `bgroups` entry point does: import bgroups.cli and call
its main.  `setup` imports bgroups.cli, loads SPEC and prints
{"ready": t}, t on the monotonic clock the parent shares.  With --trace,
the span wrappers are installed after the import and the span summary,
with the import time, is written to OUT as JSON when the invocation ends.
"""

from __future__ import annotations

import json
import runpy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    t0 = time.perf_counter()
    import bgroups.cli

    import_s = time.perf_counter() - t0
    if mode == "setup":
        from bgroups.specdoc import load_spec

        load_spec(rest[0])
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    tracer = None
    if trace_out:
        import tracing

        tracer = tracing.install(tracing.Tracer())
        root = tracer.begin_op(1)
    try:
        if mode == "cli":
            return bgroups.cli.main(rest)
        sys.argv = rest
        try:
            runpy.run_path(rest[0], run_name="__main__")
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return 0
    finally:
        if tracer:
            tracer.end_op(root)
            tracer.import_s = import_s
            summary = tracer.summary()
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
