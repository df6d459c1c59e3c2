"""Workload process started by run.py; prints one JSON object on stdout.

    child.py mc_large SEED SECONDS TRACE SPANS_PATH
    child.py cli TRACE SPANS_PATH -- ARGV...

The in-process workload runs whole rounds until SECONDS have passed. With
TRACE=1 it runs one round instead, each operation once untraced and once
traced on the same inputs. The cli form runs one `cqbc` command through
`cli.main(argv)` in this process, with or without the wrappers.
"""

from __future__ import annotations

import io
import json
import sys
import traceback
from contextlib import redirect_stdout
from time import perf_counter

from tracing import Tracer, Wrappers


def run_cli(trace: bool, spans_path: str, argv: list[str]) -> dict:
    """Time cli.main(argv) alone; the import is timed by run.py's
    fresh-interpreter `cli.import_s`, whose noise would swamp the overhead."""
    from cqbc import cli
    tracer = Tracer()
    if trace:
        Wrappers(tracer).install()
    out = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out):
            if trace:
                with tracer.span("bench.op"):
                    rc = cli.main(argv)
            else:
                rc = cli.main(argv)
    except Exception:
        # A traceback instead of a documented exit code; run.py counts it.
        traceback.print_exc(file=sys.stderr)
        rc = "traceback"
    result = {"rc": rc, "stdout": out.getvalue(),
              "wall_s": perf_counter() - start}
    if trace:
        tracer.write(spans_path)
        result.update(layers=tracer.layer_metrics(),
                      spans_s=tracer.root_seconds())
    return result


def main(argv: list[str]) -> int:
    if argv[0] == "cli":
        trace, spans_path = argv[1] == "1", argv[2]
        result = run_cli(trace, spans_path, argv[argv.index("--") + 1:])
    else:
        from inproc import WORKLOADS, Runner, run_measured, run_traced
        name, seed, seconds, trace, spans_path = argv[:5]
        runner = Runner(WORKLOADS[name]())
        if trace == "1":
            result = run_traced(runner, int(seed), spans_path)
        else:
            result = run_measured(runner, int(seed), float(seconds))
        result.update(attempted=runner.tally.attempted,
                      failed=runner.tally.failed, notes=runner.tally.notes)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
