"""cqbc benchmark: one workload per call, result as the last stdout line.

    python3 cqbcbench/run.py --workload cli_cold|mc_large \
        --seed N --seconds S --trace 0|1 [--out results.jsonl]

With --trace 0 it reports the end-to-end metrics named in BENCHMARK.json,
with --trace 1 the per-layer metrics. Run it from a source tree: it puts
the tree's `src` on PYTHONPATH and keeps its scratch files under
`.bench_build/` there. See README.md in this folder for the workloads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import commands
import reference
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "cqbcbench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170.0

# What each workload imports before its first timed call.
SETUP_MODULES = {
    "cli_cold": ("cqbc.cli",),
    "mc_large": ("cqbc.adversary", "cqbc.security"),
}
LAYER_MODULES = ("rng", "optics", "protocol", "adversary", "security", "cli")


class Children:
    """Starts program processes with the tree's `src` on the path and
    collects each one's exit code, output, wall time and peak memory."""

    def __init__(self) -> None:
        self.env = dict(os.environ)
        path = [str(ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.peak_kb = 0

    def run(self, argv, cwd=None, timeout=CHILD_TIMEOUT_S):
        """(exit code, stdout, wall seconds); the child is killed after
        `timeout` seconds. Its ru_maxrss is folded into peak_kb."""
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=self.env,
                                cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), wall

    def python(self, *args, **kwargs):
        return self.run([sys.executable, *args], **kwargs)

    def json(self, *args, **kwargs) -> dict:
        rc, out, _ = self.python(*args, **kwargs)
        if rc != 0:
            raise RuntimeError(f"{' '.join(map(str, args[:3]))} exited {rc}")
        return json.loads(out)


def cold_import(children: Children, modules) -> float:
    """Seconds to import `modules` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(modules) + "; print(time.perf_counter() - t)")
    rc, out, _ = children.python("-c", code)
    if rc != 0:
        raise RuntimeError(f"importing {modules} exited {rc}")
    return float(out)


def process_reference(children: Children, cwd=None) -> float:
    """Wall seconds of the reference process (see reference.py)."""
    peak = children.peak_kb
    rc, _, wall = children.python("-c", reference.PROCESS_CODE, cwd=cwd)
    children.peak_kb = peak            # the reference is not the program
    if rc != 0:
        raise RuntimeError(f"the reference process exited {rc}")
    return wall


def setup_seconds(children: Children, modules) -> tuple[float, float]:
    """(scaled, raw) medians of SETUP_REPEATS cold imports, each after a
    reference process."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = process_reference(children)
        t = cold_import(children, modules)
        raw.append(t)
        scaled.append(reference.scale(t, ref, reference.PROCESS_NOMINAL_S))
    return stats.median(scaled), stats.median(raw)


def cli_cold(children, seed, seconds, workdir, tally) -> dict:
    """Commands in round order, each in a fresh process after a reference
    process, until the next one would end past `seconds` (predicted from
    the mean so far). At least one whole round runs."""
    op_s, ref_s = [], []
    aborts = commands.HonestAborts()
    start = perf_counter()
    rnd = 0
    while True:
        transcript = str(Path(workdir) / f"transcript-{rnd}.csv")
        for argv in commands.round_argvs(seed, rnd, transcript):
            elapsed = perf_counter() - start
            if (rnd and op_s
                    and elapsed + elapsed / len(op_s) > seconds):
                _, ok, note = aborts.check()
                tally.add(ok, note)
                return {"op_s": op_s, "ref_s": ref_s, "work": len(op_s)}
            ref_s.append(process_reference(children, cwd=workdir))
            rc, out, wall = children.python("-m", "cqbc.cli", *argv,
                                            cwd=workdir)
            ok, note, abort = commands.check(argv, rc, out, transcript)
            tally.add(ok, f"{' '.join(argv)}: {note}")
            aborts.add(abort)
            op_s.append(wall)
        rnd += 1


def cli_cold_traced(children, seed, workdir, spans_dir, tally) -> dict:
    """Each command of one round once without and once with the wrappers,
    in a benchmark-owned process that calls cli.main(argv)."""
    layers: dict[str, float] = {}
    totals = {"untraced_s": 0.0, "traced_s": 0.0, "spans_s": 0.0}
    aborts = commands.HonestAborts()
    transcript = str(Path(workdir) / "transcript-0.csv")
    for i, argv in enumerate(commands.round_argvs(seed, 0, transcript)):
        spans = str(spans_dir / f"cli-{i}.csv")
        for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
            res = children.json(str(HERE / "child.py"), "cli", str(trace),
                                spans, "--", *argv, cwd=workdir)
            ok, note, abort = commands.check(argv, res["rc"], res["stdout"],
                                             transcript)
            tally.add(ok, f"{' '.join(argv)}: {note}")
            if trace:
                totals["traced_s"] += res["wall_s"]
                totals["spans_s"] += res["spans_s"]
                for name, value in res["layers"].items():
                    layers[name] = layers.get(name, 0) + value
            else:
                totals["untraced_s"] += res["wall_s"]
                aborts.add(abort)
    _, ok, note = aborts.check()
    tally.add(ok, note)
    return {"layers": layers, **totals}


def provenance(workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


def measure(args, children, workdir, tally) -> tuple[dict, dict]:
    """(metrics, extra information) of one --trace 0 run. Timings are
    scaled to the reference speed; the raw ones go into the extras."""
    setup, setup_raw = setup_seconds(children, SETUP_MODULES[args.workload])
    children.peak_kb = 0
    if args.workload == "cli_cold":
        res = cli_cold(children, args.seed, args.seconds, workdir, tally)
        nominal = reference.PROCESS_NOMINAL_S
    else:
        res = children.json(str(HERE / "child.py"), args.workload,
                            str(args.seed), str(args.seconds), "0", "-")
        tally.merge(res)
        nominal = reference.IN_PROCESS_NOMINAL_S
    scaled = [reference.scale(t, r, nominal)
              for t, r in zip(res["op_s"], res["ref_s"])]
    timed = stats.op_metrics(scaled, res["work"])
    raw = stats.op_metrics(res["op_s"], res["work"])
    metrics = {"setup_s": setup, "peak_rss_mb": children.peak_kb / 1024.0,
               "op_wall_ms.p50": timed["op_wall_ms.p50"],
               "work_per_s": timed["work_per_s"]}
    extra = {k: timed[k] for k in ("op_wall_ms.tail", "tail_pct", "samples")
             if k in timed}
    extra["reference_s"] = stats.median(res["ref_s"])
    extra["raw"] = {"setup_s": setup_raw, **{
        k: raw[k] for k in ("op_wall_ms.p50", "op_wall_ms.tail", "work_per_s")
        if k in raw}}
    return metrics, extra


def trace(args, children, workdir, tally) -> tuple[dict, dict]:
    """(per-layer metrics, extra information) of one --trace 1 run."""
    metrics = {f"{m}.import_s": stats.median(
        cold_import(children, ("cqbc." + m,)) for _ in range(SETUP_REPEATS))
        for m in LAYER_MODULES}
    spans_dir = SCRATCH / "spans" / args.workload  # the latest run's spans
    spans_dir.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli_cold":
        res = cli_cold_traced(children, args.seed, workdir, spans_dir, tally)
    else:
        res = children.json(str(HERE / "child.py"), args.workload,
                            str(args.seed), str(args.seconds), "1",
                            str(spans_dir / "spans.csv"))
        tally.merge(res)
    metrics.update(res["layers"])
    metrics["trace.untraced_s"] = res["untraced_s"]
    metrics["trace.traced_s"] = res["traced_s"]
    metrics["trace.overhead_s"] = res["traced_s"] - res["untraced_s"]
    metrics["trace.spans_s"] = res["spans_s"]
    # The root spans should account for the untraced time to within the
    # tracing overhead.
    gap = abs(res["spans_s"] - res["untraced_s"])
    return metrics, {"spans": str(spans_dir),
                     "accounted": gap <= abs(metrics["trace.overhead_s"])}


def main(argv=None) -> int:
    if not (ROOT / "src" / "cqbc" / "__init__.py").is_file():
        print(f"error: no cqbc source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSONL file")
    args = parser.parse_args(argv)

    SCRATCH.mkdir(parents=True, exist_ok=True)
    children = Children()
    tally = stats.Tally()
    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        run = trace if args.trace else measure
        values, extra = run(args, children, workdir, tally)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in values and not args.trace:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values.get(m["name"], 0),
                              "unit": m["unit"]}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    info = {"provenance": provenance(args.workload, args.seed),
            "failed_frac": tally.failed / max(tally.attempted, 1),
            "notes": tally.notes, **extra}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"trace": args.trace, "info": info,
                                 "all_metrics": values, "result": result})
                     + "\n")
    print("info", json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
