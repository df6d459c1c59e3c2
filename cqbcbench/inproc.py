"""The in-process workload, mc_large.

A workload is a list of operations per round plus checks on what they
returned. Each operation gets a Generator built from (workload seed, round,
operation index) outside its timed region, so an operation can be run twice
on the same inputs, as the traced run does.
"""

from __future__ import annotations

import itertools
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from cqbc import adversary, optics, protocol, security

import reference
import stats
from tracing import Tracer, Wrappers

BALANCED = optics.BeamSplitter.balanced()
FAILED = object()


@dataclass(frozen=True)
class Op:
    kind: str
    key: object
    seed: tuple
    run: Callable[[np.random.Generator], object]
    work: int          # simulated slots


def _limit_check(name, value, expected, sigma, z):
    """One Gaussian check; a zero sigma demands exact agreement."""
    dev = abs(value - expected)
    if sigma > 0:
        return name, dev <= z * sigma, (f"{value:.6g} vs {expected:.6g}"
                                     f" ({dev / sigma:.2f} sigma)")
    return name, dev == 0, f"{value:.6g} vs {expected:.6g} (exact)"


# ---------------------------------------------------------------------------
# mc_large: one paper-scale Monte Carlo batch per round
# ---------------------------------------------------------------------------

class McLarge:
    SLICES = 16              # slices per round, each 1/16 of the batch
    SLOT_TRIALS = 3125       # run_slot trials per case and slice
    N_TALL = 10_000          # intercept sequence length
    N0_TOTALS = (0, 2000, 10_000)
    N0_ALTER = 2000
    ALTER_TRIALS = 125       # alter trials per attack and slice
    BOB_RUNS = 64            # t'=0.8 and k=2 runs per slice at (70, 130)
    FP_RUNS = 640            # honest t'=0.5 runs per slice at m=1
    POL_RUNS = 6
    TV_SAMPLES = 1_000_000
    # Criterion 10 and 11 bounds.
    BS_DETECT_MIN = 0.95
    MP_DETECT_MIN = 0.8
    FP_SEQ_MAX = 1e-3
    TV_GAP_MAX = 3e-3

    def __init__(self) -> None:
        self.results: dict[tuple, list] = {}
        self.tall = protocol.CommitmentParams(m=1, n=self.N_TALL)
        self.ref = protocol.CommitmentParams(m=70, n=130)
        self.fp = protocol.CommitmentParams(m=1, n=130)

    def ops(self, seed: int, rnd: int) -> list[Op]:
        """One round: the batch's divisible calls in equal slices, so that
        operation times cluster around one value, next to the calls that
        cannot be split. Kinds alternate, so that a slow few seconds on the
        machine spread over all of them."""
        ref_slots = 70 * 130
        slice_work = (2 * self.SLOT_TRIALS
                      + 2 * self.N_TALL * (1 + self.ALTER_TRIALS)
                      + 2 * self.BOB_RUNS * ref_slots + self.FP_RUNS * 130
                      + self.POL_RUNS * ref_slots)
        groups = [
            [("slice", None, self._slice, slice_work)] * self.SLICES,
            # Functions are looked up at call time, so that the traced run
            # reaches them through the installed wrappers.
            [("totals", (label, n0),
              lambda rng, a=attack, n0=n0: getattr(adversary, a)(
                  n0, self.tall, rng), self.N_TALL)
             for label, attack in (("intercept", "alice_intercept"),
                                   ("resend", "alice_intercept_resend"))
             for n0 in self.N0_TOTALS],
            [("oracle", n, lambda rng, n=n:
              security.concealing_oracle_bruteforce(n), 0) for n in (2, 3, 4)],
            [("tv", n, lambda rng, n=n: security.concealing_tv_monte_carlo(
                n, BALANCED, self.TV_SAMPLES, rng), 2 * self.TV_SAMPLES * n)
             for n in (2, 3)],
        ]
        plan = [e for batch in itertools.zip_longest(*groups)
                for e in batch if e is not None]
        return [Op(kind, key, (seed, rnd, i), call, work)
                for i, (kind, key, call, work) in enumerate(plan)]

    def _slice(self, rng) -> dict:
        out = {}
        for a_bit, b_bit in ((0, 1), (0, 0)):
            counts = dict.fromkeys(optics.Detector, 0)
            for _ in range(self.SLOT_TRIALS):
                counts[optics.run_slot(a_bit, b_bit, BALANCED, rng).detector] += 1
            out[("slots", (a_bit, b_bit))] = counts
        out[("alter", "intercept")] = adversary.alice_intercept(
            self.N0_ALTER, self.tall, rng, alter_trials=self.ALTER_TRIALS)
        out[("alter", "resend")] = adversary.alice_intercept_resend(
            self.N0_ALTER, self.tall, rng, alter_trials=self.ALTER_TRIALS)
        out[("bob", "bs")] = adversary.bob_illegal_bs(
            0.8, self.ref, rng, runs=self.BOB_RUNS)
        out[("bob", "multiphoton")] = adversary.bob_multiphoton(
            2, self.ref, rng, runs=self.BOB_RUNS)
        out[("bob", "honest")] = adversary.bob_illegal_bs(
            0.5, self.fp, rng, runs=self.FP_RUNS)
        out[("polarization", None)] = adversary.bob_illegal_polarization(
            optics.PLUS, self.ref, rng, runs=self.POL_RUNS)
        return out

    def summarize(self, op: Op, result):
        if op.kind == "slice":
            return {key: self._plain(part) for key, part in result.items()}
        return self._plain(result)

    @staticmethod
    def _plain(result):
        if isinstance(result, adversary.AttackReport):
            return result.to_dict()
        if isinstance(result, dict):
            return {det.value: c for det, c in result.items()}
        return float(result)

    def record(self, op: Op, summary) -> bool:
        parts = summary if op.kind == "slice" else {(op.kind, op.key): summary}
        ok = True
        for key, part in parts.items():
            self.results.setdefault(key, []).append(part)
            if (isinstance(part, dict)
                    and part.get("strategy") == "alice-intercept-resend"):
                # Every attacked slot re-emits one photon.
                ok &= (part["extras"]["total_clicks"]
                       == self.N_TALL + part["params"]["n0_resend"])
        return ok

    def checks(self) -> list[tuple[str, bool, str]]:
        res = self.results
        if not res:
            return []
        gaussian = []
        out = []

        for a_bit, b_bit in ((0, 1), (0, 0)):
            blocks = res[("slots", (a_bit, b_bit))]
            trials = self.SLOT_TRIALS * len(blocks)
            analytic = optics.outcome_distribution(a_bit, b_bit, BALANCED)
            for det, p in analytic.items():
                freq = sum(b[det.value] for b in blocks) / trials
                gaussian.append((f"slots{a_bit}{b_bit}-{det.value}", freq, p,
                                 (p * (1 - p) / trials) ** 0.5))

        totals: dict[tuple, list] = {}
        for (kind, key), reports in res.items():
            if kind == "totals":
                totals.setdefault(key, []).extend(reports)
            elif kind == "alter":
                totals.setdefault((key, self.N0_ALTER), []).extend(reports)
        for (label, n0), reports in sorted(totals.items()):
            for det in adversary.DETECTORS:
                gaussian.append((
                    f"{label}{n0}-{det}",
                    sum(r["empirical"][det] for r in reports),
                    sum(r["expected"][det] for r in reports),
                    sum(r["std"][det] ** 2 for r in reports) ** 0.5))

        for label in ("intercept", "resend"):
            reports = res[("alter", label)]
            p = reports[0]["p_alter"]["analytic"]
            trials = self.ALTER_TRIALS * len(reports)
            emp = sum(r["p_alter"]["empirical"] for r in reports) / len(reports)
            gaussian.append((f"{label}-p_alter", emp, p,
                             (p * (1 - p) / trials) ** 0.5))

        pol = res[("polarization", None)]
        cells = self.POL_RUNS * 70 * 130 * len(pol)
        for quantity in ("confirmation_rate", "d2_slot_rate"):
            p = pol[0]["expected"][quantity]
            emp = sum(r["empirical"][quantity] for r in pol) / len(pol)
            gaussian.append((f"polarization-{quantity}", emp, p,
                             (p * (1 - p) / cells) ** 0.5))

        z = stats.sigma_limit(len(gaussian))
        out += [_limit_check(*g, z) for g in gaussian]

        def mean(label, field):
            reps = res[("bob", label)]
            return sum(field(r) for r in reps) / len(reps)
        detect = lambda r: r["p_detect"]["empirical"]
        bs, mp = mean("bs", detect), mean("multiphoton", detect)
        fp = mean("honest", lambda r: r["extras"]["per_sequence_failure_rate"])
        out += [
            ("bob-bs-detection", bs > self.BS_DETECT_MIN, f"{bs:.4f}"),
            ("bob-multiphoton-detection", mp > self.MP_DETECT_MIN, f"{mp:.4f}"),
            ("honest-false-positive", fp < self.FP_SEQ_MAX, f"{fp:.2e}"),
        ]

        # The oracle's exact TV distance equals (1 - r^2)^n; the Monte Carlo
        # estimate must land within the criterion-11 gap of it.
        r2 = BALANCED.r ** 2
        for n in (2, 3, 4):
            for value in res[("oracle", n)]:
                out.append((f"oracle{n}", abs(value - (1 - r2) ** n) <= 1e-12,
                            f"{value!r}"))
        for n in (2, 3):
            for value in res[("tv", n)]:
                gap = abs(value - res[("oracle", n)][0])
                out.append((f"tv{n}-gap", gap <= self.TV_GAP_MAX, f"{gap:.2e}"))
        return out


WORKLOADS = {"mc_large": McLarge}


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

class Runner:
    """Runs a workload's operations, times them and counts failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.tally = stats.Tally()

    def execute(self, op, tracer=None):
        """(seconds, result) of one run of op; result is FAILED on error.
        With a tracer the run is one root span."""
        rng = np.random.default_rng(op.seed)
        start = perf_counter()
        try:
            if tracer is None:
                result = op.run(rng)
            else:
                with tracer.span("bench.op"):
                    result = op.run(rng)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = FAILED
        return perf_counter() - start, result

    def summarize(self, op, result):
        return None if result is FAILED else self.workload.summarize(op, result)

    def record(self, op, summary) -> None:
        if summary is None:
            self.tally.add(False, f"{op.kind} {op.key} raised")
        else:
            self.tally.add(self.workload.record(op, summary),
                           f"{op.kind} {op.key} returned a wrong result")

    def finish(self) -> None:
        try:
            checks = self.workload.checks()
        except (KeyError, ZeroDivisionError) as exc:
            # Operations whose results the checks need have failed.
            checks = [("checks", False, f"missing results: {exc!r}")]
        for name, ok, detail in checks:
            self.tally.add(ok, f"check {name}: {detail}")


def run_measured(runner: Runner, seed: int, seconds: float) -> dict:
    """Whole rounds until the next one would end past `seconds`, each
    operation after the in-process reference task. Returns the times of
    both and the work done."""
    op_s: list[float] = []
    ref_s: list[float] = []
    work = 0
    start = perf_counter()
    rnd = 0
    while True:
        for op in runner.workload.ops(seed, rnd):
            ref_s.append(reference.in_process_seconds())
            dt, result = runner.execute(op)
            runner.record(op, runner.summarize(op, result))
            op_s.append(dt)
            work += op.work
        rnd += 1
        elapsed = perf_counter() - start
        if elapsed * (rnd + 1) / rnd > seconds:
            break
    runner.finish()
    return {"op_s": op_s, "ref_s": ref_s, "work": work}


def run_traced(runner: Runner, seed: int, spans_path: str) -> dict:
    tracer = Tracer()
    wrappers = Wrappers(tracer)
    untraced = traced = 0.0
    for i, op in enumerate(runner.workload.ops(seed, 0)):
        # Alternate which run goes first so warm caches favour neither.
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                wrappers.install()
                dt, result = runner.execute(op, tracer)
                wrappers.remove()
                traced += dt
                traced_summary = runner.summarize(op, result)
            else:
                dt, result = runner.execute(op)
                untraced += dt
                plain_summary = runner.summarize(op, result)
        runner.record(op, plain_summary)
        runner.tally.add(traced_summary == plain_summary,
                         f"{op.kind} {op.key} changed under tracing")
    runner.finish()
    tracer.write(spans_path)
    return {"layers": tracer.layer_metrics(), "spans_s": tracer.root_seconds(),
            "untraced_s": untraced, "traced_s": traced}
