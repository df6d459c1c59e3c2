"""The cli_cold workload: README-style `cqbc` commands and their checks."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from stats import binom_outside, poisson_upper

# One round, in order. Every command also gets a `--seed` drawn from the
# workload seed; `{transcript}` becomes a path in the run's scratch folder.
COMMANDS = (
    ("commit", "--m", "5", "--n", "32", "--bit", "1",
     "--transcript", "{transcript}"),
    ("commit", "--bit", "1"),
    ("params", "--target-binding", "3e-6", "--target-concealing", "1.1e-6"),
    ("attack", "--strategy", "bob-bs", "--t-prime", "0.8", "--runs", "1000"),
    ("attack", "--strategy", "bob-polarization", "--runs", "100"),
    ("attack", "--strategy", "alice-alter", "--m", "1", "--n", "32",
     "--trials", "1000"),
    ("table1", "--trials", "1000", "--format", "csv"),
)

# Reference (m, n) the solver must return, and the D2 window the commit
# command applies (CommitmentParams' default of 4 sigma).
REFERENCE_MN = (70, 130)
COMMIT_SIGMAS = 4.0


def round_argvs(seed: int, rnd: int, transcript: str) -> list[list[str]]:
    """The argument lists of one round, with seeds derived from (seed, rnd)."""
    seeds = np.random.SeedSequence((seed, rnd)).generate_state(len(COMMANDS))
    return [
        [arg.format(transcript=transcript) for arg in cmd] + ["--seed", str(s)]
        for cmd, s in zip(COMMANDS, seeds.tolist())
    ]


def _flag(argv, name, default):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def d2_window(n: int, sigmas: float) -> tuple[float, float]:
    half = sigmas * math.sqrt(n * 0.25 * 0.75)
    return n / 4.0 - half, n / 4.0 + half


def abort_probability(m: int, n: int, sigmas: float) -> float:
    """Chance that an honest run trips the D2-rate check on some sequence;
    each slot clicks D2 with probability 1/4 at the balanced mirror."""
    return 1.0 - (1.0 - binom_outside(n, 0.25, *d2_window(n, sigmas))) ** m


class HonestAborts:
    """Genuine D2-window aborts of honest commits, held against the
    protocol's completeness error at the number of commits run."""

    def __init__(self) -> None:
        self.expected = 0.0
        self.seen = 0

    def add(self, abort) -> None:
        """abort is None or (aborted, abort probability), as check gives."""
        if abort is not None:
            self.seen += abort[0]
            self.expected += abort[1]

    def check(self) -> tuple[str, bool, str]:
        allowed = poisson_upper(self.expected)
        return ("honest-aborts", self.seen <= allowed,
                f"{self.seen} genuine aborts, at most {allowed} expected")


def genuine_abort(summary: dict, n: int, sigmas: float) -> bool:
    """True when the reported D2 counts really leave the window and the
    per-sequence verdicts agree with them."""
    lo, hi = d2_window(n, sigmas)
    counts = summary["d2_check"]["per_sequence_counts"]
    passed = [lo <= c <= hi for c in counts]
    return passed == summary["d2_check"]["passed"] and not all(passed)


def check(argv: list[str], rc: int, stdout: str, transcript: str):
    """Check one command's output.

    Returns (ok, note, abort) where abort is None for commands that are not
    honest commits, else the pair (aborted, abort probability): an honest
    commit may end in a genuine D2-window abort, which the run counts
    against the protocol's completeness error instead of failing it.
    """
    if rc != 0:
        return False, f"exit code {rc}", None
    try:
        return _check_output(argv, stdout, transcript)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return False, f"malformed output: {exc!r}", None


def _check_output(argv, stdout, transcript):
    if argv[0] == "table1":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != 6 or any(row["pass"] != "True" for row in rows):
            return False, "table1 has a failing cell", None
        return True, "", None
    report = json.loads(stdout)
    if report["schema_version"] != 1 or report["command"] != argv[0]:
        return False, "bad envelope", None
    results = report["results"]
    if argv[0] == "params":
        chosen = (results["chosen"]["m"], results["chosen"]["n"])
        return chosen == REFERENCE_MN, f"params chose {chosen}", None
    if argv[0] != "commit":
        return True, "", None

    m = _flag(argv, "--m", REFERENCE_MN[0])
    n = _flag(argv, "--n", REFERENCE_MN[1])
    abort = (False, abort_probability(m, n, COMMIT_SIGMAS))
    if results["committed_bit"] != _flag(argv, "--bit", None):
        return False, "wrong committed bit", abort
    if "--transcript" in argv:
        with open(transcript, newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh))
        if rows != m * n + 1:
            return False, f"transcript has {rows} rows", abort
    verdict = results["verdict"]
    if verdict["accepted"]:
        return True, "", abort
    if (verdict["reason"] == "aborted"
            and genuine_abort(results["summary"], n, COMMIT_SIGMAS)):
        return True, "", (True, abort[1])
    return False, f"honest commit rejected: {verdict['reason']}", abort
