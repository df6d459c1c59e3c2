"""Golden outputs: every README command's report, the commit's slot CSV and
the exact layer's values, pinned byte for byte in tests/golden/.

A change that moves a seeded draw, a substream path or a report's bytes
fails here, whatever its law. The reports drop their `generated_at` line,
which the determinism contract leaves out; `table1` runs at 1000 trials.
Each command runs at the README's r = 1/2 and again at r = 0.3.
To rewrite the files on purpose, run

    PYTHONPATH=src python tests/test_golden.py

and name each rewritten file, and why, in CHANGES.md. The comparison is
never widened to a tolerance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from cqbc import cli, optics, security

GOLDEN = Path(__file__).parent / "golden"

# Golden file -> the README command that writes it, at its README arguments.
COMMANDS = {
    "table1.json": ["table1", "--trials", "1000"],
    "commit.json": ["commit", "--m", "5", "--n", "32", "--bit", "1",
                    "--transcript", "slots.csv"],
    "attack-alice-intercept.json": [
        "attack", "--strategy", "alice-intercept", "--m", "1", "--n", "10000",
        "--n0", "2000"],
    "attack-alice-intercept-resend.json": [
        "attack", "--strategy", "alice-intercept-resend", "--m", "1", "--n",
        "10000", "--n0", "2000"],
    "attack-alice-alter.json": [
        "attack", "--strategy", "alice-alter", "--m", "1", "--n", "32",
        "--trials", "10000"],
    "attack-bob-bs.json": [
        "attack", "--strategy", "bob-bs", "--t-prime", "0.8", "--runs", "1000"],
    "attack-bob-multiphoton.json": [
        "attack", "--strategy", "bob-multiphoton", "--k", "2", "--runs",
        "1000"],
    "attack-bob-polarization.json": [
        "attack", "--strategy", "bob-polarization", "--runs", "100"],
    "params.json": ["params", "--target-binding", "3e-6",
                    "--target-concealing", "1.1e-6"],
}
# The same commands at r = 0.3, where t != r and p, q and p' are not dyadic:
# the solver's (m, n), run_slot's tables, the sampler's tied-byte path, the
# resent photon's (t, r) law and a null p_alter.analytic. The commit runs
# at its default (70, 130) shape and writes no transcript.
COMMANDS.update({
    name.replace(".json", "-r03.json"):
        (["commit", "--bit", "1"] if name == "commit.json" else argv)
        + ["--r", "0.3"]
    for name, argv in COMMANDS.items()})
# The slot CSV that commit.json's command writes to slots.csv.
TRANSCRIPT = "commit-transcript.csv"
EXACT = "exact.json"
EXACT_MIRRORS = (Fraction(1, 2), Fraction(3, 10), Fraction(1, 5))


def _exact_layer() -> bytes:
    """comparison_probs of each exact mirror as Fraction strings, and the
    brute-force oracle at the default mirror as float reprs."""
    values = {
        "comparison_probs": {
            str(r): {key: str(value) for key, value in dataclasses.asdict(
                security.comparison_probs(optics.BeamSplitter(r, 1 - r))
            ).items()}
            for r in EXACT_MIRRORS},
        "concealing_oracle_bruteforce": {
            str(n): repr(security.concealing_oracle_bruteforce(n))
            for n in (2, 3, 4)},
    }
    return (json.dumps(values, indent=2, sort_keys=True) + "\n").encode()


def render() -> dict[str, bytes]:
    """Every golden file's bytes, regenerated in-process through cli.main
    in a scratch directory."""
    files = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, argv in COMMANDS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                if code != cli.EXIT_OK:
                    raise RuntimeError(f"{argv} exited {code}")
                files[name] = re.sub(r'^  "generated_at": .*\n', "",
                                     out.getvalue(), flags=re.M).encode()
            files[TRANSCRIPT] = Path("slots.csv").read_bytes()
        finally:
            os.chdir(cwd)
    files[EXACT] = _exact_layer()
    return files


@pytest.fixture(scope="module")
def rendered() -> dict[str, bytes]:
    return render()


def test_golden_directory_holds_exactly_the_rendered_files(rendered):
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(rendered)


@pytest.mark.parametrize("name", [*COMMANDS, TRANSCRIPT, EXACT])
def test_output_is_byte_identical_to_its_golden_file(rendered, name):
    # No diff of the bytes: a changed stream changes most lines.
    assert rendered[name] == (GOLDEN / name).read_bytes(), (
        f"{name} differs from its golden file")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, data in render().items():
        (GOLDEN / name).write_bytes(data)
        print(f"wrote {GOLDEN / name}")
