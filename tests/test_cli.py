"""End-to-end CLI tests via main(argv): exit codes, output schema,
determinism, CSV export, and config-file layering."""

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqbc import adversary, cli, optics, protocol, security
from cqbc.errors import AttackImpossibleError
from cqbc.rng import MAX_CALL_DRAWS, substream


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_OK, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_json_schema_and_pass(capsys):
    report = run_json(capsys, "table1", "--trials", "2000", "--seed", "3")
    assert report["schema_version"] == cli.SCHEMA_VERSION
    assert report["command"] == "table1"
    assert report["results"]["all_pass"] is True
    cells = report["results"]["cases"]["a_eq_b"]
    assert cells["D2"]["analytic"] == pytest.approx(0.5)
    assert cells["D0"]["analytic"] == pytest.approx(0.25)
    assert report["results"]["cases"]["a_neq_b"]["D0"]["analytic"] == 1.0


def test_table1_csv(capsys, tmp_path):
    path = tmp_path / "t.csv"
    code, _, err = run(capsys, "table1", "--trials", "2000", "--seed", "3",
                       "--format", "csv", "--out", str(path))
    assert code == cli.EXIT_OK, err
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("case,detector,analytic")
    assert len(lines) == 1 + 6  # two cases, three detectors


def test_table1_rejects_tiny_trials(capsys):
    code, _, err = run(capsys, "table1", "--trials", "10")
    assert code == cli.EXIT_USAGE
    assert "trials" in err


# ---------------------------------------------------------------------------
# commit
# ---------------------------------------------------------------------------

def test_commit_honest_accepts(capsys, tmp_path):
    path = tmp_path / "transcript.csv"
    report = run_json(capsys, "commit", "--m", "2", "--n", "16", "--bit", "1",
                      "--seed", "5", "--transcript", str(path))
    assert report["results"]["verdict"]["accepted"] is True
    assert report["results"]["committed_bit"] == 1
    assert report["results"]["summary"]["phase"] == "committed"
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 16


def test_commit_csv_report_matches_transcript(capsys, tmp_path):
    out, transcript = tmp_path / "out.csv", tmp_path / "transcript.csv"
    code, _, err = run(capsys, "commit", "--m", "3", "--n", "16", "--seed", "5",
                       "--format", "csv", "--out", str(out),
                       "--transcript", str(transcript))
    assert code == cli.EXIT_OK, err
    assert out.read_bytes() == transcript.read_bytes()


def test_commit_wrong_open_bit_rejected(capsys):
    report = run_json(capsys, "commit", "--m", "2", "--n", "16", "--bit", "0",
                      "--open-bit", "1", "--seed", "5")
    assert report["results"]["verdict"]["accepted"] is False
    assert report["results"]["verdict"]["reason"] == "parity-mismatch"


def test_commit_deterministic_modulo_timestamp(capsys):
    a = run_json(capsys, "commit", "--m", "2", "--n", "16", "--bit", "0",
                 "--seed", "6")
    b = run_json(capsys, "commit", "--m", "2", "--n", "16", "--bit", "0",
                 "--seed", "6")
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


@pytest.mark.parametrize("shape, expected", [((), 4.31e-3),
                                             (("--m", "5", "--n", "32"), 8.0e-4)])
def test_commit_reports_the_honest_abort(capsys, shape, expected):
    results = run_json(capsys, "commit", *shape, "--bit", "1")["results"]
    assert results["honest_abort_probability"] == pytest.approx(expected,
                                                                rel=2e-3)
    # The benchmark's abort check reads these two.
    d2_check = results["summary"]["d2_check"]
    assert len(d2_check["per_sequence_counts"]) == len(d2_check["passed"])


def test_commit_seed_changes_output(capsys):
    a = run_json(capsys, "commit", "--m", "2", "--n", "16", "--bit", "0",
                 "--seed", "6")
    b = run_json(capsys, "commit", "--m", "2", "--n", "16", "--bit", "0",
                 "--seed", "7")
    assert a["results"]["summary"] != b["results"]["summary"]


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def test_attack_intercept(capsys):
    report = run_json(capsys, "attack", "--strategy", "alice-intercept",
                      "--m", "1", "--n", "400", "--n0", "100",
                      "--trials", "200", "--seed", "8")
    res = report["results"]
    assert res["strategy"] == "alice-intercept"
    assert res["p_alter"]["analytic"] == pytest.approx((5 * 400 - 400) / (6 * 400 - 400))
    assert abs(res["p_alter"]["empirical"] - res["p_alter"]["analytic"]) < 0.15


def test_attack_resend_click_conservation(capsys):
    report = run_json(capsys, "attack", "--strategy", "alice-intercept-resend",
                      "--m", "1", "--n", "400", "--n0", "100",
                      "--trials", "0", "--seed", "9")
    extras = report["results"]["extras"]
    assert extras["total_clicks"] == extras["expected_total_clicks"] == 500


def test_attack_alter(capsys):
    report = run_json(capsys, "attack", "--strategy", "alice-alter",
                      "--m", "3", "--n", "32", "--trials", "300", "--seed", "10")
    res = report["results"]
    assert res["per_sequence_success"]["analytic"] == pytest.approx(5 / 6)
    assert abs(res["per_sequence_success"]["empirical"] - 5 / 6) < 0.1
    assert res["protocol_success_m_sequences"]["analytic"] == pytest.approx(
        (5 / 6) ** 3
    )
    assert res["trials_without_flippable_slot"] == 0


def test_attack_alter_follows_mirror(capsys):
    report = run_json(capsys, "attack", "--strategy", "alice-alter",
                      "--m", "2", "--n", "32", "--trials", "300", "--r", "0.3",
                      "--seed", "10")
    per_seq = report["results"]["per_sequence_success"]
    # (1 - p) / (1 - q) with p = (rt + t) / 2 = 0.455 and q = t / 2 = 0.35
    assert per_seq["analytic"] == pytest.approx(0.545 / 0.65)
    assert round(per_seq["analytic"], 5) == 0.83846
    assert abs(per_seq["empirical"] - per_seq["analytic"]) < 0.1
    assert report["results"]["protocol_success_m_sequences"]["analytic"] == (
        pytest.approx((0.545 / 0.65) ** 2))


@pytest.mark.parametrize("r, trials", [("0.5", 4000), ("0.05", 2000)])
def test_attack_alter_grades_only_flippable_trials(capsys, r, trials):
    # At n = 2 a trial clicks D2 on both slots with probability (t/2)^2 and
    # leaves nothing to flip; given a flippable slot, success is exactly
    # (1 - p) / (1 - q). Counting the others as failures read about 0.80
    # at r = 0.5 (analytic 0.833) and 0.76 at r = 0.05 (analytic 0.955).
    report = run_json(capsys, "attack", "--strategy", "alice-alter",
                      "--m", "1", "--n", "2", "--trials", str(trials),
                      "--r", r)
    res = report["results"]
    ungraded = res["trials_without_flippable_slot"]
    assert 0 < ungraded < trials
    per_seq = res["per_sequence_success"]
    p = per_seq["analytic"]
    sigma = math.sqrt(p * (1 - p) / (trials - ungraded))
    assert abs(per_seq["empirical"] - p) < 4.0 * sigma


def test_attack_alter_samples_one_sequence(capsys):
    # m only composes the per-sequence estimate. The attack used to draw
    # click totals for all m sequences first: at --n 32, 10^4 trials and
    # seed 1 the estimate read 0.8287 at --m 1 and 0.8348 at --m 70, and
    # --m 2**62 exited 2 over those totals.
    runs = [run_json(capsys, "attack", "--strategy", "alice-alter",
                     "--m", m, "--n", "32", "--trials", "2000",
                     "--seed", "12")["results"] for m in ("1", "70")]
    for key in ("per_sequence_success", "trials_without_flippable_slot"):
        assert runs[0][key] == runs[1][key]
    res = run_json(capsys, "attack", "--strategy", "alice-alter",
                   "--m", str(2**62), "--n", "2", "--trials", "100")["results"]
    assert res["protocol_success_m_sequences"]["m"] == 2**62


def test_attack_alter_without_gradable_trial_is_usage_error(capsys):
    # At r = 0.05 both slots of this seed's one trial click D2, which
    # happens with probability (t/2)^2 = 0.23.
    code, out, err = run(capsys, "attack", "--strategy", "alice-alter",
                         "--m", "1", "--n", "2", "--trials", "1",
                         "--r", "0.05", "--seed", "3")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: no flippable slot in any trial\n"


def test_attack_alter_refuses_degenerate_mirror_before_sampling(capsys,
                                                               monkeypatch):
    def no_attack(*args, **kwargs):
        raise AssertionError("sampled an alter before refusing the mirror")

    monkeypatch.setattr(adversary, "alice_intercept", no_attack)
    code, out, err = run(capsys, "attack", "--strategy", "alice-alter",
                         "--r", "0", "--m", "1", "--n", "32")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "degenerate" in err


@pytest.mark.parametrize("r", [0.5, 0.3])
def test_attack_alter_prints_the_library_call(capsys, r):
    # The README command: the CLI only builds the inputs of one call.
    results = run_json(capsys, "attack", "--strategy", "alice-alter", "--m",
                       "1", "--n", "32", "--trials", "10000", "--r",
                       str(r))["results"]
    params = protocol.CommitmentParams(m=1, n=32,
                                       bs=optics.BeamSplitter(r, 1.0 - r))
    assert adversary.alice_alter(params, substream(1, 20), 10000) == results


def _protocol_alter(n, r, trials):
    """Success rate and ungraded trials of Alice's one-bit alter over full
    protocol runs: an honest one-sequence commit, the forged opening, and
    Bob's verification of it."""
    bs = optics.BeamSplitter(r, 1.0 - r)
    rng = substream(77, n)
    successes = ungraded = 0
    for seed in range(trials):
        transcript = protocol.run_commit_phase(protocol.CommitmentParams(
            m=1, n=n, bs=bs, master_seed=seed))
        target = 1 - transcript.committed_bit
        try:
            opening = adversary.alice_optimal_alter(transcript, target, rng)
        except AttackImpossibleError:
            ungraded += 1
            continue
        successes += protocol.bob_verify_opening(transcript, opening).accepted
    return successes / (trials - ungraded), ungraded


@pytest.mark.parametrize("n, r", [(2, 0.05), (8, 0.5), (32, 0.3)])
def test_attack_alter_matches_protocol_loop(capsys, n, r):
    # The row-count sampler against commit/alter/verify runs. The protocol
    # also rejects honest commits that trip the D2-rate window, at most
    # about 4e-4 of them here, far below the 4-sigma bounds.
    trials = 3000
    res = run_json(capsys, "attack", "--strategy", "alice-alter", "--m", "1",
                   "--n", str(n), "--r", str(r), "--trials", str(trials),
                   "--seed", "16")["results"]
    p = res["per_sequence_success"]["analytic"]
    no_flip = ((1.0 - r) / 2.0) ** n
    sides = [(res["per_sequence_success"]["empirical"],
              res["trials_without_flippable_slot"]),
             _protocol_alter(n, r, trials)]
    variances = [p * (1 - p) / (trials - ungraded) for _, ungraded in sides]
    for (rate, ungraded), variance in zip(sides, variances):
        assert abs(rate - p) < 4.0 * math.sqrt(variance)
        # An ungraded count is an integer: one trial of slack on top of
        # 4 sigma, for the n where (t/2)^n is far below 1 / trials.
        assert abs(ungraded / trials - no_flip) < (
            4.0 * math.sqrt(no_flip * (1 - no_flip) / trials) + 1 / trials)
    assert abs(sides[0][0] - sides[1][0]) < 4.0 * math.sqrt(sum(variances))


@pytest.mark.parametrize("strategy, n, n0, r, no_flip", [
    # An unattacked slot is Alice's D2 with t/2; an intercepted one with
    # 1 - r/2 (a mismatch hands her the photon); a resent one never is.
    ("alice-intercept", 4, 2, 0.5, 0.25 ** 2 * 0.75 ** 2),
    ("alice-intercept", 2, 0, 0.05, 0.475 ** 2),
    ("alice-intercept-resend", 3, 0, 0.3, 0.35 ** 3),
    ("alice-intercept-resend", 3, 1, 0.3, 0.0),
])
def test_intercept_reports_trials_without_flippable_slot(capsys, strategy, n,
                                                         n0, r, no_flip):
    trials = 4000
    argv = ("attack", "--strategy", strategy, "--m", "1", "--n", str(n),
            "--n0", str(n0), "--r", str(r), "--seed", "17")
    extras = run_json(capsys, *argv, "--trials",
                      str(trials))["results"]["extras"]
    share = extras["trials_without_flippable_slot"] / trials
    assert abs(share - no_flip) < 4.0 * math.sqrt(
        no_flip * (1 - no_flip) / trials) + 1 / trials
    # No alter trial, nothing to report.
    extras = run_json(capsys, *argv, "--trials", "0")["results"]["extras"]
    assert "trials_without_flippable_slot" not in extras


def test_attack_bob_bs(capsys):
    report = run_json(capsys, "attack", "--strategy", "bob-bs",
                      "--m", "70", "--n", "130", "--t-prime", "0.8",
                      "--runs", "20", "--seed", "11")
    assert report["results"]["p_detect"]["empirical"] > 0.95


def test_attack_bob_multiphoton(capsys):
    report = run_json(capsys, "attack", "--strategy", "bob-multiphoton",
                      "--m", "70", "--n", "130", "--k", "2",
                      "--runs", "20", "--seed", "12")
    assert report["results"]["expected"]["d2_slot_rate"] == pytest.approx(0.375)
    assert report["results"]["p_detect"]["empirical"] > 0.95


def test_attack_bob_polarization(capsys):
    report = run_json(capsys, "attack", "--strategy", "bob-polarization",
                      "--m", "10", "--n", "130", "--runs", "10", "--seed", "13")
    emp = report["results"]["empirical"]["confirmation_rate"]
    assert emp == pytest.approx(0.375, abs=0.02)


@pytest.mark.parametrize("argv", [
    ("--strategy", "alice-alter", "--trials", "0"),
    ("--strategy", "bob-bs", "--runs", "0"),
    ("--strategy", "bob-bs", "--runs", "-1"),
    ("--strategy", "bob-multiphoton", "--runs", "0"),
    ("--strategy", "bob-multiphoton", "--runs", "-1"),
    ("--strategy", "bob-polarization", "--runs", "0"),
    ("--strategy", "bob-polarization", "--runs", "-1"),
    ("--strategy", "alice-intercept", "--n", "100", "--n0", "10",
     "--trials", "-1"),
    ("--strategy", "alice-intercept-resend", "--n", "100", "--n0", "10",
     "--trials", "-1"),
])
def test_attack_bad_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "attack", *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")


# At r = 0 every attacked slot clicks D2, so no slot can be flipped; the
# second argv draws that same dead end at random on the balanced mirror.
IMPOSSIBLE_ALTER = ("attack", "--strategy", "alice-intercept", "--r", "0",
                    "--m", "1", "--n", "4", "--n0", "4", "--trials", "3")


@pytest.mark.parametrize("argv", [
    IMPOSSIBLE_ALTER,
    ("attack", "--strategy", "alice-intercept", "--m", "1", "--n", "2",
     "--n0", "2", "--trials", "1", "--seed", "2"),
])
def test_impossible_alter_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "flippable" in err


@pytest.mark.parametrize("argv", [
    ("--strategy", "bob-bs", "--m", "1000000", "--n", "1000"),
    ("--strategy", "alice-intercept", "--n", "1000000000"),
])
def test_oversized_attack_is_refused_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "attack", *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "limit" in err
    assert peak < 10 * 2**20


@pytest.mark.parametrize("argv", [
    ("table1", "--trials", str(MAX_CALL_DRAWS // 2 + 1)),
    ("attack", "--strategy", "bob-bs", "--runs",
     str(MAX_CALL_DRAWS // 70 + 1)),
    ("attack", "--strategy", "bob-bs", "--m", "1", "--n", "2",
     "--runs", str(2**63 - 1)),
    ("attack", "--strategy", "bob-multiphoton", "--runs",
     str(MAX_CALL_DRAWS // 70 + 1)),
    ("attack", "--strategy", "bob-multiphoton", "--m", "1", "--n", "2",
     "--runs", str(2**63 - 1)),
    ("attack", "--strategy", "alice-alter", "--m", "1", "--n", "32",
     "--trials", str(MAX_CALL_DRAWS + 1)),
    ("attack", "--strategy", "alice-intercept", "--m", "1", "--n", "100",
     "--n0", "10", "--trials", str(MAX_CALL_DRAWS + 1)),
    ("attack", "--strategy", "alice-intercept-resend", "--m", "1", "--n",
     "100", "--n0", "10", "--trials", str(2**63 - 1)),
])
def test_counts_past_the_draw_limit_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and f"limit of {MAX_CALL_DRAWS}" in err


def test_bob_polarization_runs_stop_only_at_int64_slot_totals(capsys):
    # The runs share one multinomial draw, so no draw limit applies; a slot
    # total past 2^63 - 1 would overflow it.
    report = run_json(capsys, "attack", "--strategy", "bob-polarization",
                      "--runs", str(MAX_CALL_DRAWS + 1))
    assert report["results"]["params"]["runs"] == MAX_CALL_DRAWS + 1
    code, out, err = run(capsys, "attack", "--strategy", "bob-polarization",
                         "--runs", str(2**62))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "int64" in err


# Click totals past 2^63 - 1: the first two overflowed numpy's multinomial
# with a traceback, the third wrapped round to a negative total_clicks.
OVERFLOWING_TOTALS = (
    ("attack", "--strategy", "alice-intercept", "--m", str(10**19), "--n", "2",
     "--trials", "0"),
    ("attack", "--strategy", "alice-alter", "--m", str(10**19), "--n", "2",
     "--trials", "1"),
    ("attack", "--strategy", "alice-intercept-resend", "--m", str(2**60),
     "--n", "4", "--n0", "4", "--trials", "0"),
)


@pytest.mark.parametrize("argv", OVERFLOWING_TOTALS)
def test_intercept_click_totals_past_int64_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "int64" in err


# An int past int64 overflowed a float conversion with a traceback: k in
# bob-multiphoton's capture law, max_m and max_n in the solver. A seed
# past int64 was accepted.
PAST_INT64 = (
    ("seed", ("commit", "--m", "2", "--n", "8")),
    ("k", ("attack", "--strategy", "bob-multiphoton", "--runs", "1")),
    ("max_m", ("params", "--target-binding", "3e-6",
               "--target-concealing", "1.1e-6")),
    ("max_n", ("params", "--target-binding", "3e-6",
               "--target-concealing", "1.1e-6")),
)


@pytest.mark.parametrize("key, argv", PAST_INT64)
@pytest.mark.parametrize("value", [2**63, 10**400, -10**400],
                         ids=["2^63", "10^400", "-10^400"])
@pytest.mark.parametrize("via_config", [False, True])
def test_int_options_past_int64_are_usage_errors(capsys, tmp_path, key, argv,
                                                 value, via_config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    option = (f"--{key.replace('_', '-')}", str(value))
    code, out, err = run(capsys, *(("--config", str(cfg), *argv) if via_config
                                   else (*argv, *option)))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == (f"error: {key}'s magnitude is past the int64 limit "
                   "2^63 - 1\n")


@pytest.mark.parametrize("key, argv", PAST_INT64)
def test_int_options_at_int64_max_run(capsys, key, argv):
    run_json(capsys, *argv, f"--{key.replace('_', '-')}", str(2**63 - 1))


def test_attack_bad_n0_is_usage_error(capsys):
    code, _, err = run(capsys, "attack", "--strategy", "alice-intercept",
                       "--n", "100", "--n0", "500", "--trials", "0")
    assert code == cli.EXIT_USAGE
    assert "n0" in err


@pytest.mark.parametrize("argv", [
    ("--strategy", "bob-bs", "--runs", "100"),
    ("--strategy", "alice-intercept", "--m", "1", "--n", "100", "--n0", "20",
     "--trials", "100"),
])
def test_attack_csv_rows_hold_the_sampled_probabilities(capsys, argv):
    # Each sampled p_alter or p_detect of the JSON is a CSV row: its
    # analytic value (empty if null) under expected, its sample under
    # empirical.
    results = run_json(capsys, "attack", *argv)["results"]
    code, out, err = run(capsys, "attack", *argv, "--format", "csv")
    assert code == cli.EXIT_OK, err
    cells = {row["quantity"]: [float(row[col]) if row[col] else None
                               for col in ("expected", "empirical")]
             for row in csv.DictReader(io.StringIO(out))}
    pairs = {key: [results[key]["analytic"], results[key]["empirical"]]
             for key in ("p_alter", "p_detect")
             if results[key]["empirical"] is not None}
    assert pairs
    assert {key: cells.get(key) for key in pairs} == pairs


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_reference_solution(capsys):
    report = run_json(capsys, "params", "--target-binding", "3e-6",
                      "--target-concealing", "1.1e-6")
    assert report["results"]["chosen"] == {"m": 70, "n": 130}
    assert report["results"]["report"]["p_prime"] == pytest.approx(0.875)


def test_params_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "params", "--target-binding", "1e-30",
                       "--target-concealing", "0.5", "--max-m", "10")
    assert code == cli.EXIT_INFEASIBLE
    assert "infeasible" in err


@pytest.mark.parametrize("argv, message", [
    (("--r", "1e-20", "--target-binding", "1", "--target-concealing", "1e-3"),
     "concealing target 0.001 unreachable with n <= 1000000"),
    (("--r", "0.01", "--target-binding", "0.5",
      "--target-concealing", "1e-300"),
     "concealing target 1e-300 unreachable with n <= 1000000"),
    (("--r", "1e-20", "--target-binding", "1e-3",
      "--target-concealing", "1e-3"),
     "binding target 0.001 unreachable with m <= 100000"),
])
def test_params_refuses_unmet_target_without_scanning(capsys, monkeypatch,
                                                      argv, message):
    # Both advantages are monotone, so the value at --max-m or --max-n
    # settles feasibility; a scan would evaluate up to 10^6 of them.
    calls = []
    concealing_advantage = security.concealing_advantage

    def counted(*args):
        calls.append(args)
        return concealing_advantage(*args)

    monkeypatch.setattr(security, "concealing_advantage", counted)
    code, out, err = run(capsys, "params", *argv)
    assert code == cli.EXIT_INFEASIBLE
    assert out == "" and err == f"infeasible: {message}\n"
    assert len(calls) <= 2


@pytest.mark.parametrize("r", ["1e-20", "1e-12", "3e-9"])
def test_params_tiny_r_mirror_is_not_refused(capsys, r):
    # At these mirrors p, q and p' round to each other, or to 1, as floats.
    code, out, err = run(capsys, "params", "--r", r,
                         "--target-binding", "1e-3",
                         "--target-concealing", "1e-3")
    assert code == cli.EXIT_INFEASIBLE, err
    assert out == "" and "binding target" in err
    report = run_json(capsys, "params", "--r", r, "--target-binding", "1",
                      "--target-concealing", "1")
    assert report["results"]["chosen"] == {"m": 1, "n": 2}
    assert report["results"]["report"]["concealing"]["advantage"] <= 0.5


def test_params_bisects_a_long_range(capsys):
    # A scan from n = 2 would try, and report, each of 485 843 values.
    report = run_json(capsys, "params", "--r", "0.01",
                      "--target-binding", "0.5",
                      "--target-concealing", "1e-9")
    assert report["results"]["chosen"] == {"m": 71, "n": 485_844}
    assert len(report["results"]["search_trace"]) <= 39


def test_params_csv_rows_are_the_json_trace(capsys):
    argv = ("params", "--target-binding", "3e-6",
            "--target-concealing", "1.1e-6")
    trace = run_json(capsys, *argv)["results"]["search_trace"]
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == cli.EXIT_OK, err
    rows = [{"parameter": row["parameter"], "value": int(row["value"]),
             "advantage": float(row["advantage"])}
            for row in csv.DictReader(io.StringIO(out))]
    assert rows == trace


@pytest.mark.parametrize("r", ["0.5", "0.3"])
def test_params_report_states_the_solvers_binding(capsys, r):
    report = run_json(capsys, "params", "--r", r, "--target-binding", "3e-6",
                      "--target-concealing", "1.1e-6")["results"]
    probs = security.comparison_probs(optics.BeamSplitter(float(r),
                                                          1 - float(r)))
    ratio = float((1 - probs.p) / (1 - probs.q))
    m = report["chosen"]["m"]
    assert report["report"]["binding_advantage"] == ratio ** m
    assert ({"parameter": "m", "value": m, "advantage": ratio ** m}
            in report["search_trace"])
    # The concealing block is concealing_advantage's report, field for field.
    concealing = security.concealing_advantage(m, report["chosen"]["n"],
                                               probs.p_prime)
    assert report["report"]["concealing"] == {
        "epsilon": concealing.epsilon, "advantage": concealing.advantage,
        "first_order": concealing.first_order,
        "note": concealing.factor_two_note}


def test_json_report_is_written_in_batches(tmp_path):
    # A report of 2^18 D2 verdicts: one json.dumps string of it, with the
    # list of chunks it is joined from, peaks at 20 MB, and a batch of 2^16
    # chunks at about 6 MB. Bools, because tracemalloc slows int encoding.
    report = {"command": "commit", "passed": [True] * (1 << 18)}
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli._emit(report, argparse.Namespace(format="json", out=str(path)),
                  None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expected
    assert peak < 8 * 2**20


def test_params_report_at_a_large_m_takes_no_exact_power(capsys):
    # The exact rational power at m = 691 814 held integers of about 10 MB
    # and took over a minute; the solver's float power takes microseconds.
    tracemalloc.start()
    try:
        report = run_json(capsys, "params", "--r", "1e-3",
                          "--target-binding", "1e-300",
                          "--target-concealing", "0.5", "--max-m", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["results"]["chosen"] == {"m": 691_814, "n": 2}
    assert report["results"]["report"]["binding_advantage"] <= 1e-300
    assert peak < 2**20


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == cli.EXIT_USAGE


def test_unknown_strategy_rejected_by_argparse(capsys):
    code, _, _ = run(capsys, "attack", "--strategy", "nonsense")
    assert code == cli.EXIT_USAGE


def test_config_file_sets_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "n": 16, "bit": 1, "seed": 21}))
    report = run_json(capsys, "--config", str(cfg), "commit")
    assert report["config"]["m"] == 2
    assert report["results"]["committed_bit"] == 1
    report = run_json(capsys, "--config", str(cfg), "commit", "--bit", "0")
    assert report["results"]["committed_bit"] == 0


def test_config_file_sets_only_the_subcommands_options(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "n": 16, "k": 3, "trials": 1000}))
    report = run_json(capsys, "--config", str(cfg), "table1")
    assert report["config"]["trials"] == 1000
    assert not {"m", "n", "k"} & set(report["config"])


def test_config_file_supplies_required_options(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target_binding": 3e-6,
                               "target_concealing": 1.1e-6}))
    report = run_json(capsys, "--config", str(cfg), "params")
    assert report["results"]["chosen"] == {"m": 70, "n": 130}
    cfg.write_text(json.dumps({"strategy": "bob-bs"}))
    report = run_json(capsys, "--config", str(cfg), "attack", "--runs", "10")
    assert report["results"]["strategy"] == "bob-illegal-bs"
    report = run_json(capsys, "--config", str(cfg), "attack", "--runs", "10",
                      "--strategy", "bob-multiphoton")
    assert report["results"]["strategy"] == "bob-multiphoton"


@pytest.mark.parametrize("config, argv", [
    (None, ("params",)),
    (None, ("attack", "--runs", "10")),
    ({"strategy": "nope"}, ("--config", "{cfg}", "attack", "--runs", "10")),
    # --config belongs before the subcommand, whether or not the file exists
    ({"strategy": "bob-bs"}, ("attack", "--runs", "10", "--config", "{cfg}")),
    ({"strategy": "bob-bs"}, ("attack", "--strategy", "bob-bs",
                              "--config", "{cfg}")),
    (None, ("attack", "--config", "{cfg}")),
    (None, ("params", "--target-binding", "3e-6", "--target-concealing",
            "1.1e-6", "--config", "{cfg}")),
])
def test_required_option_missing_or_misplaced_config_is_usage_error(
        capsys, tmp_path, config, argv):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, *(str(cfg) if arg == "{cfg}" else arg
                                 for arg in argv))
    assert code == cli.EXIT_USAGE
    assert out == ""


@pytest.mark.parametrize("config", [
    {"m": 2.5, "n": 16},
    {"bogus": 1},
    {"m": True, "n": 16},
    {"r": "0.3", "m": 2, "n": 16},
    {"m": None, "n": 16},
    {"format": "xml"},
    {"t_prime": math.inf, "m": 2, "n": 16},
    # Parser entries that are no option: help, the subcommand, its
    # handler and --config itself.
    {"help": True},
    {"command": "commit"},
    {"func": 1},
    {"config": "x.json"},
])
def test_config_file_rejects_unknown_keys_and_wrong_types(capsys, tmp_path,
                                                          config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(cfg), "commit")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")
    key = next(iter(config))
    if key in ("bogus", "help", "command", "func", "config"):
        assert err == f"error: config key {key!r} is no option\n"


def test_oversized_commit_is_refused_before_allocating(capsys):
    code, out, err = run(capsys, "commit", "--m", "1000000", "--n", "1000")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "limit" in err


@pytest.mark.parametrize("argv", [
    ("commit", "--seed", "-1"),
    ("table1", "--trials", "1000", "--seed", "-1"),
    ("attack", "--strategy", "bob-bs", "--runs", "10", "--seed", "-1"),
    ("--config", "{cfg}", "commit"),
    # params draws nothing, yet a negative seed is refused there too
    ("params", "--target-binding", "3e-6", "--target-concealing", "1.1e-6",
     "--seed", "-1"),
    ("--config", "{cfg}", "params", "--target-binding", "3e-6",
     "--target-concealing", "1.1e-6"),
])
def test_negative_seed_is_usage_error(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    code, out, err = run(capsys, *(str(cfg) if arg == "{cfg}" else arg
                                   for arg in argv))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: seed -1 must be >= 0\n"


def test_config_file_missing_is_io_error(capsys):
    code, _, _ = run(capsys, "--config", "/nonexistent/cfg.json", "commit")
    assert code == cli.EXIT_IO


def test_config_file_bad_json_is_io_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json")
    code, _, _ = run(capsys, "--config", str(cfg), "commit")
    assert code == cli.EXIT_IO


# A UTF-16 byte-order mark: no UTF-8 text starts with 0xff.
UNDECODABLE_CONFIG = b'\xff\xfe{"m": 1}'
PARAMS_ARGV = ("params", "--target-binding", "3e-6",
               "--target-concealing", "1.1e-6")


def test_config_file_not_utf8_is_io_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(UNDECODABLE_CONFIG)
    code, out, err = run(capsys, "--config", str(cfg), *PARAMS_ARGV)
    assert code == cli.EXIT_IO
    assert out == ""
    assert err.startswith("I/O error:") and err.count("\n") == 1, err


def test_out_to_unwritable_path_is_io_error(capsys):
    code, _, _ = run(capsys, "commit", "--m", "1", "--n", "4",
                     "--out", "/nonexistent/dir/report.json")
    assert code == cli.EXIT_IO


@pytest.mark.parametrize("argv, code, prefix", [
    (("attack", "--strategy", "nonsense"), cli.EXIT_USAGE, "usage:"),
    (("table1", "--trials", "10"), cli.EXIT_USAGE, "error:"),
    (("params", "--target-binding", "1e-30", "--target-concealing", "0.5",
      "--max-m", "10"), cli.EXIT_INFEASIBLE, "infeasible:"),
    (IMPOSSIBLE_ALTER, cli.EXIT_USAGE, "error:"),
    (("commit", "--m", "1", "--n", "4", "--out", "/nonexistent/dir/r.json"),
     cli.EXIT_IO, "I/O error:"),
    (("--config", "/nonexistent/cfg.json", "commit"), cli.EXIT_IO,
     "I/O error:"),
    (("--config", "{bad_json}", "commit"), cli.EXIT_IO, "I/O error:"),
], ids=["usage", "parameter", "infeasible", "no-legal-move", "unwritable-out",
        "missing-config", "non-json-config"])
def test_each_failure_class_has_its_code_and_prefix(capsys, tmp_path, argv,
                                                    code, prefix):
    bad_json = tmp_path / "cfg.json"
    bad_json.write_text("not json")
    got, out, err = run(capsys, *(str(bad_json) if arg == "{bad_json}"
                                  else arg for arg in argv))
    assert got == code
    assert out == ""
    assert err.startswith(prefix), err


@pytest.mark.parametrize("config, message", [
    ({"bogus": 1, "m": 2.5}, "config key 'bogus' is no option"),
    ({"m": 2.5, "bogus": 1}, "config value 2.5 does not fit option 'm'"),
    ([1], "config file must hold a JSON object"),
])
def test_config_file_error_names_its_first_bad_key(capsys, tmp_path, config,
                                                   message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(capsys, "--config", str(cfg), "commit") == (
        cli.EXIT_USAGE, "", f"error: {message}\n")


def test_csv_unsupported_for_params_like_reports(capsys):
    # params has a CSV form; alice-alter does not
    code, _, err = run(capsys, "attack", "--strategy", "alice-alter",
                       "--m", "1", "--n", "16", "--trials", "10",
                       "--format", "csv")
    assert code == cli.EXIT_USAGE
    assert "CSV" in err


def _python(*args, check=True):
    """Run a fresh interpreter that imports this cqbc on `args`."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=check)


def test_config_file_not_utf8_is_io_error_in_a_process(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(UNDECODABLE_CONFIG)
    result = _python("-m", "cqbc.cli", "--config", str(cfg), *PARAMS_ARGV,
                     check=False)
    assert result.returncode == cli.EXIT_IO
    assert result.stdout == ""
    assert result.stderr.startswith("I/O error:"), result.stderr
    assert result.stderr.count("\n") == 1, result.stderr


# ---------------------------------------------------------------------------
# the process entry: cli.main, then the heap frozen
# ---------------------------------------------------------------------------

def test_in_process_main_leaves_the_collector_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, *PARAMS_ARGV)[0] == cli.EXIT_OK
    assert run(capsys, "commit", "--m", "1", "--n", "4")[0] == cli.EXIT_OK
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("code", [cli.EXIT_OK, cli.EXIT_USAGE,
                                  cli.EXIT_INFEASIBLE, cli.EXIT_IO])
def test_entry_freezes_after_main_and_passes_its_code(monkeypatch, code):
    calls = []

    def main():
        calls.append("main")
        return code

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    assert cli.entry() == code
    assert calls == ["main", "freeze"]


def test_entry_runs_as_main_module_and_freezes():
    # Run cqbc.cli as __main__, as `python -m cqbc.cli` does, with
    # gc.freeze recording its calls.
    probe = (
        "import gc, runpy, sys\n"
        "calls = []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: (calls.append(1), freeze())\n"
        f"sys.argv = ['cqbc', *{PARAMS_ARGV!r}]\n"
        "try:\n"
        "    runpy.run_module('cqbc.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print([code, len(calls), gc.get_freeze_count() > 0], file=sys.stderr)\n")
    result = _python("-c", probe)
    assert result.stderr.strip().splitlines()[-1] == "[0, 1, True]"
    report = re.sub(r'^  "generated_at": .*\n', "", result.stdout,
                    flags=re.M)
    golden = Path(__file__).parent / "golden" / "params.json"
    assert report == golden.read_text()


def test_console_script_is_the_entry():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    scripts = pyproject.read_text().split("[project.scripts]\n")[1]
    assert scripts.splitlines()[0] == f'cqbc = "cqbc.cli:{cli.entry.__name__}"'


def test_cli_import_leaves_scipy_unloaded():
    probe = "import sys, cqbc.cli; print('scipy' in sys.modules)"
    assert _python("-c", probe).stdout.strip() == "False"


# The modules a command may leave unloaded, watched in a fresh interpreter.
_LAZY = ("cqbc.optics", "cqbc.protocol", "cqbc.security", "cqbc.adversary",
         "numpy", "numpy.random")


def _loaded(probe):
    """Which of _LAZY a fresh interpreter holds after running `probe`."""
    out = _python("-c", probe + "\nimport json, sys\nprint(json.dumps("
                  f"[m for m in {_LAZY!r} if m in sys.modules]))")
    return set(json.loads(out.stdout.splitlines()[-1]))


def test_cli_import_loads_no_layer():
    assert _loaded("import cqbc.cli") == set()
    assert "numpy" not in _loaded("import cqbc.security")


@pytest.mark.parametrize("argv, unloaded", [
    (["table1", "--trials", "1000"],
     {"cqbc.protocol", "cqbc.security", "cqbc.adversary"}),
    (["commit", "--bit", "1"], {"cqbc.security", "cqbc.adversary"}),
    (["params", "--target-binding", "3e-6", "--target-concealing", "1.1e-6"],
     {"cqbc.adversary", "numpy", "numpy.random"}),
    (["attack", "--strategy", "bob-bs", "--runs", "10"], {"cqbc.security"}),
    (["--help"], set(_LAZY)),
    (["attack", "--strategy", "alice-intercept", "--n", "100", "--n0", "10",
      "--trials", "10"], {"cqbc.security"}),
])
def test_subcommand_imports_only_the_modules_it_runs(argv, unloaded):
    probe = f"from cqbc import cli\nassert cli.main({argv!r}) == 0"
    assert not _loaded(probe) & unloaded


def test_package_import_loads_no_submodule():
    probe = ("import sys, cqbc\n"
             "print([m for m in sys.modules if m.startswith('cqbc.')])")
    assert _python("-c", probe).stdout.strip() == "[]"


def test_package_root_names_are_their_home_objects():
    import cqbc
    assert cqbc.__all__[-1] == "__version__"
    for name in cqbc.__all__[:-1]:
        obj = getattr(cqbc, name)
        assert obj.__module__ in ("cqbc.optics", "cqbc.protocol",
                                  "cqbc.security")
        assert getattr(sys.modules[obj.__module__], name) is obj
    namespace = {}
    exec("from cqbc import *", namespace)
    assert set(cqbc.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        cqbc.no_such_name


def test_cli_runs_without_scipy():
    # A None entry makes any `import scipy` fail, installed or not.
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from cqbc import cli\n"
        "codes = [cli.main(['params', '--target-binding', '3e-6',\n"
        "                   '--target-concealing', '1.1e-6']),\n"
        "         cli.main(['attack', '--strategy', 'bob-bs',\n"
        "                   '--runs', '10'])]\n"
        "print(codes, file=sys.stderr)\n")
    assert _python("-c", probe).stderr.strip().splitlines()[-1] == "[0, 0]"


def test_cli_runs_without_numpy():
    # A None entry makes any `import numpy` fail. Nothing here samples:
    # help, a refused target and the solver's report at the README targets.
    params = ["params", "--target-binding", "3e-6",
              "--target-concealing", "1.1e-6"]
    probe = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from cqbc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['--help']),\n"
        "             cli.main(['params', '--target-binding', '0',\n"
        "                       '--target-concealing', '1.1e-6'])]\n"
        f"codes.append(cli.main({params!r}))\n"
        "print(codes, file=sys.stderr)\n")
    result = _python("-c", probe)
    assert "error:" in result.stderr
    assert result.stderr.strip().splitlines()[-1] == "[0, 2, 0]"
    report = re.sub(r'^  "generated_at": .*\n', "", result.stdout,
                    flags=re.M)
    golden = Path(__file__).parent / "golden" / "params.json"
    assert report == golden.read_text()


# ---------------------------------------------------------------------------
# fuzzing the whole CLI in-process
# ---------------------------------------------------------------------------

def _reals(lo, hi):
    """Values in the domain [0, 1] or around it in [lo, hi], or non-finite
    ones, each a third of the time."""
    return (st.floats(0.0, 1.0) | st.floats(lo, hi)
            | st.sampled_from([math.nan, math.inf, -math.inf]))


def _options(**domains):
    """One `--name=value` argument per option."""
    return st.fixed_dictionaries(domains).map(lambda values: [
        f"--{name.replace('_', '-')}={value}"
        for name, value in values.items()])


def _ints(lo, hi):
    """Values in [lo, hi], or, about one time in eight, at the int64 limit
    or past it."""
    return st.integers(1, 8).flatmap(
        lambda draw: st.integers(lo, hi) if draw < 8
        else st.sampled_from([2**63 - 1, 2**63, 10**400]))


_FORMAT = st.sampled_from(["json", "csv"])
_SEED = _ints(-2, 50)
_SIZE = dict(m=_ints(-1, 4), n=_ints(-1, 40))

_ARGVS = st.one_of(
    _options(r=_reals(-0.5, 1.5), trials=_ints(1000, 1500),
             seed=_SEED, format=_FORMAT).map(
        lambda opts: ["table1"] + opts),
    st.tuples(
        _options(r=_reals(-0.5, 1.5), seed=_SEED,
                 format=_FORMAT, **_SIZE),
        st.lists(st.sampled_from(["--bit=0", "--bit=1", "--open-bit=0",
                                  "--open-bit=1"]), max_size=2),
    ).map(lambda parts: ["commit"] + parts[0] + parts[1]),
    _options(strategy=st.sampled_from(sorted(cli._ATTACKS)),
             r=_reals(-0.5, 1.5), trials=_ints(-1, 30),
             seed=_SEED, n0=_ints(-1, 41),
             k=_ints(-1, 5), t_prime=_reals(-0.5, 1.5),
             runs=_ints(-1, 4), format=_FORMAT, **_SIZE).map(
        lambda opts: ["attack"] + opts),
    _options(r=_reals(-0.5, 1.5), target_binding=_reals(-0.5, 1.5),
             target_concealing=_reals(-0.5, 1.5),
             max_m=_ints(-1, 200), max_n=_ints(-1, 400),
             seed=_SEED, format=_FORMAT).map(
        lambda opts: ["params"] + opts),
)

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@settings(max_examples=300, deadline=None)
@given(argv=_ARGVS)
@example(argv=list(IMPOSSIBLE_ALTER))
# a tiny r whose t = 1 - r rounds to 1: p' came out above 1
@example(argv=["params", "--r=1.2028890169405028e-122",
               "--target-binding=1.0", "--target-concealing=1.0",
               "--max-m=0", "--max-n=0"])
# an option this strategy never reads was echoed as NaN in the config
@example(argv=["attack", "--strategy=alice-intercept", "--r=0.0",
               "--trials=0", "--n0=0", "--t-prime=nan", "--m=1", "--n=2"])
# click totals past 2^63 - 1 overflowed int64 with a traceback
@example(argv=list(OVERFLOWING_TOTALS[0]))
# an int past int64 overflowed a float conversion with a traceback
@example(argv=["attack", "--strategy=bob-multiphoton", "--runs=1",
               f"--k={10**400}"])
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INFEASIBLE,
                    cli.EXIT_IO), err.getvalue()
    assert not _NON_FINITE.search(out.getvalue())
