"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line with the measured numbers.

These run at full scale (1e4 to 1e5 Monte Carlo trials, 10^6 concealing
samples per n) and take a few seconds in total; the unit-test files cover
the same code paths at smaller sizes.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cqbc import adversary, optics, protocol, security
from cqbc.rng import substream

BALANCED = optics.BeamSplitter.balanced()


def report_line(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Per-slot detector table, 1e5 amplitude-level trials per case
# ---------------------------------------------------------------------------

def test_criterion_01_slot_table():
    trials = 100_000
    rng = substream(1, 100)
    start = time.perf_counter()
    worst = 0.0
    for a_bit, b_bit, expect in (
        (0, 1, {"D0": 1.0, "D1": 0.0, "D2": 0.0}),
        (0, 0, {"D0": 0.25, "D1": 0.25, "D2": 0.5}),
    ):
        counts = {"D0": 0, "D1": 0, "D2": 0}
        for _ in range(trials):
            counts[optics.run_slot(a_bit, b_bit, BALANCED, rng).detector.value] += 1
        for det, p in expect.items():
            worst = max(worst, abs(counts[det] / trials - p))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.01 and elapsed < 10.0
    report_line(
        "criterion-01 slot-table",
        ok,
        f"max deviation {worst:.4f} (<= 0.01), runtime {elapsed:.1f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 2. Exact channel probabilities
# ---------------------------------------------------------------------------

def test_criterion_02_exact_channel_probs():
    probs = security.comparison_probs(BALANCED)
    ok = (
        probs.p == Fraction(3, 8)
        and probs.p_prime == Fraction(7, 8)
        and probs.q == Fraction(1, 4)
    )
    report_line(
        "criterion-02 channel-probs",
        ok,
        f"p={probs.p}, p'={probs.p_prime}, q={probs.q} (exact rationals)",
    )


# ---------------------------------------------------------------------------
# 3. Binding advantage at m = 70
# ---------------------------------------------------------------------------

def test_criterion_03_binding():
    adv = security.binding_advantage(70, Fraction(3, 8), Fraction(1, 4))
    adv = float(adv)
    ok = 2.7e-6 <= adv <= 2.9e-6
    report_line("criterion-03 binding", ok,
                f"advantage {adv:.4e} in [2.7e-6, 2.9e-6]")


# ---------------------------------------------------------------------------
# 4. Concealing advantage at (m, n) = (70, 130)
# ---------------------------------------------------------------------------

def test_criterion_04_concealing():
    rep = security.concealing_advantage(70, 130, Fraction(7, 8))
    ok = (
        0.9e-6 <= rep.advantage <= 1.1e-6
        and math.isclose(rep.first_order, rep.advantage, rel_tol=1e-3)
        and "factor 1/2" in rep.factor_two_note
    )
    report_line(
        "criterion-04 concealing",
        ok,
        f"advantage {rep.advantage:.4e} in [0.9e-6, 1.1e-6], "
        f"first-order {rep.first_order:.4e}, note flagged",
    )


# ---------------------------------------------------------------------------
# 5. Parameter solver returns the minimal pair
# ---------------------------------------------------------------------------

def test_criterion_05_parameter_solver():
    res = security.choose_parameters(3e-6, 1.1e-6)
    smaller_m = security.binding_advantage(res.m - 1, 3 / 8, 1 / 4)
    smaller_n = security.concealing_advantage(res.m, res.n - 1, 7 / 8).advantage
    ok = (
        (res.m, res.n) == (70, 130)
        and smaller_m > 3e-6
        and smaller_n > 1.1e-6
    )
    report_line(
        "criterion-05 solver",
        ok,
        f"(m, n) = ({res.m}, {res.n}); m-1 gives {smaller_m:.2e} > 3e-6, "
        f"n-1 gives {smaller_n:.2e} > 1.1e-6",
    )


# ---------------------------------------------------------------------------
# 6. Pure interception: totals and alter success
# ---------------------------------------------------------------------------

def test_criterion_06_intercept():
    n = 10_000
    params = protocol.CommitmentParams(m=1, n=n)
    rng = substream(1, 106)
    devs = []
    for n0 in (0, 2000, n):
        rep = adversary.alice_intercept(n0, params, rng)
        for det in adversary.DETECTORS:
            sigma = max(rep.std[det], 1e-9)
            devs.append(abs(rep.empirical[det] - rep.expected[det]) / sigma)
    totals_ok = max(devs) <= 4.0

    rep = adversary.alice_intercept(2000, params, rng, alter_trials=10_000)
    alter_dev = abs(rep.p_alter_empirical - rep.p_alter_analytic)
    vals = [adversary.intercept_alter_probability(n, k)
            for k in range(0, n + 1, 1000)]
    monotone = all(x > y for x, y in zip(vals, vals[1:]))
    ok = totals_ok and alter_dev <= 0.01 and monotone
    report_line(
        "criterion-06 intercept",
        ok,
        f"max total deviation {max(devs):.2f} sigma (<= 4), "
        f"p_alter {rep.p_alter_empirical:.4f} vs {rep.p_alter_analytic:.4f} "
        f"(|diff| {alter_dev:.4f} <= 0.01), monotone in n0: {monotone}",
    )


# ---------------------------------------------------------------------------
# 7. Intercept and resend: totals, exact click conservation, alter success
# ---------------------------------------------------------------------------

def test_criterion_07_intercept_resend():
    n = 10_000
    params = protocol.CommitmentParams(m=1, n=n)
    rng = substream(1, 107)
    devs = []
    conservation = True
    for n0 in (0, 2000, n):
        rep = adversary.alice_intercept_resend(n0, params, rng)
        conservation &= rep.extras["total_clicks"] == n + n0
        for det in adversary.DETECTORS:
            sigma = max(rep.std[det], 1e-9)
            devs.append(abs(rep.empirical[det] - rep.expected[det]) / sigma)
    totals_ok = max(devs) <= 4.0

    rep = adversary.alice_intercept_resend(2000, params, rng,
                                           alter_trials=10_000)
    alter_dev = abs(rep.p_alter_empirical - rep.p_alter_analytic)
    vals = [adversary.resend_alter_probability(n, k)
            for k in range(0, n + 1, 1000)]
    monotone = all(x > y for x, y in zip(vals, vals[1:]))
    ok = totals_ok and conservation and alter_dev <= 0.01 and monotone
    report_line(
        "criterion-07 intercept-resend",
        ok,
        f"max total deviation {max(devs):.2f} sigma (<= 4), "
        f"click conservation exact: {conservation}, "
        f"p_alter {rep.p_alter_empirical:.4f} vs {rep.p_alter_analytic:.4f} "
        f"(|diff| {alter_dev:.4f} <= 0.01), monotone in n0: {monotone}",
    )


# ---------------------------------------------------------------------------
# 8. Honest completeness at (m, n) = (5, 32) over 1e4 runs
# ---------------------------------------------------------------------------

def test_criterion_08_completeness():
    runs = 10_000
    accepted = 0
    # The statistical D2-rate check runs at a 6-sigma window here: its
    # expected false-positive count over the 5e4 sequences below is 0.002,
    # while the default 4-sigma window would trip ~8 times.
    for k in range(runs):
        params = protocol.CommitmentParams(m=5, n=32, d2_check_sigma=6.0,
                                           master_seed=1_000_000 + k)
        accepted += bool(protocol.run_honest_protocol(params, b=k % 2))
    ok = accepted == runs
    report_line("criterion-08 completeness", ok,
                f"{accepted}/{runs} honest runs accepted (need all)")


# ---------------------------------------------------------------------------
# 9. One-bit alter success on a single sequence
# ---------------------------------------------------------------------------

def test_criterion_09_alter_success():
    trials = 10_000
    rng = substream(1, 109)
    successes = 0
    for k in range(trials):
        params = protocol.CommitmentParams(m=1, n=32, d2_check_sigma=6.0,
                                           master_seed=2_000_000 + k)
        transcript = protocol.run_commit_phase(params, b=k % 2)
        opening = adversary.alice_optimal_alter(transcript, 1 - (k % 2), rng)
        successes += bool(protocol.bob_verify_opening(transcript, opening))
    rate = successes / trials
    dev = abs(rate - 5 / 6)
    ok = dev <= 0.01
    report_line("criterion-09 alter", ok,
                f"success rate {rate:.4f} vs 5/6 = {5/6:.4f} "
                f"(|diff| {dev:.4f} <= 0.01)")


# ---------------------------------------------------------------------------
# 10. D2-rate check catches Bob's device attacks, spares honest devices
# ---------------------------------------------------------------------------

def test_criterion_10_bob_detection():
    params = protocol.CommitmentParams(m=70, n=130)
    rng = substream(1, 110)
    bs_rep = adversary.bob_illegal_bs(0.8, params, rng, runs=1000)
    mp_rep = adversary.bob_multiphoton(2, params, rng, runs=1000)
    honest_params = protocol.CommitmentParams(m=1, n=130)
    fp_rep = adversary.bob_illegal_bs(0.5, honest_params, rng, runs=10_000)
    ok = (
        bs_rep.detection_probability > 0.95
        and mp_rep.detection_probability > 0.8
        and fp_rep.extras["per_sequence_failure_rate"] < 1e-3
    )
    report_line(
        "criterion-10 bob-detection",
        ok,
        f"t'=0.8 detection {bs_rep.detection_probability:.3f} (> 0.95), "
        f"k=2 detection {mp_rep.detection_probability:.3f} (> 0.8), "
        f"honest t'=0.5 per-sequence failure "
        f"{fp_rep.extras['per_sequence_failure_rate']:.2e} (< 1e-3)",
    )


# ---------------------------------------------------------------------------
# 11. Concealing oracle vs. Monte Carlo, plus channel property sweep
# ---------------------------------------------------------------------------

def test_criterion_11_oracle():
    rng = substream(1, 111)
    worst = 0.0
    values = {}
    for n in (2, 3):
        exact = security.concealing_oracle_bruteforce(n)
        est = security.concealing_tv_monte_carlo(n, BALANCED, 1_000_000, rng)
        values[n] = (exact, est)
        worst = max(worst, abs(exact - est))
    mc_ok = worst <= 3e-3

    props_ok = True
    for r in rng.uniform(0.01, 0.99, size=1000):
        bs = optics.BeamSplitter(float(r), float(1.0 - r))
        probs = security.comparison_probs(bs)
        props_ok &= 0 < probs.q < probs.p < probs.p_prime < 1
        for b_bit in (0, 1):
            for a_bit in (0, 1):
                dist = optics.outcome_distribution(a_bit, b_bit, bs)
                props_ok &= abs(sum(dist.values()) - 1.0) < 1e-12
        props_ok &= optics.phase_check(bs) < 1e-12
    ok = mc_ok and props_ok
    report_line(
        "criterion-11 oracle",
        ok,
        f"TV(2) exact {values[2][0]:.6f} vs MC {values[2][1]:.6f}, "
        f"TV(3) exact {values[3][0]:.6f} vs MC {values[3][1]:.6f} "
        f"(max |diff| {worst:.2e} <= 3e-3); "
        f"1000-mirror property sweep: {props_ok}",
    )
