"""Attack simulators versus their closed-form predictions."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cqbc import adversary, optics, protocol
from cqbc import rng as rng_module
from cqbc.errors import AttackImpossibleError, ParameterError
from cqbc.rng import substream

BALANCED = optics.BeamSplitter.balanced()


def params(m=1, n=2000, **kw):
    return protocol.CommitmentParams(m=m, n=n, **kw)


# ---------------------------------------------------------------------------
# Alice: pure interception
# ---------------------------------------------------------------------------

def test_intercept_totals_n0_zero_matches_honest():
    n = 2000
    report = adversary.alice_intercept(0, params(n=n), substream(30, 0))
    # honest: E[D0] = 5n/8, E[D1] = n/8, E[D2] = n/4
    assert report.expected["D0"] == pytest.approx(5 * n / 8)
    assert report.expected["D1"] == pytest.approx(n / 8)
    assert report.expected["D2"] == pytest.approx(n / 4)
    for det in adversary.DETECTORS:
        diff = abs(report.empirical[det] - report.expected[det])
        assert diff < 4.0 * report.std[det]


def test_intercept_totals_shift_with_n0():
    n, n0 = 2000, 800
    report = adversary.alice_intercept(n0, params(n=n), substream(31, 0))
    assert report.expected["D0"] == pytest.approx(5 * n / 8 - n0 / 2)
    assert report.expected["D1"] == pytest.approx(n / 8)
    assert report.expected["D2"] == pytest.approx(n / 4 + n0 / 2)
    for det in adversary.DETECTORS:
        diff = abs(report.empirical[det] - report.expected[det])
        assert diff < 4.0 * report.std[det]


def test_intercept_full_attack_every_mismatch_captured():
    n = 1000
    report = adversary.alice_intercept(n, params(n=n), substream(32, 0))
    # only matched-slot D1/D0 clicks remain; no D0 from mismatches
    assert report.expected["D0"] == pytest.approx(n / 8)
    assert report.expected["D2"] == pytest.approx(3 * n / 4)


def test_intercept_alter_probability_values():
    assert adversary.intercept_alter_probability(100, 0) == pytest.approx(5 / 6)
    assert adversary.intercept_alter_probability(100, 100) == pytest.approx(0.5)
    # monotone decreasing in n0
    vals = [adversary.intercept_alter_probability(100, k) for k in range(0, 101, 10)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_intercept_alter_empirical_matches_analytic():
    n, n0 = 400, 100
    report = adversary.alice_intercept(n0, params(n=n), substream(33, 0),
                                       alter_trials=3000)
    assert report.p_alter_empirical == pytest.approx(
        report.p_alter_analytic, abs=0.03
    )


def test_intercept_rejects_bad_n0():
    with pytest.raises(ParameterError):
        adversary.alice_intercept(-1, params(), substream(34, 0))
    with pytest.raises(ParameterError):
        adversary.alice_intercept(5000, params(n=2000), substream(34, 1))


# ---------------------------------------------------------------------------
# Alice: intercept and resend
# ---------------------------------------------------------------------------

def test_resend_total_click_conservation_exact():
    n, n0 = 2000, 700
    p = params(m=3, n=n)
    report = adversary.alice_intercept_resend(n0, p, substream(35, 0))
    assert report.extras["total_clicks"] == report.extras["expected_total_clicks"]
    assert report.extras["total_clicks"] == p.m * (n + n0)


def test_resend_totals_shift_with_n0():
    n, n0 = 2000, 800
    report = adversary.alice_intercept_resend(n0, params(n=n), substream(36, 0))
    assert report.expected["D0"] == pytest.approx(5 * n / 8)
    assert report.expected["D1"] == pytest.approx(n / 8 + n0 / 2)
    assert report.expected["D2"] == pytest.approx(n / 4 + n0 / 2)
    for det in adversary.DETECTORS:
        diff = abs(report.empirical[det] - report.expected[det])
        assert diff < 4.0 * report.std[det]


def test_resend_alter_probability_values():
    assert adversary.resend_alter_probability(100, 0) == pytest.approx(5 / 6)
    vals = [adversary.resend_alter_probability(100, k) for k in range(0, 101, 10)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_resend_alter_empirical_matches_analytic():
    n, n0 = 400, 100
    report = adversary.alice_intercept_resend(n0, params(n=n), substream(37, 0),
                                              alter_trials=3000)
    assert report.p_alter_empirical == pytest.approx(
        report.p_alter_analytic, abs=0.03
    )


def test_report_json_round_trip():
    import json
    report = adversary.alice_intercept(0, params(n=100), substream(38, 0))
    loaded = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert loaded["strategy"] == "alice-intercept"
    assert loaded["expected"]["D2"] == pytest.approx(25.0)


# ---------------------------------------------------------------------------
# Alice: one-bit alter against a live transcript
# ---------------------------------------------------------------------------

def test_optimal_alter_parity_and_single_flip():
    p = protocol.CommitmentParams(m=5, n=32, master_seed=40)
    t = protocol.run_commit_phase(p, b=0)
    opening = adversary.alice_optimal_alter(t, 1, substream(41, 0))
    assert opening.claimed_bit == 1
    diffs = opening.claimed_bits ^ t.alice.bits
    assert (diffs.sum(axis=1) == 1).all()
    parities = np.bitwise_xor.reduce(opening.claimed_bits, axis=1)
    assert (parities == 1).all()
    # flipped slots never sit on Alice's own D2 record
    assert (t.detectors[diffs.astype(bool)] != 2).all()


def test_optimal_alter_rejects_same_bit():
    p = protocol.CommitmentParams(m=1, n=8, master_seed=42)
    t = protocol.run_commit_phase(p, b=0)
    with pytest.raises(ParameterError):
        adversary.alice_optimal_alter(t, 0, substream(43, 0))


def test_optimal_alter_success_rate_single_sequence():
    """Empirical per-sequence success approaches the 5/6 bound."""
    successes = 0
    trials = 2000
    rng = substream(44, 0)
    for k in range(trials):
        p = protocol.CommitmentParams(m=1, n=32, master_seed=10_000 + k)
        t = protocol.run_commit_phase(p, b=0)
        if t.phase == protocol.PHASE_ABORTED:
            continue
        opening = adversary.alice_optimal_alter(t, 1, rng)
        successes += bool(protocol.bob_verify_opening(t, opening))
    rate = successes / trials
    assert abs(rate - 5 / 6) < 4.0 * math.sqrt((5 / 6) * (1 / 6) / trials) + 0.01


# ---------------------------------------------------------------------------
# Bob's attacks
# ---------------------------------------------------------------------------

def test_d2_detection_probability_honest_rate_is_small():
    p = params(m=1, n=130)
    assert adversary.d2_detection_probability(0.25, p) < 1e-3


def test_d2_detection_probability_follows_the_mirror():
    # An honest r = 0.3 mirror clicks D2 at t/2 = 0.35 per slot.
    p = protocol.CommitmentParams(m=1, n=130, bs=optics.BeamSplitter(0.3, 0.7))
    assert adversary.d2_detection_probability(0.35, p) < 1e-4


def test_d2_detection_probability_monotone_in_m():
    p1 = protocol.CommitmentParams(m=1, n=130)
    p70 = protocol.CommitmentParams(m=70, n=130)
    d1 = adversary.d2_detection_probability(0.4, p1)
    d70 = adversary.d2_detection_probability(0.4, p70)
    assert d70 > d1
    assert d70 == pytest.approx(1.0 - (1.0 - d1) ** 70, rel=1e-9)


def _exact_d2_detection(p_slot, params):
    """1 - (1 - F)^m with F the binomial mass outside the D2 window, in
    exact integers (all mass minus the window's); F is rounded to a float
    once before the power."""
    lo, hi = protocol.d2_window(params)
    n = params.n
    num, den = Fraction(p_slot).as_integer_ratio()
    inside = sum(math.comb(n, k) * num**k * (den - num)**(n - k)
                 for k in range(n + 1) if lo <= k <= hi)
    fail = Fraction((den**n - inside) / den**n)
    return float(1 - (1 - fail) ** params.m)


@pytest.mark.parametrize("n", [2, 16, 32, 130, 1000])
@pytest.mark.parametrize("p_slot", [0.0, 0.01, 0.05, 0.25, 0.3, 0.375, 0.4,
                                    0.49, 0.9, 1.0])
def test_d2_detection_probability_matches_exact_sum(n, p_slot):
    for m in (1, 70):
        p = protocol.CommitmentParams(m=m, n=n)
        assert adversary.d2_detection_probability(p_slot, p) == pytest.approx(
            _exact_d2_detection(p_slot, p), rel=1e-9, abs=0.0)


def test_bob_illegal_bs_detected():
    p = protocol.CommitmentParams(m=70, n=130)
    report = adversary.bob_illegal_bs(0.8, p, substream(45, 0), runs=50)
    assert report.detection_probability > 0.95
    assert report.empirical["d2_slot_rate"] == pytest.approx(0.4, abs=0.01)
    assert report.detection_probability_analytic > 0.99


def test_bob_illegal_bs_honest_t_rarely_flagged():
    p = protocol.CommitmentParams(m=1, n=130)
    report = adversary.bob_illegal_bs(0.5, p, substream(46, 0), runs=2000)
    assert report.extras["per_sequence_failure_rate"] < 1e-3


def test_bob_illegal_bs_validates_t_prime():
    with pytest.raises(ParameterError):
        adversary.bob_illegal_bs(1.0, params(), substream(47, 0))


def test_bob_multiphoton_detected():
    p = protocol.CommitmentParams(m=70, n=130)
    report = adversary.bob_multiphoton(2, p, substream(48, 0), runs=50)
    assert report.expected["d2_slot_rate"] == pytest.approx(0.375)
    assert report.empirical["d2_slot_rate"] == pytest.approx(0.375, abs=0.01)
    assert report.detection_probability > 0.95
    with pytest.raises(ParameterError):
        adversary.bob_multiphoton(1, p, substream(48, 1))


@pytest.mark.parametrize("r", [0.3, 0.5])
@pytest.mark.parametrize("k", [2, 3])
def test_bob_multiphoton_rate_matches_run_slot(r, k):
    # k independent photons through the amplitude model per slot of uniform
    # bits; the slot clicks D2 when any photon is captured.
    bs = optics.BeamSplitter(r, 1.0 - r)
    p = protocol.CommitmentParams(m=1, n=2, bs=bs)
    expected = adversary.bob_multiphoton(k, p, substream(55, 0),
                                         runs=1).expected["d2_slot_rate"]
    rng = substream(56, k, int(10 * r))
    slots = 20_000
    captured = 0
    for a_bit, b_bit in rng.integers(0, 2, size=(slots, 2)).tolist():
        outcomes = [optics.run_slot(a_bit, b_bit, bs, rng).detector
                    for _ in range(k)]
        captured += optics.Detector.D2 in outcomes
    sigma = math.sqrt(expected * (1 - expected) / slots)
    assert abs(captured / slots - expected) < 4.0 * sigma


def test_bob_illegal_polarization_gains_nothing():
    p = protocol.CommitmentParams(m=20, n=130)
    report = adversary.bob_illegal_polarization(optics.PLUS, p,
                                                substream(49, 0), runs=20)
    assert report.empirical["confirmation_rate"] == pytest.approx(
        report.expected["confirmation_rate"], abs=0.01
    )
    assert report.empirical["d2_slot_rate"] == pytest.approx(0.25, abs=0.01)


def test_chunk_boundaries_keep_counts_exact(monkeypatch):
    # One slot per chunk: every trial and run is a chunk of its own.
    monkeypatch.setattr(rng_module, "_CHUNK_SLOTS", 1)
    n, n0 = 300, 70
    p = params(m=3, n=n)
    report = adversary.alice_intercept_resend(n0, p, substream(52, 0),
                                              alter_trials=5)
    assert report.extras["total_clicks"] == p.m * (n + n0)
    assert 0.0 <= report.p_alter_empirical <= 1.0
    p = protocol.CommitmentParams(m=70, n=130)
    runs = 5
    report = adversary.bob_illegal_bs(0.8, p, substream(53, 0), runs=runs)
    failures = report.extras["per_sequence_failure_rate"] * runs * p.m
    assert failures == pytest.approx(round(failures), abs=1e-9)


def test_intercept_memory_does_not_grow_with_trials():
    n = 10_000

    def peak(m, trials):
        tracemalloc.start()
        try:
            adversary.alice_intercept(
                2000, protocol.CommitmentParams(m=m, n=n),
                substream(54, 0), alter_trials=trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full_chunk = max(1, rng_module._CHUNK_SLOTS // n)
    peak(1, 1)   # one-time allocations stay out of both measurements
    assert peak(10 * full_chunk, 10 * full_chunk) <= 1.5 * peak(full_chunk,
                                                                full_chunk)


def test_alter_impossible_when_every_slot_confirmed():
    p = protocol.CommitmentParams(m=1, n=4, master_seed=50)
    t = protocol.run_commit_phase(p, b=0)
    t.detectors[:, :] = 2
    with pytest.raises(AttackImpossibleError):
        adversary.alice_optimal_alter(t, 1, substream(51, 0))
