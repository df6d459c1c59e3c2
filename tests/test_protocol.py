"""Commit/open round-trip tests: sequence generation, transcript records,
the D2-rate check, and the verification predicate."""

import dataclasses
import itertools
import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqbc import cli, optics, protocol, security
from cqbc.errors import ParameterError
from cqbc.rng import substream


def make_params(**kw):
    kw.setdefault("m", 3)
    kw.setdefault("n", 16)
    return protocol.CommitmentParams(**kw)


# ---------------------------------------------------------------------------
# parameters and sequence generation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ParameterError):
        protocol.CommitmentParams(m=0, n=16)
    with pytest.raises(ParameterError):
        protocol.CommitmentParams(m=3, n=1)
    # A NaN or infinite window width would make every check fail or pass.
    for sigma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            protocol.CommitmentParams(m=3, n=16, d2_check_sigma=sigma)
    with pytest.raises(ParameterError):
        protocol.alice_generate(0, 3, 1, substream(0, 0))


@pytest.mark.parametrize("p_slot", [-0.1, 1.1, math.nan])
def test_d2_detection_probability_refuses_a_rate_outside_0_1(p_slot):
    with pytest.raises(ParameterError):
        protocol.d2_detection_probability(p_slot, make_params())


@given(b=st.integers(0, 1), m=st.integers(1, 8), n=st.integers(2, 24),
       seed=st.integers(0, 1000))
def test_alice_parity_constraint(b, m, n, seed):
    bits = protocol.alice_generate(b, m, n, substream(seed, 0))
    assert bits.shape == (m, n)
    assert (np.bitwise_xor.reduce(bits, axis=1) == b).all()


def _byte_bits(rng, m, n):
    """m rows of n fair bits, unpacked most significant bit first from
    ceil(m n / 8) uniform bytes: the draw behind both parties' sequences.
    The bytes come from a bare draw of 64-bit words, byte i of word w
    being (w >> 8i) & 0xFF."""
    size = math.ceil(m * n / 8)
    words = rng.integers(0, 2**64, math.ceil(size / 8), dtype=np.uint64)
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    random_bytes = ((words[:, None] >> shifts) & 0xFF).astype(np.uint8)
    return np.unpackbits(random_bytes.ravel()[:size],
                         count=m * n).reshape(m, n)


@pytest.mark.parametrize("m, n", [(32768, 2), (21845, 3), (70, 130), (1, 32)])
def test_alice_generate_parity_matches_row_reduce(m, n):
    # Short rows take their parity down the columns of a transposed copy;
    # the bits must equal those of a plain reduce along each row.
    bits = _byte_bits(substream(102, m, n), m, n)
    bits[:, -1] = np.bitwise_xor.reduce(bits[:, :-1], axis=1) ^ 1
    assert np.array_equal(protocol.alice_generate(1, m, n,
                                                  substream(102, m, n)), bits)


def test_alice_generate_uniform_over_parity_class():
    """Frequency oracle: each of the 2^(n-1) strings with the right parity
    appears with near-equal frequency, and no wrong-parity string appears."""
    n = 4
    draws = 40000
    bits = protocol.alice_generate(1, draws, n, substream(100, 0))
    codes = bits @ (1 << np.arange(n))
    counts = np.bincount(codes, minlength=2 ** n)
    odd_parity = np.array([bin(c).count("1") % 2 for c in range(2 ** n)])
    assert (counts[odd_parity == 0] == 0).all()
    expect = draws / 2 ** (n - 1)
    tol = 4.0 * math.sqrt(expect)
    assert (np.abs(counts[odd_parity == 1] - expect) < tol).all()


@pytest.mark.parametrize("m, n", [(1, 2), (3, 7), (5, 9), (70, 130)])
def test_bob_generate_is_the_unpacked_byte_draw(m, n):
    rng, reference_rng = substream(103, m, n), substream(103, m, n)
    bits = protocol.bob_generate(m, n, rng)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, _byte_bits(reference_rng, m, n))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("generate", [
    protocol.bob_generate,
    lambda m, n, rng: protocol.alice_generate(1, m, n, rng)])
def test_generated_bits_are_uniform_in_every_window(generate):
    """At n = 9 rows start at every offset within a byte. Every window of
    4 consecutive bits in a row shows each of the 16 patterns equally often
    (4 bits of a parity-constrained 9-bit string are uniform too)."""
    m, n, width = 160_000, 9, 4
    bits = generate(m, n, substream(104, 0)).astype(np.intp)
    expect = m / 2 ** width
    sigma = math.sqrt(expect * (1 - 2 ** -width))
    # Bonferroni over 6 offsets x 16 patterns: 96 * P(|Z| > 4.5) < 1e-3.
    for offset in range(n - width + 1):
        codes = bits[:, offset:offset + width] @ (1 << np.arange(width))
        counts = np.bincount(codes, minlength=2 ** width)
        assert (np.abs(counts - expect) < 4.5 * sigma).all(), (offset, counts)


def test_bob_generate_shape_and_balance():
    bits = protocol.bob_generate(100, 50, substream(101, 0))
    assert bits.shape == (100, 50)
    assert abs(bits.mean() - 0.5) < 4.0 * math.sqrt(0.25 / 5000)


# ---------------------------------------------------------------------------
# commit phase
# ---------------------------------------------------------------------------

def test_commit_phase_is_deterministic_given_seed():
    params = make_params(master_seed=7)
    t1 = protocol.run_commit_phase(params, b=1)
    t2 = protocol.run_commit_phase(params, b=1)
    assert np.array_equal(t1.alice_bits, t2.alice_bits)
    assert np.array_equal(t1.bob_bits, t2.bob_bits)
    assert np.array_equal(t1.detectors, t2.detectors)


def test_commit_phase_detector_statistics():
    params = make_params(m=40, n=100, master_seed=8)
    t = protocol.run_commit_phase(params, b=0)
    slots = params.m * params.n
    # overall: P(D0) = (1 + r^2)/2 = 5/8, P(D1) = rt/2 = 1/8, P(D2) = t/2 = 1/4
    for code, p in ((0, 5 / 8), (1, 1 / 8), (2, 1 / 4)):
        freq = (t.detectors == code).mean()
        assert abs(freq - p) < 4.0 * math.sqrt(p * (1 - p) / slots)
    # exactly one click per honest slot
    assert t.detectors.dtype == np.int8
    assert np.isin(t.detectors, (0, 1, 2)).all()


def test_d2_check_window_and_abort():
    params = make_params(m=2, n=16, master_seed=9)
    t = protocol.run_commit_phase(params, b=0)
    # 4 -/+ 4 sqrt(3) = -2.93..10.93, clipped below at 0.
    assert protocol.d2_window(params) == range(0, 11)
    assert t.phase == protocol.PHASE_COMMITTED
    # Force a sequence outside the window through its clicks alone: the
    # counts, the check, the phase and the opening verdict all follow.
    t.detectors[0, :] = 2
    assert not protocol.alice_check_d2(t.d2_counts, params)[0]
    assert protocol.alice_check_d2(t.d2_counts, params)[1]
    assert t.phase == protocol.PHASE_ABORTED
    assert t.summary()["d2_check"]["passed"][0] is False
    verdict = protocol.bob_verify_opening(t, t.honest_opening())
    assert verdict.reason == "aborted"


def test_d2_window_edges_are_inclusive():
    # At the agreed r = 0 an honest slot clicks D2 with p = 1/2, so n = 16
    # and sigma = 1 give the window 8 -/+ 2, both edges on integers.
    params = protocol.CommitmentParams(m=1, n=16, bs=optics.BeamSplitter(
        0.0, 1.0), d2_check_sigma=1.0)
    assert protocol.d2_window(params) == range(6, 11)
    passed = protocol.alice_check_d2(np.arange(17), params)
    assert np.flatnonzero(passed).tolist() == [6, 7, 8, 9, 10]


def test_empty_d2_window_fails_every_count():
    # 32.5 -/+ 0.01 sqrt(130 * 0.25 * 0.75) = 32.45..32.55 holds no integer.
    params = protocol.CommitmentParams(m=1, n=130, d2_check_sigma=0.01)
    assert protocol.d2_window(params) == range(33, 33)
    assert not protocol.alice_check_d2(np.arange(131), params).any()
    for p_slot in (0.0, 0.25, 0.5, 1.0):
        assert protocol.d2_detection_probability(p_slot, params) == 1.0


def test_overflowing_d2_window_passes_every_count():
    # sigma * sd overflows to inf; the edges are clipped to [0, n] first.
    params = protocol.CommitmentParams(m=3, n=16, d2_check_sigma=1.7e308)
    assert protocol.d2_window(params) == range(0, 17)
    assert protocol.alice_check_d2(np.arange(17), params).all()
    assert protocol.run_commit_phase(params).phase == protocol.PHASE_COMMITTED
    for p_slot in (0.0, 0.25, 0.5, 1.0):
        assert protocol.d2_detection_probability(p_slot, params) == 0.0


def test_fully_transmitting_mirror_forces_abort():
    # With t = 1 every matched slot clicks D2: ~n/2 clicks where the agreed
    # balanced mirror gives n/4, so Alice's check trips.
    agreed = protocol.CommitmentParams(m=2, n=64, master_seed=10)
    swapped = dataclasses.replace(agreed, bs=optics.BeamSplitter(0.0, 1.0))
    t = protocol.run_commit_phase(swapped, b=0)
    assert not protocol.alice_check_d2(t.d2_counts, agreed).all()
    # A failed check aborts the commit, which then opens to nothing.
    narrow = dataclasses.replace(agreed, d2_check_sigma=1e-3)
    t = protocol.run_commit_phase(narrow, b=0)
    assert t.phase == protocol.PHASE_ABORTED
    assert not protocol.bob_verify_opening(t, t.honest_opening())
    assert protocol.bob_verify_opening(t, t.honest_opening()).reason == "aborted"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d2_window_follows_the_mirror(seed):
    # The honest D2 rate is t/2; a window fixed at the balanced mirror's n/4
    # aborted these (70, 130) commits at r = 0.3 with 9, 6 and 4 sequences
    # out of it.
    params = protocol.CommitmentParams(
        m=70, n=130, bs=optics.BeamSplitter(0.3, 0.7), master_seed=seed)
    # 45.5 -/+ 4 sqrt(130 * 0.35 * 0.65) = 23.75..67.25
    window = protocol.d2_window(params)
    assert window == range(24, 68)
    assert (window.start + window[-1]) / 2 == 130 * 0.35
    t = protocol.run_commit_phase(params)
    assert t.phase == protocol.PHASE_COMMITTED
    assert protocol.bob_verify_opening(t, t.honest_opening())


# ---------------------------------------------------------------------------
# verification predicate
# ---------------------------------------------------------------------------

def committed_transcript(seed=11, b=0, **kw):
    params = make_params(master_seed=seed, **kw)
    return protocol.run_commit_phase(params, b=b)


def test_honest_opening_accepts():
    t = committed_transcript()
    result = protocol.bob_verify_opening(t, t.honest_opening())
    assert result
    assert result.reason == ""


def test_parity_mismatch_rejected():
    t = committed_transcript(b=0)
    opening = t.honest_opening()
    opening.claimed_bit = 1  # bits still have parity 0
    assert protocol.bob_verify_opening(t, opening).reason == "parity-mismatch"


def test_dimension_mismatch_rejected():
    t = committed_transcript()
    opening = t.honest_opening()
    opening.claimed_bits = opening.claimed_bits[:, :-1]
    assert protocol.bob_verify_opening(t, opening).reason == "dimension-mismatch"


def test_flip_on_confirmed_slot_rejected():
    t = committed_transcript(b=0, seed=12)
    opening = t.honest_opening()
    confirmed = np.flatnonzero(t.detectors[0] == 1)
    unconfirmed = np.flatnonzero(t.detectors[0] == 0)
    assert confirmed.size > 0 and unconfirmed.size > 0
    # flip a confirmed slot plus an unconfirmed one to keep the parity intact
    opening.claimed_bits[0, confirmed[0]] ^= 1
    opening.claimed_bits[0, unconfirmed[0]] ^= 1
    assert (protocol.bob_verify_opening(t, opening).reason
            == "confirmed-slot-mismatch")


def test_flip_on_d2_slot_rejected():
    # Bob confirms a slot on no click too (an inferred D2), so a flip there
    # must fail the same check as a flip on a D1 slot.
    t = committed_transcript(b=0, seed=12, m=5, n=32)
    opening = t.honest_opening()
    d2_slots = np.flatnonzero(t.detectors[0] == 2)
    d0_slots = np.flatnonzero(t.detectors[0] == 0)
    assert d2_slots.size > 0 and d0_slots.size > 0
    # flip a D0 slot too, to keep the parity intact
    opening.claimed_bits[0, d2_slots[0]] ^= 1
    opening.claimed_bits[0, d0_slots[0]] ^= 1
    assert (protocol.bob_verify_opening(t, opening).reason
            == "confirmed-slot-mismatch")


def test_flip_on_d0_slot_with_bit_change_accepted():
    """Flipping one bit on a D0 slot keeps every check green: this is
    exactly the residual binding gap the analytic bound quantifies."""
    t = committed_transcript(b=0, seed=13)
    opening = t.honest_opening()
    for i in range(t.params.m):
        unconfirmed = np.flatnonzero(t.detectors[i] == 0)
        assert unconfirmed.size > 0
        opening.claimed_bits[i, unconfirmed[0]] ^= 1
    opening.claimed_bit = 1
    assert protocol.bob_verify_opening(t, opening)


def test_closed_switch_slot_opens_either_bit():
    # A switch open at no bin measures nothing: the photon returns whole
    # and gives D0 whatever Bob's bit, as a mismatched slot does.
    for pol in (optics.H, optics.V):
        _, survivor = optics.apply_switch(
            optics.bs_forward(pol, optics.BeamSplitter.balanced()), set())
        p_d0, _ = optics.bs_return(survivor, optics.BeamSplitter.balanced())
        assert p_d0 == pytest.approx(1.0, rel=0.0, abs=1e-12)
    # Bob neither confirms a D0 slot nor checks its claim, so a closed
    # switch on slot 0 of every sequence lets Alice fix each sequence's
    # parity there and open either bit through the real verifier.
    opened = 0
    for seed in range(200):
        honest = committed_transcript(seed=seed, b=1, m=5, n=32)
        detectors = honest.detectors.copy()
        detectors[:, 0] = 0
        t = dataclasses.replace(honest, detectors=detectors)
        if t.phase == protocol.PHASE_ABORTED:
            continue
        opened += 1
        for bit in (0, 1):
            claimed = t.alice_bits.copy()
            claimed[:, 0] ^= np.bitwise_xor.reduce(claimed, axis=1) ^ bit
            opening = protocol.OpeningMessage(bit, claimed, t.d2_inferred())
            assert protocol.bob_verify_opening(t, opening), (seed, bit)
    assert opened >= 190


def _best_alter(actions):
    """Alice's best chance that both openings pass at m = 1 and n = 2,
    enumerated exactly at r = 1/2 through the real verifier.

    Per slot she opens bin 0, bin 1, both bins or none; Bob's bit is
    uniform. Her record of a slot is the bin whose D2 clicked, if any, and
    for each record she takes her best pair of openings, each claiming
    that record as her D2 record (any other claim fails Bob's inference).
    """
    n, half = 2, Fraction(1, 2)
    bs = optics.BeamSplitter(half, half)
    r, t = bs.r, bs.t
    params = protocol.CommitmentParams(m=1, n=n, bs=bs)
    # The window passes every count here, so only the opening is graded.
    assert protocol.d2_window(params) == range(n + 1)

    def slot_law(action, b):
        """(click code, Alice's D2 bin or None) -> probability."""
        if action is None:          # closed: the photon returns whole
            return {(0, None): Fraction(1)}
        if action == "both":        # Bob's photon meets an open bin
            return {(0, None): r * r, (1, None): r * t, (2, b): t}
        dist = optics.outcome_distribution(action, b, bs)
        return {(code, action if code == 2 else None): dist[det]
                for code, det in enumerate(optics.Detector) if dist[det]}

    strings = [np.array([s], dtype=np.uint8)
               for s in itertools.product((0, 1), repeat=n)]
    best = Fraction(0)
    for profile in itertools.product(actions, repeat=n):
        # Alice's record -> [(probability, Bob's bits, clicks)].
        views = defaultdict(list)
        for bob in itertools.product((0, 1), repeat=n):
            for slots in itertools.product(*(
                    slot_law(a, b).items() for a, b in zip(profile, bob))):
                prob = half ** n
                for _, p in slots:
                    prob *= p
                clicks = tuple(code for (code, _), _ in slots)
                record = tuple(bin_ for (_, bin_), _ in slots)
                views[record].append((prob, bob, clicks))
        total = Fraction(0)
        for record, outcomes in views.items():
            claimed_d2 = np.array([[bin_ is not None for bin_ in record]])
            graded = []   # (probability, passing openings of 0, of 1)
            for prob, bob, clicks in outcomes:
                transcript = protocol.CommitmentTranscript(
                    params, 0, strings[0], np.array([bob], dtype=np.uint8),
                    np.array([clicks], dtype=np.int8))
                graded.append((prob, *([bool(protocol.bob_verify_opening(
                    transcript, protocol.OpeningMessage(bit, s, claimed_d2)))
                    for s in strings] for bit in (0, 1))))
            total += max(
                sum(prob for prob, zero, one in graded if zero[i] and one[j])
                for i in range(len(strings)) for j in range(len(strings)))
        best = max(best, total)
    return best


def test_best_alter_at_n2_is_the_paper_attack_unless_a_switch_closes():
    # No action profile beats the one-bit alter of an honest commit: it
    # fails when both slots click D2 (q = t/2 each) and otherwise succeeds
    # with (1 - p)/(1 - q). A closed switch opens either bit for certain.
    probs = security.comparison_probs(optics.BeamSplitter.balanced())
    assert _best_alter((0, 1, "both")) == Fraction(25, 32) == (
        (1 - probs.q ** 2) * (1 - probs.p) / (1 - probs.q))
    assert _best_alter((0, 1, "both", None)) == 1


def test_claims_that_are_not_bits_rejected():
    # Each claim reduces to the honest one under a uint8 cast or `& 1`.
    t = committed_transcript(seed=3, b=1, m=5, n=32)
    d0_slot = np.flatnonzero(t.detectors[0] == 0)[0]
    assert t.alice_bits[0, d0_slot] == 1
    assert protocol.bob_verify_opening(t, t.honest_opening())
    for dtype, value in ((np.int64, 257), (np.float64, 1.5)):
        opening = t.honest_opening()
        opening.claimed_bits = opening.claimed_bits.astype(dtype)
        opening.claimed_bits[0, d0_slot] = value
        assert protocol.bob_verify_opening(t, opening).reason == "not-a-bit"
    opening = t.honest_opening()
    opening.claimed_bit = 3
    assert protocol.bob_verify_opening(t, opening).reason == "not-a-bit"


def test_wrong_d2_record_rejected():
    t = committed_transcript(seed=14)
    opening = t.honest_opening()
    opening.claimed_d2 = ~opening.claimed_d2
    assert (protocol.bob_verify_opening(t, opening).reason
            == "d2-record-mismatch")


def test_d2_inference_matches_alice_record_in_honest_run():
    t = committed_transcript(seed=15, m=10, n=64)
    assert np.array_equal(t.d2_inferred(), t.detectors == 2)
    assert np.array_equal(t.d2_counts, t.d2_inferred().sum(axis=1))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), b=st.integers(0, 1))
def test_run_honest_protocol_completeness(seed, b):
    params = protocol.CommitmentParams(m=2, n=32, d2_check_sigma=6.0,
                                       master_seed=seed)
    assert protocol.run_honest_protocol(params, b=b)


# ---------------------------------------------------------------------------
# transcript serialization
# ---------------------------------------------------------------------------

def test_transcript_summary_fields():
    t = committed_transcript(seed=16)
    s = t.summary()
    assert s["m"] == t.params.m and s["n"] == t.params.n
    assert s["phase"] == protocol.PHASE_COMMITTED
    total = s["clicks"]["D0"] + s["clicks"]["D1"] + s["clicks"]["D2"]
    assert total == s["total_slots"]
    assert s["d2_check"]["all_passed"]
    # JSON round trip
    import json
    assert json.loads(json.dumps(t.summary(), sort_keys=True)) == s


def _rows_by_the_per_row_rule(t):
    """A D2 click comes back in Alice's time bin (direct for a = 0, loop
    for a = 1); a D0 or D1 click in the return bin."""
    rows = []
    for i in range(t.params.m):
        for j in range(t.params.n):
            a, b = int(t.alice_bits[i, j]), int(t.bob_bits[i, j])
            code = int(t.detectors[i, j])
            if code == 2:
                time_bin = optics.TIME_BIN_LOOP if a else optics.TIME_BIN_DIRECT
            else:
                time_bin = optics.TIME_BIN_RETURN
            rows.append([i, j, a, b, f"D{code}", time_bin])
    return rows


def test_slot_rows_follow_the_per_row_rule():
    # Every click code under both of Alice's bits.
    alice = np.array([[0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.uint8)
    bob = np.array([[0, 1, 1, 0], [1, 0, 0, 1]], dtype=np.uint8)
    detectors = np.array([[2, 2, 0, 0], [1, 1, 0, 0]], dtype=np.int8)
    t = protocol.CommitmentTranscript(make_params(m=2, n=4), 0, alice, bob,
                                      detectors)
    assert [list(row) for row in t.slot_rows()] == _rows_by_the_per_row_rule(t)


def test_slot_rows_across_blocks_follow_the_per_row_rule():
    # Rows are built a block of whole sequences at a time: 32768 sequences
    # of n = 2 fill one block, so the last sequence is a block of its own.
    t = protocol.run_commit_phase(
        protocol.CommitmentParams(m=32769, n=2, master_seed=21), b=0)
    assert [list(row) for row in t.slot_rows()] == _rows_by_the_per_row_rule(t)


def test_transcript_csv(tmp_path):
    path = tmp_path / "transcript.csv"
    assert cli.main(["commit", "--m", "2", "--n", "8", "--bit", "0",
                     "--seed", "17", "--out", str(tmp_path / "report.json"),
                     "--transcript", str(path)]) == cli.EXIT_OK
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,a,b,detector,time_bin"
    assert len(lines) == 1 + 2 * 8
    for line in lines[1:]:
        i, j, a, b, det, tb = line.split(",")
        assert det in ("D0", "D1", "D2")
        if det == "D0":
            assert int(tb) == optics.TIME_BIN_RETURN
        if det == "D2":
            assert int(tb) in (optics.TIME_BIN_DIRECT, optics.TIME_BIN_LOOP)
