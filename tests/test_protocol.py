"""Commit/open round-trip tests: sequence generation, transcript records,
the D2-rate check, and the verification predicate."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqbc import cli, optics, protocol
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


@given(b=st.integers(0, 1), m=st.integers(1, 8), n=st.integers(2, 24),
       seed=st.integers(0, 1000))
def test_alice_parity_constraint(b, m, n, seed):
    bits = protocol.alice_generate(b, m, n, substream(seed, 0))
    assert bits.shape == (m, n)
    assert (np.bitwise_xor.reduce(bits, axis=1) == b).all()


def _byte_bits(rng, m, n):
    """m rows of n fair bits, unpacked most significant bit first from
    ceil(m n / 8) uniform bytes: the draw behind both parties' sequences."""
    random_bytes = rng.integers(0, 256, size=math.ceil(m * n / 8),
                                dtype=np.uint8)
    return np.unpackbits(random_bytes, count=m * n).reshape(m, n)


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
    bits = protocol.bob_generate(m, n, substream(103, m, n))
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, _byte_bits(substream(103, m, n), m, n))


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
    lo, hi = protocol.d2_window(params)
    assert lo == pytest.approx(4 - 4 * math.sqrt(3), abs=1e-9)
    assert hi == pytest.approx(4 + 4 * math.sqrt(3), abs=1e-9)
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
    assert protocol.d2_window(params) == (6.0, 10.0)
    passed = protocol.alice_check_d2(np.arange(17), params)
    assert np.flatnonzero(passed).tolist() == [6, 7, 8, 9, 10]


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
    lo, hi = protocol.d2_window(params)
    assert (lo + hi) / 2 == pytest.approx(130 * 0.35)
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


def test_slot_rows_follow_the_per_row_rule():
    # Every click code under both of Alice's bits. A D2 click comes back
    # in her time bin (direct for a = 0, loop for a = 1); a D0 or D1 click
    # in the return bin.
    alice = np.array([[0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.uint8)
    bob = np.array([[0, 1, 1, 0], [1, 0, 0, 1]], dtype=np.uint8)
    detectors = np.array([[2, 2, 0, 0], [1, 1, 0, 0]], dtype=np.int8)
    t = protocol.CommitmentTranscript(make_params(m=2, n=4), 0, alice, bob,
                                      detectors)
    expected = []
    for i in range(2):
        for j in range(4):
            a, b, code = int(alice[i, j]), int(bob[i, j]), int(detectors[i, j])
            if code == 2:
                time_bin = optics.TIME_BIN_LOOP if a else optics.TIME_BIN_DIRECT
            else:
                time_bin = optics.TIME_BIN_RETURN
            expected.append([i, j, a, b, f"D{code}", time_bin])
    assert [list(row) for row in t.slot_rows()] == expected


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
