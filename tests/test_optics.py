"""Amplitude-model tests: fixed-point examples plus statistical agreement
between the sampled path and the closed-form distribution."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cqbc import adversary, optics, protocol
from cqbc.errors import ContractViolationError, ParameterError
from cqbc.rng import substream

BALANCED = optics.BeamSplitter.balanced()


def mc_tolerance(p, trials):
    """4-sigma binomial window for an empirical frequency."""
    return 4.0 * math.sqrt(p * (1.0 - p) / trials)


# ---------------------------------------------------------------------------
# BeamSplitter / Polarization invariants
# ---------------------------------------------------------------------------

def test_beamsplitter_rejects_unphysical_parameters():
    with pytest.raises(ParameterError):
        optics.BeamSplitter(0.5, 0.6)
    with pytest.raises(ParameterError):
        optics.BeamSplitter(-0.1, 1.1)


def test_polarization_must_be_normalized():
    for c_h, c_v in ((1.0, 1.0), (math.nan, 0.0), (0.0, math.nan)):
        with pytest.raises(ContractViolationError):
            optics.Polarization(c_h, c_v)


def test_honest_polarizations():
    assert optics.Polarization.from_bit(0) == optics.H
    assert optics.Polarization.from_bit(1) == optics.V


# ---------------------------------------------------------------------------
# bs_forward
# ---------------------------------------------------------------------------

def test_bs_forward_h_balanced():
    state = optics.bs_forward(optics.H, BALANCED)
    assert state.amp_a == pytest.approx(1j / math.sqrt(2), abs=1e-12)
    assert state.amp_b_direct == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert state.amp_b_loop == 0


def test_bs_forward_v_fully_transmitting():
    bs = optics.BeamSplitter(0.0, 1.0)
    state = optics.bs_forward(optics.V, bs)
    assert state.amp_a == 0
    assert state.amp_b_loop == pytest.approx(1.0, abs=1e-12)
    assert state.amp_b_direct == 0


def test_bs_forward_plus_splits_evenly():
    state = optics.bs_forward(optics.PLUS, BALANCED)
    assert state.amp_b_direct == pytest.approx(0.5, abs=1e-12)
    assert state.amp_b_loop == pytest.approx(0.5, abs=1e-12)
    assert abs(state.amp_a) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


@given(
    theta=st.floats(0, 2 * math.pi, allow_nan=False),
    phi=st.floats(0, 2 * math.pi, allow_nan=False),
    r=st.floats(0.01, 0.99),
)
def test_bs_forward_is_linear_in_polarization(theta, phi, r):
    """Receiver-arm amplitudes of a superposition are the superposition of
    the component amplitudes; the norm is preserved."""
    c_h = math.cos(theta)
    c_v = math.sin(theta) * complex(math.cos(phi), math.sin(phi))
    pol = optics.Polarization(c_h, c_v)
    bs = optics.BeamSplitter(r, 1.0 - r)
    state = optics.bs_forward(pol, bs)
    h_state = optics.bs_forward(optics.H, bs)
    v_state = optics.bs_forward(optics.V, bs)
    assert state.amp_b_direct == pytest.approx(
        c_h * h_state.amp_b_direct, abs=1e-12
    )
    assert state.amp_b_loop == pytest.approx(c_v * v_state.amp_b_loop, abs=1e-12)
    assert state.norm_sq == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# apply_switch
# ---------------------------------------------------------------------------

def test_apply_switch_matching_bin_collapses_or_clicks():
    for r in (0.5, 0.3):
        bs = optics.BeamSplitter(r, 1.0 - r)
        state = optics.bs_forward(optics.H, bs)
        clicks, survivor = optics.apply_switch(state, {optics.TIME_BIN_DIRECT})
        assert clicks == ((pytest.approx(bs.t, abs=1e-15),
                           optics.DetectionOutcome(optics.Detector.D2,
                                                   optics.TIME_BIN_DIRECT)),)
        # No click: the photon collapsed onto the sender arm, unnormalized.
        assert survivor.amp_b_direct == 0
        assert survivor.amp_b_loop == 0
        assert survivor.amp_a == state.amp_a
        assert survivor.norm_sq == pytest.approx(bs.r, abs=1e-15)


def test_apply_switch_mismatched_bin_is_transparent():
    state = optics.bs_forward(optics.H, BALANCED)
    clicks, survivor = optics.apply_switch(state, {optics.TIME_BIN_LOOP})
    assert clicks == ()
    assert survivor == state


def test_apply_switch_both_bins_covers_full_receiver_amplitude():
    both = {optics.TIME_BIN_DIRECT, optics.TIME_BIN_LOOP}
    bs = optics.BeamSplitter(0.3, 0.7)
    for pol in (optics.H, optics.V, optics.PLUS):
        clicks, survivor = optics.apply_switch(optics.bs_forward(pol, bs), both)
        assert all(c.detector is optics.Detector.D2 for _, c in clicks)
        assert sum(p for p, _ in clicks) == pytest.approx(bs.t, abs=1e-15)
        assert survivor.norm_sq == pytest.approx(bs.r, abs=1e-15)


# ---------------------------------------------------------------------------
# bs_return
# ---------------------------------------------------------------------------

def test_bs_return_uninterrupted_interference_goes_to_d0():
    state = optics.bs_forward(optics.H, BALANCED)
    p0, p1 = optics.bs_return(state, BALANCED)
    assert p0 == pytest.approx(1.0, abs=1e-12)
    assert p1 == pytest.approx(0.0, abs=1e-12)


def test_bs_return_collapsed_sender_arm():
    collapsed = optics.PhotonState(1j, 0.0, 0.0)
    p0, p1 = optics.bs_return(collapsed, BALANCED)
    assert p0 == pytest.approx(BALANCED.r, abs=1e-12)
    assert p1 == pytest.approx(BALANCED.t, abs=1e-12)


def test_bs_return_vacuum():
    # An absorbed photon leaves no amplitude to reach D0 or D1.
    assert optics.bs_return(optics.PhotonState(0, 0, 0), BALANCED) == (0.0, 0.0)


def test_bs_return_receiver_arm_alone():
    # A photon re-injected from the receiver side: D0 with t, D1 with r.
    state = optics.PhotonState(0.0, 1.0, 0.0)
    p0, p1 = optics.bs_return(state, BALANCED)
    assert p0 == pytest.approx(BALANCED.t, abs=1e-12)
    assert p1 == pytest.approx(BALANCED.r, abs=1e-12)


@given(r=st.floats(0.0, 1.0))
def test_interference_cancellation(r):
    bs = optics.BeamSplitter(r, 1.0 - r)
    assert optics.phase_check(bs) < 1e-12


# ---------------------------------------------------------------------------
# run_slot / outcome_distribution
# ---------------------------------------------------------------------------

def test_outcome_distribution_values():
    neq = optics.outcome_distribution(0, 1, BALANCED)
    assert neq == {optics.Detector.D0: 1.0, optics.Detector.D1: 0.0,
                   optics.Detector.D2: 0.0}
    eq = optics.outcome_distribution(1, 1, BALANCED)
    assert eq[optics.Detector.D0] == pytest.approx(0.25)
    assert eq[optics.Detector.D1] == pytest.approx(0.25)
    assert eq[optics.Detector.D2] == pytest.approx(0.5)
    skew = optics.outcome_distribution(0, 0, optics.BeamSplitter(0.3, 0.7))
    assert skew[optics.Detector.D0] == pytest.approx(0.09)
    assert skew[optics.Detector.D1] == pytest.approx(0.21)
    assert skew[optics.Detector.D2] == pytest.approx(0.7)


@given(r=st.floats(0.0, 1.0), eq=st.booleans())
def test_outcome_distribution_sums_to_one(r, eq):
    bs = optics.BeamSplitter(r, 1.0 - r)
    dist = optics.outcome_distribution(0, 0 if eq else 1, bs)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(3, 10),
                               Fraction(1, 10 ** 20)])
def test_fraction_mirror_gives_exact_channel(r):
    bs = optics.BeamSplitter(r, 1 - r)
    for b_bit in (0, 1):
        dist = optics.outcome_distribution(0, b_bit, bs)
        assert all(type(prob) is Fraction for prob in dist.values())
    assert optics.slot_law(bs) == ((1 + r * r) / 2, r * (1 - r) / 2,
                                   (1 - r) / 2)
    channel = optics.view_channel(bs)
    _assert_view_channel_cells(channel, bs)
    for row in channel:
        assert all(type(prob) is Fraction for prob in row)
        assert sum(row) == 1


def _assert_view_channel_cells(channel, bs):
    """Cell (a, 3b + c) is half of outcome_distribution(a, b)'s click c, for
    all four bit pairs: row 1 is checked against a = 1 itself, not against
    the swap of row 0 that builds it."""
    assert len(channel) == 2
    for a_bit, row in enumerate(channel):
        assert len(row) == 6
        for b_bit in (0, 1):
            dist = optics.outcome_distribution(a_bit, b_bit, bs)
            for click, det in enumerate(optics.Detector):
                assert row[3 * b_bit + click] == dist[det] / 2


@given(r=st.floats(0.0, 1.0))
def test_view_channel_is_half_of_each_bit_pairs_row(r):
    # Float cells equal the halved rows bit for bit, not approximately.
    bs = optics.BeamSplitter(r, 1.0 - r)
    _assert_view_channel_cells(optics.view_channel(bs), bs)


@given(r=st.floats(0.0, 1.0))
def test_slot_law_is_the_float_mix_of_the_two_rows(r):
    # Bob's attack reports and the D2 window read these values, so they
    # must equal the 0.5 * eq + 0.5 * neq mix bit for bit.
    bs = optics.BeamSplitter(r, 1.0 - r)
    eq, neq = (optics.outcome_distribution(0, b_bit, bs) for b_bit in (0, 1))
    assert optics.slot_law(bs) == tuple(
        0.5 * eq[det] + 0.5 * neq[det]
        for det in (optics.Detector.D0, optics.Detector.D1,
                    optics.Detector.D2))
    assert optics.slot_law(bs)[2] == bs.t / 2


def test_run_slot_mismatch_is_deterministic_d0():
    rng = substream(14, 0)
    for r in (0.5, 0.3, 0.9):
        bs = optics.BeamSplitter(r, 1.0 - r)
        for _ in range(200):
            out = optics.run_slot(0, 1, bs, rng)
            assert out.detector is optics.Detector.D0
            assert out.time_bin == optics.TIME_BIN_RETURN


def test_run_slot_fully_transmitting_match_always_d2():
    rng = substream(15, 0)
    bs = optics.BeamSplitter(0.0, 1.0)
    for _ in range(200):
        assert optics.run_slot(1, 1, bs, rng).detector is optics.Detector.D2


@pytest.mark.parametrize("r", [0.5, 0.3])
def test_run_slot_matches_closed_form(r):
    bs = optics.BeamSplitter(r, 1.0 - r)
    rng = substream(16, int(r * 10))
    trials = 30000
    counts = Counter(optics.run_slot(0, 0, bs, rng).detector
                     for _ in range(trials))
    dist = optics.outcome_distribution(0, 0, bs)
    for det, p in dist.items():
        assert abs(counts[det] / trials - p) < mc_tolerance(p, trials) + 1e-9


def _run_slot_uncached(a_bit, b_bit, bs, rng):
    """run_slot without the mirror's table: every amplitude step on every
    call, then one uniform against the cumulative absolute masses (the
    switch's clicks, then D0/D1 of the survivor), none when one outcome
    holds all the mass."""
    state = optics.bs_forward(optics.Polarization.from_bit(b_bit), bs)
    clicks, survivor = optics.apply_switch(
        state, {optics.TIME_BIN_LOOP if a_bit else optics.TIME_BIN_DIRECT})
    p0, p1 = optics.bs_return(survivor, bs)
    law = [*clicks,
           (p0, optics.DetectionOutcome(optics.Detector.D0,
                                        optics.TIME_BIN_RETURN)),
           (p1, optics.DetectionOutcome(optics.Detector.D1,
                                        optics.TIME_BIN_RETURN))]
    law = [(p, outcome) for p, outcome in law if p > 0.0]
    if len(law) == 1:
        return law[0][1]
    u = rng.random()
    below = 0.0
    for p, outcome in law[:-1]:
        below += p
        if u < below:
            return outcome
    return law[-1][1]


@pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("a_bit,b_bit", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_run_slot_equals_uncached_path(r, a_bit, b_bit):
    bs = optics.BeamSplitter(r, 1.0 - r)
    cached, uncached = substream(22, a_bit, b_bit), substream(22, a_bit, b_bit)
    trials = 2000
    assert ([optics.run_slot(a_bit, b_bit, bs, cached) for _ in range(trials)]
            == [_run_slot_uncached(a_bit, b_bit, bs, uncached)
                for _ in range(trials)])
    # Both made the same draws.
    assert cached.random() == uncached.random()


@pytest.mark.parametrize("r,a_bit,b_bit,draws", [
    *[(r, a_bit, 1 - a_bit, 0) for r in (0.3, 0.5, 0.9) for a_bit in (0, 1)],
    *[(r, a_bit, a_bit, 0) for r in (0.0, 1.0) for a_bit in (0, 1)],
    *[(r, a_bit, a_bit, 1) for r in (1e-9, 0.3, 0.5, 0.9)
      for a_bit in (0, 1)],
])
def test_run_slot_draws_only_when_the_outcome_is_uncertain(r, a_bit, b_bit,
                                                           draws):
    bs = optics.BeamSplitter(r, 1.0 - r)
    rng = substream(24, a_bit, b_bit)
    expected = substream(24, a_bit, b_bit)
    for _ in range(50):
        expected.random(draws)
        optics.run_slot(a_bit, b_bit, bs, rng)
        assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("a_bit,b_bit", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_slot_table_masses_equal_closed_form(a_bit, b_bit):
    # Down to r = 1e-29 the photon that escapes the switch must still reach
    # D0 or D1 with its closed-form mass; no survivor may be cut to nothing.
    rs = [0.0, 1.0, *(10.0 ** -k for k in range(1, 30)),
          *np.random.default_rng(25).random(200)]
    for r in rs:
        bs = optics.BeamSplitter(float(r), 1.0 - float(r))
        outcomes, cuts = optics._slot_table(a_bit, b_bit, bs)
        assert len(cuts) == len(outcomes) - 1
        ends = (0.0, *cuts, 1.0)
        closed = optics.outcome_distribution(a_bit, b_bit, bs)
        masses = dict.fromkeys(closed, 0.0)
        for outcome, lo, hi in zip(outcomes, ends, ends[1:]):
            assert outcome.detector in masses, (r, outcome)
            masses[outcome.detector] += hi - lo
        for det, p in closed.items():
            assert abs(masses[det] - p) <= 1e-15, (r, det)


def _word_bytes(rng, size):
    """size uniform bytes from a bare draw of ceil(size / 8) full-range
    64-bit words, byte i of word w being (w >> 8i) & 0xFF."""
    words = rng.integers(0, 2**64, -(-size // 8), dtype=np.uint64)
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    return ((words[:, None] >> shifts) & 0xFF).ravel()[:size]


def _sample_detectors_masked(eq, bs, rng):
    """sample_detectors by the float-threshold rule, on the same k.

    Reads the sampler's draws: k's top byte for every slot, eight bytes to
    a 64-bit word, least significant first, then one 45-bit word for each
    slot, in C order, whose byte holds both a k that reaches a cut and one
    that does not. It rebuilds u = k * 2^-53, as rng.random() gives it,
    and assigns each code by masked comparison of u with the float cuts,
    as the sampler did when it drew u itself.
    """
    matched = optics.outcome_distribution(0, 0, bs)
    d1_from = matched[optics.Detector.D0]
    d2_from = d1_from + matched[optics.Detector.D1]
    high = _word_bytes(rng, eq.size).reshape(eq.shape).astype(np.int64)
    first = (high << 45) * 2.0 ** -53           # the byte's smallest u
    last = ((high << 45) + (1 << 45) - 1) * 2.0 ** -53   # and its largest
    tied = np.zeros(eq.shape, dtype=bool)
    for cut in (d1_from, d2_from):
        tied |= (first < cut) & (last >= cut)
    k = high << 45
    k[tied] += rng.integers(0, 1 << 45, np.count_nonzero(tied))
    u = k * 2.0 ** -53
    det = np.zeros(eq.shape, dtype=np.int8)
    det[eq & (u >= d1_from) & (u < d2_from)] = 1
    det[eq & (u >= d2_from)] = 2
    return det


@pytest.mark.parametrize("r", [0.0, 1e-3, 0.3, 0.5, 1.0])
def test_sample_detectors_equals_masked_assignment(r):
    bs = optics.BeamSplitter(r, 1.0 - r)
    eq = substream(23, 0).random((70, 130)) < 0.5
    rng = substream(23, 1)
    det = optics.sample_detectors(eq, bs, rng)
    reference_rng = substream(23, 1)
    reference = _sample_detectors_masked(eq, bs, reference_rng)
    assert det.dtype == reference.dtype
    assert np.array_equal(det, reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("r", [0.3, 0.5])
def test_sample_detectors_draws_do_not_depend_on_eq(r):
    bs = optics.BeamSplitter(r, 1.0 - r)
    states = []
    for eq in (np.ones((64, 130), dtype=bool), np.zeros((64, 130), dtype=bool)):
        rng = substream(26, 0)
        optics.sample_detectors(eq, bs, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


@pytest.mark.parametrize("r", [0.5, 0.3])
@pytest.mark.parametrize("shape", [(), (1,), (2, 3)])
def test_sample_detectors_keeps_the_shape_of_eq(r, shape):
    # A 0-d eq gets a 0-d int8 array, not a scalar, from the draws of the
    # equal flat call; at r = 0.3 the tied-byte branch runs too.
    bs = optics.BeamSplitter(r, 1.0 - r)
    eq = (np.arange(math.prod(shape)) % 3 != 1).reshape(shape)
    rng, flat_rng = substream(28, len(shape)), substream(28, len(shape))
    det = optics.sample_detectors(eq, bs, rng)
    flat = optics.sample_detectors(eq.ravel(), bs, flat_rng)
    assert isinstance(det, np.ndarray)
    assert det.dtype == np.int8 and det.shape == shape
    assert np.array_equal(det.ravel(), flat)
    assert rng.bit_generator.state == flat_rng.bit_generator.state


@pytest.mark.parametrize("r, tied", [(0.5, 0), (0.3, 2), (Fraction(3, 10), 2)])
def test_sampler_cuts_equal_the_inline_formula(r, tied):
    bs = optics.BeamSplitter(r, 1 - r)
    # The cuts come from the mirror's float values, exact mirror or not.
    matched = optics.outcome_distribution(
        0, 0, optics.BeamSplitter(float(bs.r), float(bs.t)))
    d1_from = matched[optics.Detector.D0]
    cuts = [math.ceil(c * 2**53)
            for c in (d1_from, d1_from + matched[optics.Detector.D1])]
    assert bs._sampler_cuts == (tuple(cuts),
                                tuple(-(-k // 2**45) for k in cuts),
                                tuple(k // 2**45 for k in cuts if k % 2**45))
    assert len(bs._sampler_cuts[2]) == tied
    assert bs._sampler_cuts is bs._sampler_cuts   # built once, kept


class _MultinomialRecorder:
    """A Generator stand-in that records the pvals of each multinomial."""

    def __init__(self):
        self.pvals = []

    def multinomial(self, n, pvals):
        self.pvals.append(list(pvals))
        return np.zeros(len(pvals), dtype=np.int64)


def _intercept_table_bytes(bs):
    # Past the cache, which holds one entry for equal mirrors.
    classes, mean, var, p_alter_model = (
        adversary._intercept_tables.__wrapped__(bs, True, 10, 4))
    arrays = [a for cls in classes for a in (cls.rows, cls.mix, cls.flip)]
    return [a.tobytes() for a in (*arrays, mean, var)], p_alter_model


def test_equal_mirrors_sample_alike():
    # Every sampler reads the mirror's float view, so an exact mirror has
    # the cuts, the draws, the intercept tables and the bob-polarization
    # multinomial law of the equal float mirror.
    eq = np.ones(512, dtype=bool)
    recorder = _MultinomialRecorder()
    for i, r in enumerate(np.random.default_rng(29).random(2000).tolist()):
        exact = optics.BeamSplitter(Fraction(r), Fraction(1 - r))
        floating = optics.BeamSplitter(r, 1 - r)
        assert floating._float_view is floating
        assert exact._sampler_cuts == floating._sampler_cuts, r
        assert np.array_equal(
            optics.sample_detectors(eq, exact, substream(29, i)),
            optics.sample_detectors(eq, floating, substream(29, i))), r
        for bs in (exact, floating):
            adversary.bob_illegal_polarization(
                optics.PLUS, protocol.CommitmentParams(1, 2, bs), recorder,
                runs=1)
        assert recorder.pvals[-2] == recorder.pvals[-1], r
        if i % 20 == 0:   # a table takes about 0.5 ms
            assert (_intercept_table_bytes(exact)
                    == _intercept_table_bytes(floating)), r


def test_balanced_sampler_draws_one_byte_a_slot():
    rng, expected = substream(27, 0), substream(27, 0)
    optics.sample_detectors(np.ones((64, 130), dtype=bool),
                            optics.BeamSplitter.balanced(), rng)
    expected.integers(0, 2**64, 64 * 130 // 8, dtype=np.uint64)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_sample_detectors_agrees_with_run_slot():
    bs = optics.BeamSplitter(0.3, 0.7)
    rng = substream(17, 0)
    trials = 50000
    det = optics.sample_detectors(np.ones(trials, dtype=bool), bs, rng)
    dist = optics.outcome_distribution(0, 0, bs)
    for code, d in enumerate((optics.Detector.D0, optics.Detector.D1,
                              optics.Detector.D2)):
        p = dist[d]
        assert abs((det == code).mean() - p) < mc_tolerance(p, trials)
    # mismatched slots are always D0
    det = optics.sample_detectors(np.zeros(100, dtype=bool), bs, rng)
    assert (det == 0).all()
