"""Attack simulators versus their closed-form predictions."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqbc import adversary, optics, protocol, security
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


def test_resend_refuses_click_totals_past_int64():
    # m (n + n0) = 2^63 wrapped round to -2^63 in the int64 totals.
    rng = substream(35, 1)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="int64"):
        adversary.alice_intercept_resend(4, params(m=2**60, n=4), rng)
    assert rng.bit_generator.state == state   # refused before any draw
    largest = params(m=(2**63 - 1) // 8, n=4)
    report = adversary.alice_intercept_resend(4, largest, rng)
    assert report.extras["total_clicks"] == largest.m * 8


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


def _plain(value):
    """Whether `value` is built of plain Python values only: a numpy scalar
    subclassing float or int is not plain."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(_plain(v) for v in value)
    return value is None or type(value) in (int, float, str, bool)


@pytest.mark.parametrize("attack", [
    lambda p, rng: adversary.alice_intercept(3, p, rng, alter_trials=20),
    lambda p, rng: adversary.alice_intercept_resend(3, p, rng,
                                                    alter_trials=20),
    lambda p, rng: adversary.bob_illegal_bs(0.8, p, rng, runs=5),
    lambda p, rng: adversary.bob_multiphoton(2, p, rng, runs=5),
    lambda p, rng: adversary.bob_illegal_polarization(optics.PLUS, p, rng,
                                                      runs=5),
])
def test_report_dict_holds_plain_values(attack):
    report = attack(params(m=2, n=16), substream(39, 0)).to_dict()
    assert _plain(report), report


# ---------------------------------------------------------------------------
# Alice: slot classes against the keyed per-slot tables they replace
# ---------------------------------------------------------------------------

def _channel_table(a_bit, b_bit, bs):
    """The honest comparison channel: one click per slot."""
    dist = optics.outcome_distribution(a_bit, b_bit, bs)
    return [((1, 0, 0), dist[optics.Detector.D0]),
            ((0, 1, 0), dist[optics.Detector.D1]),
            ((0, 0, 1), dist[optics.Detector.D2])]


def _attack_tables(bs, resend):
    """The reference: four per-slot tables of ((beta0, beta1, alpha),
    probability) rows, indexed by 2 * attacked + mismatched."""
    honest = [_channel_table(0, 0, bs), _channel_table(0, 1, bs)]
    # Matched attacked slots click as honest ones; on mismatched ones Alice
    # captures the photon.
    attacked = [honest[0], [((0, 0, 1), 1.0)]]
    if resend:
        # The re-emitted photon re-enters the receiver arm: D0 with t, D1
        # with r.
        resent = [((1, 0, 0), bs.t), ((0, 1, 0), bs.r)]
        attacked = [
            [(tuple(x + y for x, y in zip(counts, extra)), prob * p_extra)
             for counts, prob in table for extra, p_extra in resent]
            for table in attacked
        ]
    return honest + attacked


def _reference_flip(tables, resend):
    """Per row of the four tables, in order: is it a candidate, and an
    unflagged candidate?"""
    rows = np.array([c for table in tables for c, _ in table])
    candidate = rows[:, 2] == 0
    if resend:
        candidate[len(tables[0]) + len(tables[1]):] = True
    unflagged = (rows[:, 0] > 0) & (rows[:, 1] == 0)
    return np.column_stack([candidate, candidate & unflagged])


def _reference_totals(tables, n, n0, m):
    """Expected totals and their standard deviations by the row loop over
    the tables, each slot's bits matching with probability 1/2."""
    mean = np.zeros(3)
    var = np.zeros(3)
    for attacked, slots in ((0, n - n0), (1, n0)):
        first = np.zeros(3)
        second = np.zeros(3)
        for table in tables[2 * attacked:2 * attacked + 2]:
            for c, prob in table:
                c = np.array(c, dtype=float)
                first += 0.5 * prob * c
                second += 0.5 * prob * c * c
        mean += slots * first
        var += slots * (second - first * first)
    return ((m * mean).tolist(),
            [np.sqrt(m) * v for v in np.sqrt(var).tolist()])


@pytest.mark.parametrize("resend", [False, True])
@pytest.mark.parametrize("r", [0.5, 0.3, 0.05, 0.0, 1.0])
def test_slot_classes_are_the_half_mixture_of_the_keyed_tables(r, resend):
    bs = optics.BeamSplitter(r, 1.0 - r)
    tables = _attack_tables(bs, resend)
    flip = _reference_flip(tables, resend)
    classes = adversary._slot_classes(bs, resend)
    start = 0
    for cls, pair in zip(classes, (tables[:2], tables[2:])):
        rows = [c for table in pair for c, _ in table]
        stop = start + len(rows)
        assert cls.rows.dtype == np.int16
        assert cls.rows.tolist() == [list(c) for c in rows]
        assert cls.mix.tolist() == [0.5 * prob
                                    for table in pair for _, prob in table]
        assert (cls.flip == flip[start:stop]).all()
        start = stop
    attack = (adversary.alice_intercept_resend if resend
              else adversary.alice_intercept)
    for m, n, n0 in [(1, 4, 0), (2, 4, 4), (3, 40, 10), (1, 10_000, 2000)]:
        report = attack(n0, params(m=m, n=n, bs=bs), substream(65, n))
        mean, std = _reference_totals(tables, n, n0, m)
        assert report.expected == dict(zip(adversary.DETECTORS, mean))
        assert report.std == dict(zip(adversary.DETECTORS, std))


def _per_slot_rows(trials, n, n0, tables, rng):
    """The per-slot reference: each trial is a fresh commitment of Alice's,
    Bob's uniform bits and a uniform n0-subset of attacked slots, and each
    slot draws a row of table 2 * attacked + mismatched. Returns the rows
    (indices into the four tables' rows, in order) and the attacked mask,
    both (trials, n)."""
    committed = rng.integers(0, 2, size=trials, dtype=np.uint8)
    a = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
    a[:, -1] = np.bitwise_xor.reduce(a[:, :-1], axis=1) ^ committed
    b = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
    attacked = np.zeros((trials, n), dtype=bool)
    for mask in attacked:
        mask[rng.choice(n, n0, replace=False, shuffle=False)] = True
    key = 2 * attacked + (a != b)
    sizes = [len(table) for table in tables]
    thresholds = np.ones((max(sizes) - 1, len(tables)))
    for k, table in enumerate(tables):
        cum = np.cumsum([prob for _, prob in table])[:-1]
        thresholds[:len(cum), k] = cum
    u = rng.random(key.shape)
    row = np.cumsum([0] + sizes[:-1])[key]
    for threshold in thresholds:
        row += u >= threshold[key]
    return row, attacked


def _per_slot_alter(row, attacked, tables, resend, rng):
    """(graded, successful) trials of the reference alter: the flipped slot
    is the k-th candidate, k uniform below their count."""
    rows = np.array([c for table in tables for c, _ in table])
    candidates = rows[row, 2] == 0
    if resend:
        candidates |= attacked
    count = candidates.sum(axis=1)
    k = rng.integers(0, np.maximum(count, 1))
    pick = np.argmax(np.cumsum(candidates, axis=1) > k[:, None], axis=1)
    flipped = rows[row[np.arange(len(row)), pick]]
    unflagged = (flipped[:, 0] > 0) & (flipped[:, 1] == 0)
    return (int(np.count_nonzero(count)),
            int(np.count_nonzero(unflagged & (count > 0))))


@pytest.mark.parametrize("resend", [False, True])
@pytest.mark.parametrize("n, n0", [(4, 2), (40, 10)])
def test_row_counts_match_per_slot_sampler(n, n0, resend):
    trials = 20_000
    tables = _attack_tables(BALANCED, resend)
    classes = adversary._slot_classes(BALANCED, resend)
    n_rows = sum(len(cls.rows) for cls in classes)

    row, attacked = _per_slot_rows(trials, n, n0, tables, substream(57, n))
    reference = np.bincount(
        (row + n_rows * np.arange(trials)[:, None]).ravel(),
        minlength=trials * n_rows).reshape(trials, n_rows)
    rng = substream(58, n)
    counts = np.concatenate([rng.multinomial(k, cls.mix, trials)
                             for cls, k in zip(classes, (n - n0, n0))],
                            axis=1)
    # A row's count in one trial is a sum of independent Bernoulli slots.
    unattacked = len(classes[0].rows)
    p = np.zeros((2, n_rows))
    p[0, :unattacked] = classes[0].mix
    p[1, unattacked:] = classes[1].mix
    var = (n - n0) * p[0] * (1 - p[0]) + n0 * p[1] * (1 - p[1])
    diff = np.abs(counts.mean(axis=0) - reference.mean(axis=0))
    assert (diff <= 4.0 * np.sqrt(2 * var / trials)).all()

    graded, successes = _per_slot_alter(row, attacked, tables, resend,
                                        substream(59, n))
    attack = (adversary.alice_intercept_resend if resend
              else adversary.alice_intercept)
    report = attack(n0, params(n=n), substream(60, n), alter_trials=trials)
    model = report.extras["p_alter_model"]
    sigma = math.sqrt(model * (1 - model) / graded)
    p_reference = successes / graded
    assert (abs(report.p_alter_empirical - p_reference)
            <= 4.0 * math.sqrt(2) * sigma)
    assert abs(report.p_alter_empirical - model) <= 4.0 * sigma
    assert abs(p_reference - model) <= 4.0 * sigma


def _enumerated_alter_probability(n, n0, bs, resend):
    """Exact alter success of the tables by enumeration in Fractions: every
    mismatch pattern, the first n0 slots attacked, every row per slot."""
    tables = [[(c, Fraction(prob)) for c, prob in table]
              for table in _attack_tables(bs, resend)]
    success = Fraction(0)
    flippable = Fraction(0)
    for mismatched in itertools.product((0, 1), repeat=n):
        keys = [2 * (i < n0) + mismatched[i] for i in range(n)]
        for slot_rows in itertools.product(*(tables[k] for k in keys)):
            prob = Fraction(1, 2 ** n)
            for _, p in slot_rows:
                prob *= p
            candidates = [c for (c, _), k in zip(slot_rows, keys)
                          if c[2] == 0 or (resend and k >= 2)]
            if not candidates:
                continue
            flippable += prob
            unflagged = sum(c[0] > 0 and c[1] == 0 for c in candidates)
            success += prob * Fraction(unflagged, len(candidates))
    return success / flippable


@pytest.mark.parametrize("resend", [False, True])
# At r = 0.2 the resend attacked class's masses sum to 1 + 2^-52 in floats.
@pytest.mark.parametrize("r", [0.5, 0.3, 0.2])
def test_alter_model_probability_matches_enumeration(r, resend):
    bs = optics.BeamSplitter(r, 1.0 - r)
    attack = (adversary.alice_intercept_resend if resend
              else adversary.alice_intercept)
    for n in (2, 3, 4):
        for n0 in range(n + 1):
            report = attack(n0, params(n=n, bs=bs), substream(61, n, n0))
            exact = _enumerated_alter_probability(n, n0, bs, resend)
            assert report.extras["p_alter_model"] == pytest.approx(
                float(exact), rel=0.0, abs=1e-12)


def test_alter_model_probability_at_paper_scale():
    n, n0 = 10_000, 2000
    p = params(n=n)
    intercept = adversary.alice_intercept(n0, p, substream(62, 0))
    resend = adversary.alice_intercept_resend(n0, p, substream(62, 1))
    # 40-digit quadrature of the same integrals gives 0.807694128 and
    # 0.734372680; the paper's formulas give 0.8077 and 0.7353.
    assert intercept.extras["p_alter_model"] == pytest.approx(0.80769413,
                                                              abs=5e-9)
    assert resend.extras["p_alter_model"] == pytest.approx(0.73437268,
                                                           abs=5e-9)


@pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 32, 130, 10_000])
def test_alter_model_at_no_intercept_is_the_exact_binding_ratio(r, n):
    # With no slot intercepted the classes are the honest commit, whose
    # alter success is (1 - p)/(1 - q) of the exact layer at any n.
    bs = optics.BeamSplitter(r, 1.0 - r)
    report = adversary.alice_intercept(0, params(n=n, bs=bs),
                                       substream(72, n))
    probs = security.comparison_probs(bs)
    assert report.extras["p_alter_model"] == pytest.approx(
        float((1 - probs.p) / (1 - probs.q)), rel=0.0, abs=1e-15)


def test_intercept_model_is_none_without_flippable_slot():
    # At r = 0 every attacked slot clicks D2, so with n0 = n nothing can be
    # flipped; the report still carries its totals.
    p = params(n=4, bs=optics.BeamSplitter(0.0, 1.0))
    report = adversary.alice_intercept(4, p, substream(63, 0))
    assert report.extras["p_alter_model"] is None
    assert report.empirical["D2"] == 4


@pytest.mark.parametrize("resend", [False, True])
def test_intercept_tables_are_read_only(resend):
    classes, mean, var, _ = adversary._intercept_tables(
        optics.BeamSplitter(0.3, 0.7), resend, 40, 10)
    arrays = [mean, var, *(a for cls in classes
                           for a in (cls.rows, cls.mix, cls.flip))]
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("resend", [False, True])
@pytest.mark.parametrize("r", [0.5, 0.3])
def test_intercept_report_after_cache_clear_is_byte_identical(r, resend):
    attack = (adversary.alice_intercept_resend if resend
              else adversary.alice_intercept)
    p = params(m=3, n=400, bs=optics.BeamSplitter(r, 1.0 - r))

    def report():
        return json.dumps(attack(100, p, substream(67, 0),
                                 alter_trials=500).to_dict(), sort_keys=True)

    adversary._intercept_tables.cache_clear()
    fresh = report()
    cached = report()
    assert adversary._intercept_tables.cache_info().hits >= 1
    adversary._intercept_tables.cache_clear()
    assert report() == cached == fresh


EXACT = optics.BeamSplitter(Fraction(1, 2), Fraction(1, 2))


def _sampled_reports(bs):
    """Every sampled report on the mirror bs, as the JSON a report prints."""
    p = params(m=3, n=40, bs=bs)
    attacks = [
        adversary.alice_intercept(10, p, substream(68, 0), alter_trials=200),
        adversary.alice_intercept_resend(10, p, substream(68, 1),
                                         alter_trials=200),
        adversary.bob_illegal_bs(0.75, p, substream(68, 2), runs=100),
        adversary.bob_multiphoton(2, p, substream(68, 3), runs=100),
        adversary.bob_illegal_polarization(optics.PLUS, p, substream(68, 4),
                                           runs=10),
    ]
    reports = [*(attack.to_dict() for attack in attacks),
               protocol.run_commit_phase(p, b=1).summary(),
               security.security_report(70, 130, bs),
               security.concealing_tv_monte_carlo(3, bs, 2000,
                                                  substream(68, 5))]
    return [json.dumps(report, sort_keys=True) for report in reports]


@pytest.mark.parametrize("order", [(EXACT, BALANCED), (BALANCED, EXACT)],
                         ids=["exact-first", "float-first"])
def test_exact_mirror_reports_equal_the_float_ones(order):
    # The attacks and the reports read a mirror's float values, so a
    # Fraction mirror runs every attack and reports what the equal float
    # mirror reports.
    assert EXACT == BALANCED and hash(EXACT) == hash(BALANCED)
    adversary._intercept_tables.cache_clear()
    first, second = (_sampled_reports(bs) for bs in order)
    assert first == second
    # Equal mirrors share one float64 entry per attack, in either order.
    adversary._intercept_tables.cache_clear()
    for bs in order:
        adversary.alice_intercept(10, params(n=40, bs=bs), substream(69, 0))
    assert adversary._intercept_tables.cache_info().currsize == 1
    classes = adversary._intercept_tables(EXACT, False, 40, 10)[0]
    assert [cls.mix.dtype for cls in classes] == [np.dtype(np.float64)] * 2


def test_intercept_tables_cache_is_bounded():
    maxsize = adversary._intercept_tables.cache_info().maxsize
    assert maxsize is not None
    for n0 in range(maxsize + 10):
        adversary.alice_intercept(n0, params(n=200), substream(69, n0))
    assert adversary._intercept_tables.cache_info().currsize <= maxsize


# ---------------------------------------------------------------------------
# Alice: one-bit alter against a live transcript
# ---------------------------------------------------------------------------

def test_optimal_alter_parity_and_single_flip():
    p = protocol.CommitmentParams(m=5, n=32, master_seed=40)
    t = protocol.run_commit_phase(p, b=0)
    opening = adversary.alice_optimal_alter(t, 1, substream(41, 0))
    assert opening.claimed_bit == 1
    diffs = opening.claimed_bits ^ t.alice_bits
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
    assert protocol.d2_detection_probability(0.25, p) < 1e-3


def test_d2_detection_probability_follows_the_mirror():
    # An honest r = 0.3 mirror clicks D2 at t/2 = 0.35 per slot.
    p = protocol.CommitmentParams(m=1, n=130, bs=optics.BeamSplitter(0.3, 0.7))
    assert protocol.d2_detection_probability(0.35, p) < 1e-4


def test_d2_detection_probability_monotone_in_m():
    p1 = protocol.CommitmentParams(m=1, n=130)
    p70 = protocol.CommitmentParams(m=70, n=130)
    d1 = protocol.d2_detection_probability(0.4, p1)
    d70 = protocol.d2_detection_probability(0.4, p70)
    assert d70 > d1
    assert d70 == pytest.approx(1.0 - (1.0 - d1) ** 70, rel=1e-9)


def _exact_d2_detection(p_slot, params):
    """1 - (1 - F)^m with F the binomial mass outside the D2 window, in
    exact integers (all mass minus the window's); F is rounded to a float
    once before the power."""
    n = params.n
    num, den = Fraction(p_slot).as_integer_ratio()
    inside = sum(math.comb(n, k) * num**k * (den - num)**(n - k)
                 for k in protocol.d2_window(params))
    fail = Fraction((den**n - inside) / den**n)
    return float(1 - (1 - fail) ** params.m)


@pytest.mark.parametrize("n", [2, 16, 32, 130, 1000])
@pytest.mark.parametrize("p_slot", [0.0, 0.01, 0.05, 0.25, 0.3, 0.375, 0.4,
                                    0.49, 0.9, 1.0])
def test_d2_detection_probability_matches_exact_sum(n, p_slot):
    for m in (1, 70):
        p = protocol.CommitmentParams(m=m, n=n)
        assert protocol.d2_detection_probability(p_slot, p) == pytest.approx(
            _exact_d2_detection(p_slot, p), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p_slot", [0.25, 0.249, 0.4])
def test_d2_detection_probability_sums_only_near_the_window(monkeypatch,
                                                            p_slot):
    # The mean inside the window (0.25), just below it and far above it:
    # the window is 8 sigma wide, and each tail stops within a few sigma.
    n = rng_module.MAX_ITEM_SLOTS
    calls = []
    pmf = protocol._binomial_pmf

    def counted(*args):
        calls.append(args)
        return pmf(*args)

    monkeypatch.setattr(protocol, "_binomial_pmf", counted)
    protocol._sequence_fail.cache_clear()   # sum afresh, not from the cache
    detect = protocol.d2_detection_probability(
        p_slot, protocol.CommitmentParams(m=1, n=n))
    assert 0.0 < detect <= 1.0
    assert len(calls) < 10 * math.sqrt(n)


def _d2_detection_uncached(p_slot, params):
    """d2_detection_probability with the per-sequence mass summed afresh,
    past its cache."""
    fail = protocol._sequence_fail.__wrapped__(p_slot, params.n,
                                               protocol.d2_window(params))
    if fail >= 1.0:
        return 1.0
    return -math.expm1(params.m * math.log1p(-fail))


@settings(max_examples=200, deadline=None)
@given(p_slot=st.floats(0.0, 1.0), m=st.integers(1, 200),
       n=st.integers(2, 3000), sigma=st.floats(0.01, 10.0),
       r=st.floats(0.0, 1.0))
def test_d2_detection_probability_cache_is_bit_identical(p_slot, m, n, sigma,
                                                         r):
    p = protocol.CommitmentParams(m=m, n=n,
                                  bs=optics.BeamSplitter(r, 1.0 - r),
                                  d2_check_sigma=sigma)
    expected = _d2_detection_uncached(p_slot, p)
    # Once filling the cache, once reading it.
    assert protocol.d2_detection_probability(p_slot, p) == expected
    assert protocol.d2_detection_probability(p_slot, p) == expected


def test_d2_detection_probability_cache_is_bounded():
    maxsize = protocol._sequence_fail.cache_info().maxsize
    assert maxsize is not None
    p = params(m=70, n=130)
    for i in range(maxsize + 50):
        protocol.d2_detection_probability(i / (maxsize + 50), p)
    assert protocol._sequence_fail.cache_info().currsize <= maxsize


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


def test_d2_trip_rate_at_integer_window_edges():
    # At the agreed r = 0, n = 16 and sigma = 1 give the window [6, 10]
    # exactly. Counts on its edges pass, so a sequence of fair D2 slots
    # trips with 1 - sum_{k=6..10} C(16, k) / 2^16; open edges would give
    # 0.4545.
    p = protocol.CommitmentParams(m=1, n=16, bs=optics.BeamSplitter(0.0, 1.0),
                                  d2_check_sigma=1.0)
    exact = 1 - sum(math.comb(16, k) for k in range(6, 11)) / 2**16
    assert round(exact, 5) == 0.21011
    assert protocol.d2_detection_probability(0.5, p) == pytest.approx(
        exact, rel=0.0, abs=1e-12)
    runs = 20_000
    report = adversary.bob_illegal_bs(0.999999, p, substream(48, 0), runs=runs)
    analytic = report.detection_probability_analytic
    sigma = math.sqrt(analytic * (1 - analytic) / runs)
    assert abs(report.extras["per_sequence_failure_rate"] - analytic) < (
        4 * sigma)


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


def test_two_photons_report_what_a_three_quarter_mirror_does():
    # At r = 1/2 two photons are captured with 1 - (1/2)^2 = 3/4, what a
    # mirror of t' = 3/4 captures one with, so both slots click D2 at 3/8.
    p = protocol.CommitmentParams(m=70, n=130)
    swapped = adversary.bob_illegal_bs(0.75, p, substream(48, 2), runs=10)
    loaded = adversary.bob_multiphoton(2, p, substream(48, 3), runs=10)
    assert swapped.expected["d2_slot_rate"] == 0.375
    assert loaded.expected["d2_slot_rate"] == 0.375
    assert (swapped.detection_probability_analytic
            == loaded.detection_probability_analytic)


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


def test_bob_polarization_draws_its_totals_once():
    # The report reads only the click totals over all runs, so the runs
    # are one multinomial draw, and time does not grow with them.
    p = protocol.CommitmentParams(m=70, n=130)
    runs = 1 << 22
    rng, expected = substream(73, 0), substream(73, 0)
    report = adversary.bob_illegal_polarization(optics.PLUS, p, rng, runs)
    slots = runs * p.m * p.n
    law = [float(prob) for prob in optics.slot_law(p.bs)]
    _, d1, d2 = expected.multinomial(slots, law).tolist()
    assert report.empirical == {"confirmation_rate": (d1 + d2) / slots,
                                "d2_slot_rate": d2 / slots}
    assert rng.bit_generator.state == expected.bit_generator.state


# ---------------------------------------------------------------------------
# Bob: count draws against the per-slot sampler they replace
# ---------------------------------------------------------------------------

def _per_slot_detection_runs(sample_d2_flags, p, rng, runs):
    """The per-slot reference: every slot of every run is drawn and its D2
    flags summed. Returns (detection, mean D2 rate, per-sequence failure)
    frequencies."""
    window = protocol.d2_window(p)
    counts = sample_d2_flags(rng, (runs, p.m, p.n)).sum(axis=2)
    bad = (counts < window.start) | (counts >= window.stop)
    return (np.count_nonzero(bad.any(axis=1)) / runs,
            counts.sum() / (runs * p.m * p.n),
            np.count_nonzero(bad) / (runs * p.m))


def _uniform_matches(rng, shape):
    return (rng.integers(0, 2, size=shape, dtype=np.uint8)
            == rng.integers(0, 2, size=shape, dtype=np.uint8))


def _assert_three_agree(sampled, reference, exact, trials):
    """The count sampler and the per-slot reference each lie within 4 sigma
    of the exact frequency, and within 4 sigma of each other."""
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    assert abs(sampled - exact) <= 4.0 * sigma
    assert abs(reference - exact) <= 4.0 * sigma
    assert abs(sampled - reference) <= 4.0 * math.sqrt(2.0) * sigma


@pytest.mark.parametrize("attack, arg", [("bs", 0.5), ("bs", 0.8),
                                         ("multiphoton", 2),
                                         ("multiphoton", 3)])
def test_bob_d2_counts_match_per_slot_sampler(attack, arg):
    p = protocol.CommitmentParams(m=4, n=16)
    runs = 20_000
    if attack == "bs":
        report = adversary.bob_illegal_bs(arg, p, substream(65, 0), runs)
        bs = optics.BeamSplitter.from_transmissivity(arg)

        def sample(rng, shape):
            return optics.sample_detectors(_uniform_matches(rng, shape), bs,
                                           rng) == 2
    else:
        report = adversary.bob_multiphoton(arg, p, substream(65, 1), runs)
        p_capture = optics.outcome_distribution(0, 0, p.bs)[
            optics.Detector.D2]
        p_any_capture = 1.0 - (1.0 - p_capture) ** arg

        def sample(rng, shape):
            return _uniform_matches(rng, shape) & (rng.random(shape)
                                                   < p_any_capture)
    rate = report.expected["d2_slot_rate"]
    reference = _per_slot_detection_runs(sample, p,
                                         substream(66, int(10 * arg)), runs)
    sampled = (report.detection_probability, report.empirical["d2_slot_rate"],
               report.extras["per_sequence_failure_rate"])
    exact = (report.detection_probability_analytic, rate,
             protocol.d2_detection_probability(
                 rate, protocol.CommitmentParams(m=1, n=p.n)))
    trials = (runs, runs * p.m * p.n, runs * p.m)
    for args in zip(sampled, reference, exact, trials):
        _assert_three_agree(*args)


@pytest.mark.parametrize("prob_v", [0.0, 0.2, 0.5, 1.0])
def test_bob_polarization_totals_match_per_slot_sampler(prob_v):
    p = protocol.CommitmentParams(m=4, n=16)
    runs = 5000
    pol = optics.Polarization(math.sqrt(1.0 - prob_v), math.sqrt(prob_v))
    report = adversary.bob_illegal_polarization(pol, p, substream(67, 0),
                                                runs)
    # The per-slot reference: uniform bits for Alice, Bob's comparison bit
    # re-randomized by the PBS.
    rng = substream(68, int(10 * prob_v))
    shape = (runs, p.m, p.n)
    a = rng.integers(0, 2, size=shape, dtype=np.uint8)
    b_eff = rng.random(shape) < pol.prob_v
    det = optics.sample_detectors(a == b_eff, p.bs, rng)
    slots = runs * p.m * p.n
    reference = {"confirmation_rate": np.count_nonzero(det) / slots,
                 "d2_slot_rate": np.count_nonzero(det == 2) / slots}
    for key, exact in report.expected.items():
        _assert_three_agree(report.empirical[key], reference[key], exact,
                            slots)


@pytest.mark.parametrize("attack", [
    lambda p, rng: adversary.bob_illegal_bs(0.8, p, rng, runs=3),
    lambda p, rng: adversary.bob_illegal_polarization(optics.PLUS, p, rng,
                                                      runs=3),
])
def test_bob_attack_memory_holds_counts_not_slots(attack):
    side = 1 << 11
    p = protocol.CommitmentParams(m=side, n=side)
    assert p.m * p.n == rng_module.MAX_ITEM_SLOTS
    tracemalloc.start()
    try:
        attack(p, substream(69, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# Each Monte Carlo call with its draws per count: runs * m D2 counts for
# bob-bs and bob-multiphoton, one draw an alter trial for the intercept
# attacks, the honest commit's (no slot intercepted) among them.
# bob-polarization is not limited: its runs share one multinomial.
@pytest.mark.parametrize("attack, per_count", [
    (lambda p, rng, k: adversary.bob_illegal_bs(0.8, p, rng, runs=k), 7),
    (lambda p, rng, k: adversary.bob_multiphoton(2, p, rng, runs=k), 7),
    (lambda p, rng, k: adversary.alice_intercept(0, p, rng,
                                                 alter_trials=k), 1),
    (lambda p, rng, k: adversary.alice_intercept(10, p, rng,
                                                 alter_trials=k), 1),
    (lambda p, rng, k: adversary.alice_intercept_resend(10, p, rng,
                                                        alter_trials=k), 1),
])
def test_draws_past_the_call_limit_are_refused_before_any_draw(
        monkeypatch, attack, per_count):
    monkeypatch.setattr(rng_module, "MAX_CALL_DRAWS", 70)
    p = params(m=7, n=130)
    largest = 70 // per_count
    attack(p, substream(55, 0), largest)
    rng = substream(55, 1)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError, match="limit of 70"):
        attack(p, rng, largest + 1)
    assert rng.bit_generator.state == state


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

    # The alter loop draws one row of counts per trial.
    rows = sum(len(cls.rows)
               for cls in adversary._slot_classes(BALANCED, False))
    full_chunk = max(1, rng_module._CHUNK_SLOTS // rows)
    peak(1, 1)   # one-time allocations stay out of both measurements
    assert peak(10 * full_chunk, 10 * full_chunk) <= 1.5 * peak(full_chunk,
                                                                full_chunk)


def test_intercept_memory_does_not_grow_with_n():
    n, n0 = rng_module.MAX_ITEM_SLOTS, 2000
    p = protocol.CommitmentParams(m=3, n=n)
    tracemalloc.start()
    try:
        report = adversary.alice_intercept_resend(n0, p, substream(64, 0),
                                                  alter_trials=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.extras["total_clicks"] == p.m * (n + n0)
    assert 0.0 <= report.p_alter_empirical <= 1.0
    assert peak < 4 * 2**20


def test_alter_impossible_when_every_slot_confirmed():
    p = protocol.CommitmentParams(m=1, n=4, master_seed=50)
    t = protocol.run_commit_phase(p, b=0)
    t.detectors[:, :] = 2
    with pytest.raises(AttackImpossibleError):
        adversary.alice_optimal_alter(t, 1, substream(51, 0))
