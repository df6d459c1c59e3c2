"""Dishonest behaviors for both parties, paired with analytic predictions.

Each attack returns an AttackReport holding the closed-form expectation
next to the simulated totals so the two routes can be cross-checked.

Alice's intercept and intercept/resend attacks are each one set of per-slot
click-count tables: the honest channel of `optics.outcome_distribution` on
unattacked slots and an attack table on attacked ones. The expectations and
the simulated totals both read that one set. The tables follow the
published accounting of the attack totals: an intercepted slot whose bits
mismatch hands the photon to Alice deterministically, and a resending
Alice always re-emits one photon per attacked slot (so total clicks are
exactly n + n0_resend).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import optics, protocol
from .errors import AttackImpossibleError, ParameterError
from .rng import _chunks

DETECTORS = ("D0", "D1", "D2")


@dataclass
class AttackReport:
    """Expected vs. empirical detector totals plus attack success rates."""

    strategy: str
    params: dict
    expected: dict
    empirical: dict
    std: dict = field(default_factory=dict)
    p_alter_analytic: Optional[float] = None
    p_alter_empirical: Optional[float] = None
    detection_probability: Optional[float] = None
    detection_probability_analytic: Optional[float] = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "params": self.params,
            "expected": self.expected,
            "empirical": self.empirical,
            "std": self.std,
            "p_alter": {
                "analytic": self.p_alter_analytic,
                "empirical": self.p_alter_empirical,
            },
            "p_detect": {
                "empirical": self.detection_probability,
                "analytic": self.detection_probability_analytic,
            },
            "extras": self.extras,
        }


# ---------------------------------------------------------------------------
# Per-slot click tables. A table lists ((beta0, beta1, alpha), probability)
# rows; an attack is four tables indexed by 2 * attacked + mismatched. The
# closed-form expectations and the sampler read the same tables.
# ---------------------------------------------------------------------------

def _channel_table(a_bit: int, b_bit: int, bs: optics.BeamSplitter) -> list:
    """The honest comparison channel: one click per slot."""
    dist = optics.outcome_distribution(a_bit, b_bit, bs)
    return [((1, 0, 0), dist[optics.Detector.D0]),
            ((0, 1, 0), dist[optics.Detector.D1]),
            ((0, 0, 1), dist[optics.Detector.D2])]


class _SlotTables:
    """The four slot tables of one attack, laid out for sampling.

    Tables are padded to one width: thresholds[j, k] is the cumulative
    probability of the first j + 1 rows of table k, and 1.0 past its last
    row, which no uniform on [0, 1) reaches. A slot of table k with uniform
    u draws row offset[k] + #{j : u >= thresholds[j, k]}.
    """

    def __init__(self, tables: list):
        self.tables = tables
        self.rows = np.array([c for table in tables for c, _ in table],
                             dtype=np.int16)
        sizes = [len(table) for table in tables]
        self.offset = np.cumsum([0] + sizes[:-1])
        self.thresholds = np.ones((max(sizes) - 1, len(tables)))
        for key, table in enumerate(tables):
            cum = np.cumsum([prob for _, prob in table])[:-1]
            self.thresholds[:len(cum), key] = cum

    def sample(self, key: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Indices into rows, one drawn per slot from table key[i]."""
        u = rng.random(key.shape)
        row = self.offset[key]
        for threshold in self.thresholds:
            row += u >= threshold[key]
        return row

    def totals(self, row: np.ndarray) -> np.ndarray:
        """Summed (beta0, beta1, alpha) clicks of the sampled rows."""
        return np.bincount(row.ravel(), minlength=len(self.rows)) @ self.rows

    def expected_totals(self, n: int, n_attacked: int) -> tuple[dict, dict]:
        """Mean and standard deviation of the (D0, D1, D2) click totals of
        n slots, n_attacked of them attacked, each slot's bits matching
        with probability 1/2."""
        mean = np.zeros(3)
        var = np.zeros(3)
        for attacked, slots in ((0, n - n_attacked), (1, n_attacked)):
            first = np.zeros(3)
            second = np.zeros(3)
            for table in self.tables[2 * attacked:2 * attacked + 2]:
                for counts, prob in table:
                    c = np.asarray(counts, dtype=float)
                    first += 0.5 * prob * c
                    second += 0.5 * prob * c * c
            mean += slots * first
            var += slots * (second - first * first)
        return (dict(zip(DETECTORS, mean.tolist())),
                dict(zip(DETECTORS, np.sqrt(var).tolist())))


def _attack_tables(bs: optics.BeamSplitter, resend: bool) -> _SlotTables:
    """Slot tables of the intercept or the intercept/resend attack."""
    honest = [_channel_table(0, 0, bs), _channel_table(0, 1, bs)]
    # Opening both bins adds nothing on matched slots (the honest bin is
    # already covered); on mismatched slots Alice captures the photon.
    attacked = [honest[0], [((0, 0, 1), 1.0)]]
    if resend:
        # Alice re-emits one photon per attacked slot, captured or not; it
        # re-enters the receiver arm alone: D0 with t, D1 with r.
        resent = [((1, 0, 0), bs.t), ((0, 1, 0), bs.r)]
        attacked = [
            [(tuple(x + y for x, y in zip(counts, extra)), prob * p_extra)
             for counts, prob in table for extra, p_extra in resent]
            for table in attacked
        ]
    return _SlotTables(honest + attacked)


# ---------------------------------------------------------------------------
# Alice's intercept attacks
# ---------------------------------------------------------------------------

def _sample_intercept_sequences(committed, trials, n, n0, tables, rng):
    """`trials` n-slot sequences of Alice's, committing to `committed` (one
    bit, or one per sequence), each with its own uniform n0-subset of
    attacked slots.

    Returns each slot's row of the attack tables and the attacked mask,
    both (trials, n).
    """
    a = protocol.alice_generate(committed, trials, n, rng).bits
    b = rng.integers(0, 2, size=(trials, n), dtype=np.uint8)
    attacked = np.zeros((trials, n), dtype=bool)
    for mask in attacked:
        mask[rng.choice(n, n0, replace=False, shuffle=False)] = True
    return tables.sample(2 * attacked + (a != b), rng), attacked


def _alter_success_loop(n, n0, tables, rng, resend, trials):
    """Empirical one-bit alter success over fresh attacked sequences.

    Per the attack analysis, success is graded on the flipped slot alone:
    Alice flips one bit she cannot tell Bob confirmed, and succeeds iff
    Bob's record of that slot does not contradict the flip.
    """
    silent = tables.rows[:, 2] == 0
    unflagged = (tables.rows[:, 0] > 0) & (tables.rows[:, 1] == 0)
    successes = 0
    graded = 0
    for chunk in _chunks(trials, n):
        # Every trial is a fresh one-sequence commitment.
        committed = rng.integers(0, 2, size=chunk, dtype=np.uint8)
        row, attacked = _sample_intercept_sequences(committed, chunk, n, n0,
                                                    tables, rng)
        candidates = silent[row]
        if resend:
            candidates |= attacked
        # The k-th candidate of each trial, k uniform below its count.
        count = candidates.sum(axis=1)
        k = rng.integers(0, np.maximum(count, 1))
        pick = np.argmax(np.cumsum(candidates, axis=1) > k[:, None], axis=1)
        flipped = row[np.arange(chunk), pick]
        graded += int(np.count_nonzero(count))
        successes += int(np.count_nonzero(unflagged[flipped] & (count > 0)))
    if graded == 0:
        raise AttackImpossibleError("no flippable slot in any trial")
    return successes / graded


def intercept_alter_probability(n: int, n0: int) -> float:
    """Closed-form one-bit alter success under pure interception."""
    return (5 * n - 4 * n0) / (6 * n - 4 * n0)


def resend_alter_probability(n: int, n0_resend: int) -> float:
    """Closed-form one-bit alter success under intercept/resend."""
    return 5 * n / (6 * n + 4 * n0_resend)


def _intercept_attack(n0, params, rng, alter_trials, resend) -> AttackReport:
    n = params.n
    n0_key = "n0_resend" if resend else "n0"
    if not 0 <= n0 <= n:
        raise ParameterError(f"{n0_key} must lie in [0, n]")
    if alter_trials < 0:
        raise ParameterError("alter_trials must be >= 0")
    tables = _attack_tables(params.bs, resend)
    totals = np.zeros(3)
    committed = int(rng.integers(0, 2))   # the m sequences of one commitment
    for chunk in _chunks(params.m, n):
        row, _ = _sample_intercept_sequences(committed, chunk, n, n0, tables,
                                             rng)
        totals += tables.totals(row)
    expected, std = tables.expected_totals(n, n0)
    p_emp = None
    if alter_trials:
        p_emp = _alter_success_loop(n, n0, tables, rng, resend, alter_trials)
    extras = {"total_clicks": int(totals.sum())}
    if resend:
        strategy = "alice-intercept-resend"
        p_alter = resend_alter_probability(n, n0)
        extras["expected_total_clicks"] = params.m * (n + n0)
    else:
        strategy = "alice-intercept"
        p_alter = intercept_alter_probability(n, n0)
    return AttackReport(
        strategy=strategy,
        params={"n": n, "m": params.m, n0_key: n0},
        expected={k: params.m * v for k, v in expected.items()},
        std={k: np.sqrt(params.m) * v for k, v in std.items()},
        empirical=dict(zip(DETECTORS, [int(v) for v in totals])),
        p_alter_analytic=p_alter,
        p_alter_empirical=p_emp,
        extras=extras,
    )


def alice_intercept(
    n0: int,
    params: protocol.CommitmentParams,
    rng: np.random.Generator,
    alter_trials: int = 0,
) -> AttackReport:
    """Pure interception on n0 slots per sequence (absorb, never resend)."""
    return _intercept_attack(n0, params, rng, alter_trials, resend=False)


def alice_intercept_resend(
    n0_resend: int,
    params: protocol.CommitmentParams,
    rng: np.random.Generator,
    alter_trials: int = 0,
) -> AttackReport:
    """Intercept on n0_resend slots, immediately re-emitting a photon."""
    return _intercept_attack(n0_resend, params, rng, alter_trials, resend=True)


def alice_optimal_alter(
    transcript: protocol.CommitmentTranscript,
    target_bit: int,
    rng: np.random.Generator,
) -> protocol.OpeningMessage:
    """Forge an opening for the opposite bit.

    Per sequence, flips exactly one claimed bit chosen uniformly among the
    slots where Alice's D2 stayed silent (the slots she cannot tell Bob
    confirmed). The claimed D2 record is reported truthfully.
    """
    if transcript.alice.committed_bit is None:
        raise ParameterError("transcript has no committed bit")
    if target_bit == transcript.alice.committed_bit:
        raise ParameterError("target bit equals the committed bit")
    claimed = transcript.alice.bits.copy()
    for i in range(transcript.params.m):
        unknown = np.flatnonzero(transcript.detectors[i] != 2)
        if unknown.size == 0:
            raise AttackImpossibleError(f"sequence {i} has no unknown slot")
        j = unknown[rng.integers(0, unknown.size)]
        claimed[i, j] ^= 1
    return protocol.OpeningMessage(
        claimed_bit=target_bit,
        claimed_bits=claimed,
        claimed_d2=transcript.d2_inferred(),
    )


# ---------------------------------------------------------------------------
# Bob's attacks, each graded against Alice's D2-rate check
# ---------------------------------------------------------------------------

def d2_detection_probability(
    p_slot: float,
    params: protocol.CommitmentParams,
) -> float:
    """Probability that the D2-rate check trips when each slot clicks D2
    with probability p_slot (exact binomial, across all m sequences).

    A sequence fails with the binomial mass outside the window, summed term
    by term in log space, so a small tail keeps its relative precision.
    """
    if not 0.0 <= p_slot <= 1.0:
        raise ParameterError("p_slot must lie in [0, 1]")
    lo, hi = protocol.d2_window(params)
    n = params.n
    fail = math.fsum(_binomial_pmf(k, n, p_slot)
                     for k in range(n + 1) if k < lo or k > hi)
    if fail >= 1.0:
        return 1.0
    return -math.expm1(params.m * math.log1p(-fail))


def _binomial_pmf(k: int, n: int, p: float) -> float:
    if p in (0.0, 1.0):
        return float(k == n * p)
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def _honest_slot_rates(bs: optics.BeamSplitter) -> tuple[float, float]:
    """Per-slot (confirmation, D2) rates with uniform bits on both sides:
    Bob confirms on D1 or an inferred D2."""
    dists = [optics.outcome_distribution(0, b_bit, bs) for b_bit in (0, 1)]
    d1, d2 = optics.Detector.D1, optics.Detector.D2
    return (sum(d[d1] + d[d2] for d in dists) / 2.0,
            sum(d[d2] for d in dists) / 2.0)


def _detection_runs(sample_d2_flags, params, rng, runs):
    """Empirical trip rate of the D2 check over independent commit runs.

    sample_d2_flags(rng, shape) must return a boolean array of per-slot D2
    clicks of the given (runs, m, n) shape. Returns (detection frequency,
    mean per-slot D2 rate, per-sequence failure frequency).
    """
    if runs < 1:
        raise ParameterError("runs must be >= 1")
    lo, hi = protocol.d2_window(params)
    m, n = params.m, params.n
    detected = 0
    seq_failures = 0
    d2_clicks = 0
    for chunk in _chunks(runs, m * n):
        counts = sample_d2_flags(rng, (chunk, m, n)).sum(axis=2)
        bad = (counts < lo) | (counts > hi)
        seq_failures += int(np.count_nonzero(bad))
        detected += int(np.count_nonzero(bad.any(axis=1)))
        d2_clicks += int(counts.sum())
    return (detected / runs, d2_clicks / (runs * m * n),
            seq_failures / (runs * m))


def _uniform_matches(rng, shape):
    """Slots where two independent uniform bits agree."""
    return (rng.integers(0, 2, size=shape, dtype=np.uint8)
            == rng.integers(0, 2, size=shape, dtype=np.uint8))


def bob_illegal_bs(
    t_prime: float,
    params: protocol.CommitmentParams,
    rng: np.random.Generator,
    runs: int = 1000,
) -> AttackReport:
    """Bob swaps the mirror for one with transmissivity t_prime."""
    if not 0.0 < t_prime < 1.0:
        raise ParameterError("t_prime must lie in (0, 1)")
    bs = optics.BeamSplitter.from_transmissivity(t_prime)
    _, d2_rate = _honest_slot_rates(bs)

    def sample(rng, shape):
        return optics.sample_detectors(_uniform_matches(rng, shape), bs,
                                       rng) == 2

    detect, rate, seq_fail = _detection_runs(sample, params, rng, runs)
    return AttackReport(
        strategy="bob-illegal-bs",
        params={"n": params.n, "m": params.m, "t_prime": t_prime, "runs": runs},
        expected={"d2_slot_rate": d2_rate},
        empirical={"d2_slot_rate": rate},
        detection_probability=detect,
        detection_probability_analytic=d2_detection_probability(
            d2_rate, params
        ),
        extras={"per_sequence_failure_rate": seq_fail},
    )


def bob_multiphoton(
    k: int,
    params: protocol.CommitmentParams,
    rng: np.random.Generator,
    runs: int = 1000,
) -> AttackReport:
    """Bob loads every slot with k independent photons."""
    if k < 2:
        raise ParameterError("multi-photon attack needs k >= 2")
    p_capture = optics.outcome_distribution(0, 0, params.bs)[
        optics.Detector.D2]
    p_any_capture = 1.0 - (1.0 - p_capture) ** k

    def sample(rng, shape):
        return _uniform_matches(rng, shape) & (rng.random(shape)
                                               < p_any_capture)

    detect, rate, seq_fail = _detection_runs(sample, params, rng, runs)
    return AttackReport(
        strategy="bob-multiphoton",
        params={"n": params.n, "m": params.m, "k": k, "runs": runs},
        expected={"d2_slot_rate": 0.5 * p_any_capture},
        empirical={"d2_slot_rate": rate},
        detection_probability=detect,
        detection_probability_analytic=d2_detection_probability(
            0.5 * p_any_capture, params
        ),
        extras={"per_sequence_failure_rate": seq_fail},
    )


def bob_illegal_polarization(
    pol: optics.Polarization,
    params: protocol.CommitmentParams,
    rng: np.random.Generator,
    runs: int = 100,
) -> AttackReport:
    """Bob sends an arbitrary polarization every slot.

    The PBS collapses it into probabilistic H/V routing, so the slot
    statistics reduce to honest ones with a re-randomized comparison bit;
    Bob gains no confirmation advantage.
    """
    if runs < 1:
        raise ParameterError("runs must be >= 1")
    m, n = params.m, params.n
    confirmed = 0
    d2_clicks = 0
    for chunk in _chunks(runs, m * n):
        shape = (chunk, m, n)
        a = rng.integers(0, 2, size=shape, dtype=np.uint8)
        b_eff = rng.random(shape) < pol.prob_v
        det = optics.sample_detectors(a == b_eff, params.bs, rng)
        confirmed += int(np.count_nonzero(det))   # D1 click or D2-inferred
        d2_clicks += int(np.count_nonzero(det == 2))
    confirm_rate, d2_rate = _honest_slot_rates(params.bs)
    return AttackReport(
        strategy="bob-illegal-polarization",
        params={"n": params.n, "m": params.m, "prob_v": pol.prob_v,
                "runs": runs},
        expected={"confirmation_rate": confirm_rate, "d2_slot_rate": d2_rate},
        empirical={"confirmation_rate": confirmed / (runs * m * n),
                   "d2_slot_rate": d2_clicks / (runs * m * n)},
    )
