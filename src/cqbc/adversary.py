"""Dishonest behaviors for both parties, paired with analytic predictions.

Each attack but `alice_alter` (a plain dict) returns an AttackReport: the
closed-form expectation next to the simulated totals, to cross-check.

Alice's intercept and intercept/resend attacks are click laws, one per
source of clicks: an unattacked slot clicks by Bob's honest law
(`optics.slot_law`), an attacked slot by the capture law, and each photon
a resending Alice re-emits by (t, r, 0). The laws follow the published
accounting of the attack totals: an intercepted slot whose bits mismatch
hands the photon to Alice deterministically, and a resending Alice always
re-emits one photon per attacked slot (so total clicks are exactly
n + n0_resend). The expectations and the simulated totals both read them,
and a slot's click decides whether Alice may flip it, so her alter draws
three counts per slot class. Sequences are sampled as counts, not slot by
slot, so their time and memory do not grow with n; the reports carry the
exact alter success of the laws (`p_alter_model`) next to the paper's
formula, which holds at the balanced mirror. At no intercepted slot this
is the one-bit alter of an honest commit, which `alice_alter` samples for
one sequence and composes over m.

Bob's attacks are sampled as counts too. Alice's D2-rate check reads only
each sequence's D2 count, a binomial with the reported per-slot rate, and
a polarization attack only its click totals over all runs, one multinomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import optics, protocol
from .errors import AttackImpossibleError, ParameterError
from .rng import _chunks, check_draws, check_int64, check_item_slots

DETECTORS = tuple(det.value for det in optics.Detector)


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
        """The fields as they stand, each sampled probability nested with
        its analytic value under p_alter and p_detect."""
        fields = dict(vars(self))
        p_alter = {"analytic": fields.pop("p_alter_analytic"),
                   "empirical": fields.pop("p_alter_empirical")}
        p_detect = {"empirical": fields.pop("detection_probability"),
                    "analytic": fields.pop("detection_probability_analytic")}
        # A fresh dict: one that lost keys keeps its larger table, and a
        # caller may hold many reports.
        return {**fields, "p_alter": p_alter, "p_detect": p_detect}


# ---------------------------------------------------------------------------
# Alice's intercept attacks: one (D0, D1, D2) law per source of clicks. The
# closed-form expectations, the sampler and the alter all read them.
# ---------------------------------------------------------------------------

def _alter_success_loop(alter, slots, rng, trials):
    """Empirical one-bit alter success over fresh attacked sequences of
    `slots` (unattacked, attacked) slots.

    Per the attack analysis, success is graded on the flipped slot alone:
    Alice flips one bit she cannot tell Bob confirmed, and succeeds iff
    Bob's record of that slot does not contradict the flip. Each class's
    alter law splits its slots into unflagged candidates, flagged
    candidates and the rest. A uniform pick among the candidates is
    unflagged with probability unflagged candidates / candidates, so a
    trial needs only its counts and one uniform. Trials without a candidate
    are not graded; their number is returned too. With no attacked slot
    this is the alter of an honest commit, graded by the protocol's rule
    without its D2-rate window.
    """
    successes = graded = 0
    for chunk in _chunks(trials, alter.size):
        good, flagged, _ = sum(rng.multinomial(k, law, chunk)
                               for law, k in zip(alter, slots)).T
        candidates = good + flagged
        graded += int(np.count_nonzero(candidates))
        successes += int((rng.random(chunk) * candidates < good).sum())
    if graded == 0:
        raise AttackImpossibleError("no flippable slot in any trial")
    return successes / graded, trials - graded


def _alter_model_probability(alter, slots):
    """The alter success that _alter_success_loop samples, exactly.

    Let s_c be the probability that a slot of class c is a candidate and
    w_c that it is an unflagged one, n_c the slots of class c and o the
    other class. A slot is flipped and succeeds with probability
    w_c E[1 / (1 + K)], K the candidates among the other slots, and
    E[1 / (1 + K)] is the integral of E[x^K] over [0, 1]. So the success is
        sum_c n_c w_c int_0^1 (1 - s_c z)^(n_c - 1) (1 - s_o z)^n_o dz
    over the probability 1 - (1 - s_0)^n_0 (1 - s_1)^n_1 of a candidate.
    The integrand is at most exp(-lam z), lam = (n_c - 1) s_c + n_o s_o,
    so the integral stops at 40 / lam, dropping less than e^-40 / lam.
    129 Clenshaw-Curtis nodes integrate the rest exactly for n <= 130, and
    within 1e-15 of 40-digit quadrature up to n = MAX_ITEM_SLOTS.
    None when no trial can have a candidate.
    """
    s, w = [float(law[0] + law[1]) for law in alter], alter[:, 0].tolist()
    log_none = sum(k * math.log1p(-sc) if sc < 1.0 else -math.inf
                   for k, sc in zip(slots, s) if k)
    p_candidate = -math.expm1(log_none)
    if p_candidate == 0.0:
        return None
    nodes, weights = _clenshaw_curtis()
    success = 0.0
    for c in (0, 1):
        if not slots[c]:
            continue
        powers = (slots[c] - 1, slots[1 - c])
        lam = powers[0] * s[c] + powers[1] * s[1 - c]
        z_max = min(1.0, 40.0 / lam) if lam > 0 else 1.0
        z = z_max * nodes
        # A factor 1 - s z reaches 0 only at z = 1 with s = 1: log -inf. A
        # certain class's mass may round to just above 1; it is 1 there.
        with np.errstate(divide="ignore"):
            log_f = sum(power * np.log1p(-np.minimum(sc * z, 1.0))
                        for power, sc in zip(powers, (s[c], s[1 - c]))
                        if power)
        success += slots[c] * w[c] * z_max * float(np.sum(weights
                                                          * np.exp(log_f)))
    return min(1.0, success / p_candidate)   # no rounding past 1


def _clenshaw_curtis() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 129-point Clenshaw-Curtis rule on [0, 1],
    exact for polynomials of degree up to 129. Built per call: its one
    caller path runs under _intercept_tables' cache.

    Built from cosine sums rather than an eigensolver: a first LAPACK call
    maps OpenBLAS buffers, about 1.8 MB of resident memory.
    """
    order = 128
    theta = np.pi * np.arange(order + 1) / order
    k = np.arange(1, order // 2)
    terms = np.cos(2.0 * np.outer(theta, k)) / (4.0 * k * k - 1.0)
    weights = (1.0 - 2.0 * terms.sum(axis=1)
               - np.cos(order * theta) / (order * order - 1.0)) / order
    weights[[0, -1]] = 0.5 / (order * order - 1.0)
    nodes = 0.5 * (1.0 + np.cos(theta))
    return nodes, weights


def intercept_alter_probability(n: int, n0: int) -> float:
    """Closed-form one-bit alter success under pure interception: the
    paper's value, at the balanced mirror (r = 1/2) only."""
    return (5 * n - 4 * n0) / (6 * n - 4 * n0)


def resend_alter_probability(n: int, n0_resend: int) -> float:
    """Closed-form one-bit alter success under intercept/resend: the
    paper's value, at the balanced mirror (r = 1/2) only."""
    return 5 * n / (6 * n + 4 * n0_resend)


@functools.lru_cache(maxsize=64)
def _intercept_tables(bs, resend, n, n0):
    """The click laws of an intercept attack on n0 of n slots, one row per
    source of clicks; the alter laws of its unattacked and attacked slots;
    the mean and the variance of one sequence's click totals; and
    p_alter_model.

    A click law is (P_D0, P_D1, P_D2) of one click. An unattacked slot
    clicks by Bob's honest law, optics.slot_law. An attacked slot clicks by
    the capture law: opening both bins adds nothing on a matched slot, whose
    bin is open anyway, and on a mismatched one (probability 1/2) Alice
    captures the photon, which reads as D2. A resending Alice re-emits one
    photon per attacked slot, captured or not, into the receiver arm alone.
    Bob's bits are uniform, i.i.d. and independent of Alice's, so each
    slot's mismatch is an i.i.d. fair coin whatever her parity constraint,
    and each click an independent draw from its law: the n - n0 unattacked
    slots, the n0 attacked ones and the n0 resent photons of a sequence
    have multinomial click counts, exactly as per-slot draws would.

    An alter law is (unflagged candidate, flagged candidate, neither).
    Alice may flip a slot whose click is not D2 (she cannot tell Bob
    confirmed it), and the flip is unflagged when the click is D0, so a
    one-click slot's click law is its alter law. A resending Alice may flip
    any attacked slot: unflagged when the resent photon clicks D0 and the
    capture click is not D1.

    None of it depends on the draws, so a workload that repeats an attack
    builds it once. It reads the mirror's _float_view, and equal mirrors
    share an entry. Every array is read-only.
    """
    bs = bs._float_view
    honest, matched = optics.slot_law(bs), optics.view_channel(bs)[0]
    capture = (matched[0], matched[1], matched[2] + 0.5)
    laws, alter = [honest, capture], [honest, capture]
    if resend:
        resent = (bs.t, bs.r, 0.0)   # written once: moments, totals, alter
        laws.append(resent)
        unflagged = resent[0] * (1.0 - capture[1])
        alter[1] = (unflagged, 1.0 - unflagged, 0.0)
    laws, alter = np.array(laws), np.array(alter)
    slots = (n - n0, n0, n0)
    mean = sum(k * law for k, law in zip(slots, laws))
    var = sum(k * (law - law * law) for k, law in zip(slots, laws))
    for array in (laws, alter, mean, var):
        array.flags.writeable = False
    return laws, alter, mean, var, _alter_model_probability(alter, slots)


def _intercept_attack(n0, params, rng, alter_trials, resend) -> AttackReport:
    n = params.n
    n0_key = "n0_resend" if resend else "n0"
    if not 0 <= n0 <= n:
        raise ParameterError(f"{n0_key} must lie in [0, n]")
    if alter_trials < 0:
        raise ParameterError("alter_trials must be >= 0")
    check_draws(alter_trials)
    # p_alter_model's quadrature is checked only up to MAX_ITEM_SLOTS.
    check_item_slots(n)
    # The click totals are int64 sums: one click a slot, one more for each
    # resent photon.
    check_int64(params.m * (n + n0 if resend else n), "clicks")
    laws, alter, mean, var, p_alter_model = _intercept_tables(
        params.bs, resend, n, n0)
    slots = (n - n0, n0, n0)
    totals = sum(rng.multinomial(params.m * k, law)
                 for law, k in zip(laws, slots))
    p_emp = None
    extras = {"total_clicks": int(totals.sum())}
    if alter_trials:
        p_emp, extras["trials_without_flippable_slot"] = _alter_success_loop(
            alter, slots, rng, alter_trials)
    if resend:
        strategy, paper = "alice-intercept-resend", resend_alter_probability
        extras["expected_total_clicks"] = params.m * (n + n0)
    else:
        strategy, paper = "alice-intercept", intercept_alter_probability
    # The paper's p_alter holds at the balanced mirror only; p_alter_model
    # is the exact one of the laws sampled here, at any mirror.
    balanced = params.bs == optics.BeamSplitter.balanced()
    extras["p_alter_model"] = p_alter_model
    return AttackReport(
        strategy=strategy,
        params={"n": n, "m": params.m, n0_key: n0},
        expected=dict(zip(DETECTORS, (params.m * mean).tolist())),
        std=dict(zip(DETECTORS, (np.sqrt(params.m) * np.sqrt(var)).tolist())),
        empirical=dict(zip(DETECTORS, [int(v) for v in totals])),
        p_alter_analytic=paper(n, n0) if balanced else None,
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


def alice_alter(params: protocol.CommitmentParams, rng: np.random.Generator,
                trials: int) -> dict:
    """Per-sequence alter success, and its m-th power (sampling a ~1e-6
    event is hopeless). A trial whose every slot clicked D2 leaves Alice
    nothing to flip: it is counted apart and not graded."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    from . import security
    # A degenerate mirror has no analytic value; refuse it before sampling.
    probs = security.comparison_probs(params.bs)
    analytic_seq = float(security.binding_advantage(1, probs.p, probs.q))
    report = alice_intercept(0, replace(params, m=1), rng, alter_trials=trials)
    per_seq, m = report.p_alter_empirical, params.m
    return {
        "per_sequence_success": {"empirical": per_seq,
                                 "analytic": analytic_seq},
        "protocol_success_m_sequences": {
            "m": m, "empirical_composed": per_seq ** m,
            "analytic": analytic_seq ** m},
        "trials": trials,
        "trials_without_flippable_slot":
            report.extras["trials_without_flippable_slot"],
    }


def alice_optimal_alter(
    transcript: protocol.CommitmentTranscript,
    target_bit: int,
    rng: np.random.Generator,
) -> protocol.OpeningMessage:
    """Forge an opening for the opposite bit.

    Per sequence, flips exactly one claimed bit chosen uniformly among the
    slots where Alice's D2 stayed silent (the slots she cannot tell Bob
    confirmed). The claimed D2 record is reported truthfully.

    Optimal only among flips of honestly measured slots: a switch kept
    closed on one slot per sequence opens either bit (see the README).
    """
    if target_bit == transcript.committed_bit:
        raise ParameterError("target bit equals the committed bit")
    claimed = transcript.alice_bits.copy(order="K")
    for i, silent in enumerate(~transcript.d2_inferred()):
        unknown = np.flatnonzero(silent)
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

def _check_runs(runs, params):
    """Refuse fewer than one run, and a run past the one-run slot limit."""
    if runs < 1:
        raise ParameterError("runs must be >= 1")
    check_item_slots(params.m * params.n)


def _detection_report(strategy, attack_params, d2_rate, params, rng, runs):
    """Bob's attack graded by the trip rate of the D2 check over
    independent commit runs, when every slot clicks D2 independently with
    probability d2_rate.

    A sequence's D2 count is then Binomial(n, d2_rate), so each run is
    drawn as its m counts, not slot by slot.
    """
    _check_runs(runs, params)
    m, n = params.m, params.n
    check_draws(runs * m)
    detected = seq_failures = d2_clicks = 0
    for chunk in _chunks(runs, m):
        counts = rng.binomial(n, d2_rate, (chunk, m))
        bad = ~protocol.alice_check_d2(counts, params)
        seq_failures += int(np.count_nonzero(bad))
        detected += int(np.count_nonzero(bad.any(axis=1)))
        d2_clicks += int(counts.sum())
    return AttackReport(
        strategy=strategy,
        params={"n": n, "m": m, **attack_params, "runs": runs},
        expected={"d2_slot_rate": d2_rate},
        empirical={"d2_slot_rate": d2_clicks / (runs * m * n)},
        detection_probability=detected / runs,
        detection_probability_analytic=protocol.d2_detection_probability(
            d2_rate, params),
        extras={"per_sequence_failure_rate": seq_failures / (runs * m)},
    )


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
    return _detection_report("bob-illegal-bs", {"t_prime": t_prime},
                             optics.slot_law(bs)[2], params, rng, runs)


def bob_multiphoton(
    k: int,
    params: protocol.CommitmentParams,
    rng: np.random.Generator,
    runs: int = 1000,
) -> AttackReport:
    """Bob loads every slot with k independent photons."""
    if k < 2:
        raise ParameterError("multi-photon attack needs k >= 2")
    p_capture = optics.outcome_distribution(0, 0, params.bs._float_view)[
        optics.Detector.D2]
    p_any_capture = 1.0 - (1.0 - p_capture) ** k
    # A slot clicks D2 when its bits match and any photon is captured.
    return _detection_report("bob-multiphoton", {"k": k}, 0.5 * p_any_capture,
                             params, rng, runs)


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
    _check_runs(runs, params)
    m, n = params.m, params.n
    # No draw limit: the runs share one multinomial, whose total is int64.
    slots = runs * m * n
    check_int64(slots, "slots")
    # Alice's bit is uniform, so the bits match with probability 1/2
    # whatever the polarization, and the slots' clicks are i.i.d.
    slot = optics.slot_law(params.bs._float_view)
    # The report reads only the totals over all runs: one multinomial.
    _, d1_clicks, d2_clicks = rng.multinomial(slots, slot).tolist()
    # Bob confirms on D1 or an inferred D2.
    _, d1, d2_rate = slot
    return AttackReport(
        strategy="bob-illegal-polarization",
        params={"n": n, "m": m, "prob_v": pol.prob_v, "runs": runs},
        expected={"confirmation_rate": d1 + d2_rate, "d2_slot_rate": d2_rate},
        empirical={"confirmation_rate": (d1_clicks + d2_clicks) / slots,
                   "d2_slot_rate": d2_clicks / slots},
    )
