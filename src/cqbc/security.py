"""Closed-form security calculators, brute-force concealing oracle, and the
security-parameter solver.

The per-slot comparison probabilities are computed in exact rational
arithmetic; the concealing advantage at realistic parameters involves
quantities like (1 - 3e-8)^70 and is therefore evaluated with
log1p/expm1 to avoid catastrophic cancellation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import optics, protocol
from .errors import InfeasibleTargetError, ParameterError
from .rng import _chunks


@dataclass(frozen=True)
class ComparisonProbs:
    """Per-slot probabilities of the comparison channel (exact rationals).

    p        -- Bob confirms the bits matched (D1 click or inferred D2)
    p_prime  -- Bob's Bayes-optimal per-slot guess, (1 + tau)/2
    q        -- Alice learns that Bob confirmed (her D2 clicked)
    """

    p: Fraction
    p_prime: Fraction
    q: Fraction


def comparison_probs(bs: optics.BeamSplitter) -> ComparisonProbs:
    """Exact per-slot channel probabilities for a given beam splitter.

    Degenerate mirrors (r in {0, 1}) break the required ordering
    0 <= q < p < 1 and are rejected.
    """
    if not 0.0 < bs.r < 1.0:
        raise ParameterError("degenerate beam splitter: need 0 < r < 1")
    # t = 1 - r exactly: bs.t is 1 - r only up to rounding, and for a tiny
    # r that rounding error outweighs r^2 and tips p' = 1 - r^2 / 2 past 1.
    exact = optics.BeamSplitter(Fraction(bs.r), 1 - Fraction(bs.r))
    _, d1, d2 = optics.slot_law(exact)
    # tau is the total-variation distance of Bob's views of the two bits;
    # his best guess of a slot's bit is right with probability (1 + tau)/2.
    # So q = t/2 < p = (1 - r^2)/2 < p' = 1 - r^2/2 < 1 for any 0 < r < 1.
    tau = sum(abs(x - y) for x, y in zip(*optics.view_channel(exact))) / 2
    return ComparisonProbs(p=d1 + d2, p_prime=(1 + tau) / 2, q=d2)


def binding_advantage(m: int, p, q):
    """Alice's probability of opening the opposite bit undetected.

    One flipped bit per sequence survives with (1-p)/(1-q); m sequences
    compound the exponent. Accepts floats or Fractions; preserves exact
    arithmetic for Fraction inputs.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if not 0 <= q < p < 1:
        raise ParameterError("need 0 <= q < p < 1")
    return ((1 - p) / (1 - q)) ** m


@dataclass(frozen=True)
class ConcealingReport:
    """Bob's concealing-break probability and its stable evaluation.

    first_order is the small-epsilon approximation m * p'^n / 2. The
    source analysis simplifies the exact advantage to m * p'^n, dropping
    the factor 1/2; the exact expression is what matches the quoted
    ~1.0e-6 figure, so the discrepancy is flagged here rather than
    silently reconciled.
    """

    epsilon: float
    advantage: float
    first_order: float
    factor_two_note: str = (
        "final simplification in the source analysis omits the factor 1/2; "
        "exact advantage = epsilon/2 is reported here"
    )


def concealing_advantage(m: int, n: int, p_prime) -> ConcealingReport:
    """epsilon = 1 - (1 - p'^n)^m and Bob's guessing advantage epsilon/2."""
    if m < 1 or n < 1:
        raise ParameterError("m and n must be >= 1")
    if not 0 < p_prime < 1:
        raise ParameterError("need 0 < p' < 1")
    # log p' from the complement 1 - p', so that an exact p' within
    # rounding of 1 (a tiny r) still counts as below 1.
    return _concealing_report(m, n, math.log1p(-float(1 - p_prime)))


def _concealing_report(m: int, n: int, log_pp: float) -> ConcealingReport:
    ppn = math.exp(n * log_pp)
    # 1 - (1 - x)^m with x = p'^n, evaluated without cancellation. An x
    # that rounds to 1 leaves (1 - x)^m below 2^-54, so epsilon rounds to 1.
    epsilon = -math.expm1(m * math.log1p(-ppn)) if ppn < 1.0 else 1.0
    return ConcealingReport(
        epsilon=epsilon,
        advantage=epsilon / 2.0,
        first_order=m * ppn / 2.0,
    )


def _floats(probs: ComparisonProbs) -> tuple[float, float]:
    """The binding ratio (1 - p)/(1 - q) and log p' as floats, each taken
    from an exact complement: at a tiny r, p and q round to one float and
    p' to 1 (see concealing_advantage)."""
    return (float((1 - probs.p) / (1 - probs.q)),
            math.log1p(-float(1 - probs.p_prime)))


@dataclass
class ParamSearchResult:
    m: int
    n: int
    trace: list = field(default_factory=list)  # {parameter, value, advantage}


def choose_parameters(
    target_binding: float,
    target_concealing: float,
    bs: optics.BeamSplitter = optics.BeamSplitter.balanced(),
    max_m: int = 100_000,
    max_n: int = 1_000_000,
) -> ParamSearchResult:
    """Smallest m meeting the binding target, then smallest n >= 2 meeting
    the concealing target at that m. Both advantages are monotone in their
    parameter, so bisecting each range returns the minimal pair. trace
    holds the values tried: ceil(log2 max_m) + ceil(log2(max_n - 1)) + 2
    rows at most."""
    if not (0.0 < target_binding <= 1.0 and 0.0 < target_concealing <= 1.0):
        raise ParameterError("targets must lie in (0, 1]")
    ratio, log_pp = _floats(comparison_probs(bs))
    trace: list = []
    m = _first_meeting("binding", "m", 1, max_m, target_binding,
                       lambda cand: ratio ** cand, trace)
    n = _first_meeting(
        "concealing", "n", 2, max_n, target_concealing,
        lambda cand: _concealing_report(m, cand, log_pp).advantage, trace)
    return ParamSearchResult(m=m, n=n, trace=trace)


def _first_meeting(target_name, parameter, first, last, target, advantage,
                   trace) -> int:
    """The smallest value in [first, last] whose advantage meets target, by
    bisection, each value tried appended to trace. The advantage never
    grows with the value, so when the last one misses the target, all do.
    lo misses (first - 1 counts as missing) and hi meets the target, so the
    result's predecessor misses even where the advantage is not monotone."""
    top = advantage(last) if first <= last else math.inf
    if top > target:
        raise InfeasibleTargetError(
            f"{target_name} target {target} unreachable with "
            f"{parameter} <= {last}")
    trace.append({"parameter": parameter, "value": last, "advantage": top})
    lo, hi = first - 1, last
    while hi - lo > 1:
        mid = (lo + hi) // 2
        adv = advantage(mid)
        trace.append({"parameter": parameter, "value": mid, "advantage": adv})
        lo, hi = (lo, mid) if adv <= target else (mid, hi)
    return hi


# ---------------------------------------------------------------------------
# Concealing: the law of Bob's view, exact at tiny n and sampled
# ---------------------------------------------------------------------------
# A law is a (2, 6^n) array whose row c is the law of Bob's view of n slots
# given committed bit c. A view's index is the base-6 number of its slots'
# columns of optics.view_channel, slot 1 the most significant.

def _view_law(n: int, bs: optics.BeamSplitter) -> np.ndarray:
    """The law, by enumerating Alice's strings; exact for a Fraction mirror."""
    import numpy as np
    # The n-fold outer product with Alice's axes first, flattened: row
    # Alice's string, column the view, slot 1 most significant in both.
    table = functools.reduce(np.kron, [np.array(optics.view_channel(bs))] * n)
    parity = np.array([bin(a_str).count("1") % 2 for a_str in range(2 ** n)])
    # 1/2^(n-1) for each Alice string of the parity.
    return np.stack([table[parity == c].sum(axis=0)
                     for c in (0, 1)]) / 2 ** (n - 1)


def _sampled_view_law(n: int, bs: optics.BeamSplitter, samples: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Frequencies of the views in `samples` transcripts per committed bit."""
    import numpy as np
    n_views = 6 ** n
    # The narrowest unsigned type that holds every index: uint8 up to
    # n = 3, uint16 up to 6, uint32 beyond. Every partial index is below
    # 6^n too, so the loop never wraps, and the smaller temporaries make
    # it faster than an intp one.
    index_type = np.min_scalar_type(n_views - 1)
    counts = np.zeros((2, n_views), dtype=np.int64)
    for b_commit in (0, 1):
        for chunk in _chunks(samples, n):
            bits = protocol.alice_generate(b_commit, chunk, n, rng)
            b_bits = protocol.bob_generate(chunk, n, rng)
            det = optics.sample_detectors(bits == b_bits, bs, rng)
            slot_codes = b_bits * np.uint8(3)
            slot_codes += det.view(np.uint8)
            views = slot_codes[:, 0].astype(index_type)
            for column in slot_codes.T[1:]:
                views *= 6
                views += column
            counts[b_commit] += np.bincount(views, minlength=n_views)
    return counts / samples


def _tv(law: np.ndarray) -> float:
    """Total-variation distance between the two rows of a view law."""
    import numpy as np
    return 0.5 * float(np.abs(law[0] - law[1]).sum())


def concealing_oracle_bruteforce(
        n: int, bs: optics.BeamSplitter = optics.BeamSplitter.balanced()
) -> float:
    """Exact total-variation distance between Bob's view distributions
    conditioned on the two commitment values, by full enumeration."""
    if not 2 <= n <= 4:
        raise ParameterError("brute-force oracle supports 2 <= n <= 4 only")
    return _tv(_view_law(n, bs))


def concealing_tv_monte_carlo(n: int, bs: optics.BeamSplitter, samples: int,
                              rng: np.random.Generator) -> float:
    """Monte Carlo estimate of the oracle's TV distance from sampled
    transcripts (`samples` per commitment value). Each chunk's views are
    indexed in the narrowest unsigned type that holds 6^n - 1 (uint8 up
    to n = 3) before they are counted. The count table alone holds
    2 * 6^n int64 counts, 27 MB at n = 8, so n is capped there; with the
    frequencies and their difference a traced n = 8 call peaks at 55 MB."""
    if not (2 <= n <= 8 and samples >= 1):
        raise ParameterError(f"need 2 <= n <= 8 and samples >= 1, got n={n}, "
                             f"samples={samples}")
    return _tv(_sampled_view_law(n, bs, samples, rng))


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------

def security_report(
        m: int, n: int,
        bs: optics.BeamSplitter = optics.BeamSplitter.balanced()) -> dict:
    """Analytic security summary for one (m, n, beam splitter) choice, as
    the plain values a report holds: each advantage as choose_parameters
    evaluates it, and the chance that an honest run trips Alice's D2-rate
    check at the default window. m and n are refused as a commit's are."""
    params = protocol.CommitmentParams(m, n, bs)
    probs = comparison_probs(bs)
    ratio, log_pp = _floats(probs)
    concealing = _concealing_report(m, n, log_pp)
    return {
        "m": m,
        "n": n,
        "r": float(bs.r),
        "t": float(bs.t),
        "p": float(probs.p),
        "p_prime": float(probs.p_prime),
        "q": float(probs.q),
        "binding_advantage": ratio ** m,
        "concealing": {
            "epsilon": concealing.epsilon,
            "advantage": concealing.advantage,
            "first_order": concealing.first_order,
            "note": concealing.factor_two_note,
        },
        "honest_abort_probability": protocol.honest_abort_probability(params),
    }
