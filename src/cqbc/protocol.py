"""Commit/open protocol execution between Alice (committer) and Bob (sender).

Alice commits to bit b through m parity-constrained n-bit sequences; the
per-slot comparison runs over the interferometer modeled in `optics`.
Transcripts record both parties' views slot by slot; the opening phase is a
pure verification predicate over the transcript and Alice's claimed
sequences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterator, Optional

from . import optics
from .errors import ParameterError
from .rng import (DEFAULT_SEED, _chunks, _uniform_bytes, check_item_slots,
                  substream)

PHASE_COMMITTED = "committed"
PHASE_ABORTED = "aborted"

SLOT_ROW_HEADER = ("i", "j", "a", "b", "detector", "time_bin")

# Substream tags (first path element after the master seed).
_STREAM_BITS = 0
_STREAM_SLOTS = 1


@dataclass(frozen=True)
class CommitmentParams:
    """Security parameters and device configuration for one protocol run."""

    m: int
    n: int
    bs: optics.BeamSplitter = field(default_factory=optics.BeamSplitter.balanced)
    d2_check_sigma: float = 4.0
    master_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ParameterError("m must be >= 1")
        if self.n < 2:
            # n = 1 would leak the committed bit straight from the parity
            # constraint to any confirmed slot.
            raise ParameterError("n must be >= 2")
        if not 0 < self.d2_check_sigma < math.inf:
            raise ParameterError("d2_check_sigma must be finite and positive")


def _fair_bits(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """An (m, n) uint8 array of i.i.d. fair bits, eight from each uniform
    random byte: a per-bit bounded draw costs several times as much. The
    bytes come eight to a 64-bit word in a pinned order (_uniform_bytes),
    so the bits do not depend on the machine's byte order."""
    import numpy as np
    size = m * n
    random_bytes = _uniform_bytes(rng, (size + 7) // 8)
    return np.unpackbits(random_bytes, count=size).reshape(m, n)


def alice_generate(b: int, m: int, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw m sequences uniformly from the 2^(n-1) strings of parity b."""
    import numpy as np
    if n < 2:
        raise ParameterError("n must be >= 2")
    bits = _fair_bits(m, n, rng)
    prefix = bits[:, :-1]
    # A reduce along rows pays per row, which dominates short rows: reduce
    # those down a transposed copy (on long rows the copy costs more).
    parity = (np.bitwise_xor.reduce(np.ascontiguousarray(prefix.T), axis=0)
              if n <= 32 else np.bitwise_xor.reduce(prefix, axis=1))
    bits[:, -1] = parity ^ (b & 1)
    return bits


def bob_generate(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform i.i.d. comparison bits."""
    return _fair_bits(m, n, rng)


@dataclass
class OpeningMessage:
    """Alice's opening: claimed bit, claimed sequences, claimed D2 record."""

    claimed_bit: int
    claimed_bits: np.ndarray   # (m, n) uint8
    claimed_d2: np.ndarray     # (m, n) bool


@dataclass
class VerifyResult:
    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class CommitmentTranscript:
    """What one commit phase sampled; every verdict is derived from it.

    alice_bits and bob_bits are the parties' (m, n) uint8 sequences, and
    detectors holds the one click of each slot as an (m, n) int8 code, as
    optics.sample_detectors returns it: 0 for D0 and 1 for D1 (Bob's
    detectors), 2 for D2 (Alice's; Bob sees no click by the deadline).
    """

    params: CommitmentParams
    committed_bit: int
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    detectors: np.ndarray

    @property
    def d2_counts(self) -> np.ndarray:
        """(m,) per-sequence count of slots with a D2 click."""
        return (self.detectors == 2).sum(axis=1)

    @property
    def d2_pass(self) -> np.ndarray:
        """(m,) bool verdicts of Alice's D2-rate check."""
        return alice_check_d2(self.d2_counts, self.params)

    @property
    def phase(self) -> str:
        """Committed, or aborted when any sequence fails the check."""
        return PHASE_COMMITTED if self.d2_pass.all() else PHASE_ABORTED

    def d2_inferred(self) -> np.ndarray:
        """Bob's inference: no click by the return deadline means D2 fired."""
        return self.detectors == 2

    def bob_confirmed(self) -> np.ndarray:
        """Slots where Bob concludes the bits matched (D1 click or no click)."""
        return self.detectors != 0

    def honest_opening(self) -> OpeningMessage:
        return OpeningMessage(
            claimed_bit=int(self.committed_bit),
            claimed_bits=self.alice_bits.copy(),
            claimed_d2=self.d2_inferred(),
        )

    def slot_rows(self) -> Iterator[tuple]:
        """Yield one record per slot, in SLOT_ROW_HEADER order. A D2 click
        comes back in Alice's time bin, direct for a = 0 and loop for
        a = 1 (bins 0 and 1, so the bin is her bit); a D0 or D1 click in
        the return bin. Rows are built a block of whole sequences at a
        time, so their cost per slot does not depend on the shape."""
        import numpy as np
        n = self.params.n
        labels = [detector.value for detector in optics.Detector]
        start = 0
        for rows in _chunks(self.params.m, n):
            block = slice(start, start + rows)
            alice, codes = self.alice_bits[block], self.detectors[block]
            time_bins = np.where(codes == 2, alice, optics.TIME_BIN_RETURN)
            i = chain.from_iterable(map(repeat, range(start, start + rows),
                                        repeat(n)))
            j = chain.from_iterable(repeat(range(n), rows))
            yield from zip(i, j, alice.ravel().tolist(),
                           self.bob_bits[block].ravel().tolist(),
                           map(labels.__getitem__, codes.ravel().tolist()),
                           time_bins.ravel().tolist())
            start += rows

    def summary(self) -> dict:
        import numpy as np
        m, n = self.params.m, self.params.n
        total = m * n
        clicks = np.bincount(self.detectors.ravel(), minlength=3)
        return {
            "m": m,
            "n": n,
            "phase": self.phase,
            "clicks": {f"D{code}": int(c) for code, c in enumerate(clicks)},
            "bob_confirmed_fraction": float(self.bob_confirmed().mean()),
            "alice_d2_fraction": float(self.d2_inferred().mean()),
            "d2_check": {
                "per_sequence_counts": [int(c) for c in self.d2_counts],
                "passed": [bool(p) for p in self.d2_pass],
                "all_passed": bool(self.d2_pass.all()),
            },
            "total_slots": total,
        }


def alice_check_d2(d2_counts: np.ndarray,
                   params: CommitmentParams) -> np.ndarray:
    """Alice's per-sequence D2-rate check, a function of the D2 counts alone.

    A sequence passes iff its count of D2-click slots lies in d2_window.
    Takes counts of any shape and returns the bool verdicts in that shape;
    the protocol aborts if any sequence fails.
    """
    window = d2_window(params)
    return (d2_counts >= window.start) & (d2_counts < window.stop)


def d2_window(params: CommitmentParams) -> range:
    """The D2 counts of a sequence that pass Alice's check.

    An honest slot clicks D2 with probability p = t/2 for the agreed
    mirror (optics.slot_law: its bits match half the time), so the window
    holds the integers in n*p +/- sigma * sqrt(n*p*(1 - p)), both edges
    included; the balanced mirror centres it on n/4. Each edge is clipped
    to [0, n] before it is rounded, so a width that overflows to inf
    passes every count.
    """
    n = params.n
    p = optics.slot_law(params.bs)[2]
    center = n * p
    half_width = params.d2_check_sigma * math.sqrt(n * p * (1.0 - p))
    lo = min(max(center - half_width, 0.0), n)
    hi = min(max(center + half_width, 0.0), n)
    return range(math.ceil(lo), math.floor(hi) + 1)


def d2_detection_probability(p_slot: float, params: CommitmentParams) -> float:
    """Probability that the D2-rate check trips when each slot clicks D2
    with probability p_slot (exact binomial, across all m sequences).

    A sequence fails with the binomial mass outside the window: with the
    mean inside it, each tail summed in log space outward from the window
    until its terms stop adding (so a small tail keeps its relative
    precision), else the window's complement, at least about 1/2.
    """
    if not 0.0 <= p_slot <= 1.0:
        raise ParameterError("p_slot must lie in [0, 1]")
    fail = _sequence_fail(p_slot, params.n, d2_window(params))
    if fail >= 1.0:
        return 1.0
    return -math.expm1(params.m * math.log1p(-fail))


def honest_abort_probability(params: CommitmentParams) -> float:
    """The chance that an honest run trips Alice's D2-rate check."""
    return d2_detection_probability(optics.slot_law(params.bs._float_view)[2],
                                    params)


@functools.lru_cache(maxsize=256)
def _sequence_fail(p_slot: float, n: int, window: range) -> float:
    """Binomial(n, p_slot) mass outside the window: one sequence's chance
    to trip the check.

    Each report calls this once; the cache pays off across reports. Every
    slice of the benchmark's mc_large workload grades the same three
    (rate, window) pairs, and at n = 130 an uncached call takes 0.07 to
    0.09 ms (timeit on 2 CPUs, Python 3.11, numpy 2.4).
    """
    if window.start <= n * p_slot <= window.stop - 1:
        return (_tail_mass(range(window.start - 1, -1, -1), n, p_slot)
                + _tail_mass(range(window.stop, n + 1), n, p_slot))
    return 1.0 - math.fsum(_binomial_pmf(k, n, p_slot) for k in window)


def _tail_mass(ks: range, n: int, p: float) -> float:
    """Binomial mass over ks, which lead away from the mode from at or past
    it: summed until a term falls below 2^-60 of the running sum."""
    terms, total = [], 0.0
    for k in ks:
        term = _binomial_pmf(k, n, p)
        terms.append(term)
        total += term
        if term <= total * 2.0 ** -60:
            break
    return math.fsum(terms)


def _binomial_pmf(k: int, n: int, p: float) -> float:
    if p in (0.0, 1.0):
        return float(k == n * p)
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def run_commit_phase(
    params: CommitmentParams,
    b: Optional[int] = None,
) -> CommitmentTranscript:
    """Execute the honest commit phase and return its transcript.

    The transcript holds the committed bit, both parties' bits and the
    clicks; Alice's D2 counts, her check and the phase are derived from
    them. Whole sequences are sampled at once from the closed-form per-slot
    detector distribution; the amplitude-level `optics.run_slot` has the
    same marginal (asserted by the Monte Carlo agreement tests) but costs
    one Python call and up to one uniform per slot, too slow for the large
    batch runs. More than MAX_ITEM_SLOTS slots are a ParameterError.
    """
    check_item_slots(params.m * params.n)
    bits_rng = substream(params.master_seed, _STREAM_BITS)
    if b is None:
        b = int(bits_rng.integers(0, 2))
    alice_bits = alice_generate(b, params.m, params.n, bits_rng)
    bob_bits = bob_generate(params.m, params.n, bits_rng)

    slot_rng = substream(params.master_seed, _STREAM_SLOTS)
    detectors = optics.sample_detectors(alice_bits == bob_bits, params.bs,
                                        slot_rng)
    return CommitmentTranscript(params, b & 1, alice_bits, bob_bits,
                                detectors)


def bob_verify_opening(
    transcript: CommitmentTranscript,
    opening: OpeningMessage,
) -> VerifyResult:
    """Opening-phase verification predicate.

    Reject a claimed bit or sequence bit that is not 0 or 1. Otherwise
    accept iff (1) every claimed sequence has parity equal to the claimed
    bit, (2) every slot Bob confirmed carries the claimed bit he observed,
    and (3) Alice's claimed D2 record matches Bob's no-click inference
    exactly.
    """
    import numpy as np
    if transcript.phase == PHASE_ABORTED:
        return VerifyResult(False, "aborted")
    shape = (transcript.params.m, transcript.params.n)
    if opening.claimed_bits.shape != shape or opening.claimed_d2.shape != shape:
        return VerifyResult(False, "dimension-mismatch")

    claimed = opening.claimed_bits
    if (opening.claimed_bit not in (0, 1)
            or not np.array_equal(claimed, claimed.astype(bool))):
        return VerifyResult(False, "not-a-bit")
    parities = np.bitwise_xor.reduce(claimed.astype(np.uint8), axis=1)
    if not np.all(parities == opening.claimed_bit):
        return VerifyResult(False, "parity-mismatch")

    confirmed = transcript.bob_confirmed()
    if not np.array_equal(
        opening.claimed_bits[confirmed], transcript.bob_bits[confirmed]
    ):
        return VerifyResult(False, "confirmed-slot-mismatch")

    if not np.array_equal(opening.claimed_d2, transcript.d2_inferred()):
        return VerifyResult(False, "d2-record-mismatch")

    return VerifyResult(True)


def run_honest_protocol(params: CommitmentParams,
                        b: Optional[int] = None) -> VerifyResult:
    """Commit plus honest opening; completeness helper."""
    transcript = run_commit_phase(params, b=b)
    return bob_verify_opening(transcript, transcript.honest_opening())
