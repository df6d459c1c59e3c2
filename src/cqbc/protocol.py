"""Commit/open protocol execution between Alice (committer) and Bob (sender).

Alice commits to bit b through m parity-constrained n-bit sequences; the
per-slot comparison runs over the interferometer modeled in `optics`.
Transcripts record both parties' views slot by slot; the opening phase is a
pure verification predicate over the transcript and Alice's claimed
sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, Optional

import numpy as np

from . import optics
from .errors import ParameterError
from .rng import DEFAULT_SEED, check_item_slots, substream

PHASE_COMMITTED = "committed"
PHASE_ABORTED = "aborted"

SLOT_ROW_HEADER = ("i", "j", "a", "b", "detector", "time_bin")
_DETECTOR_LABELS = ("D0", "D1", "D2")   # by detector code

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
    bytes are drawn as uint8, never viewed from wider words, so the bits do
    not depend on the machine's byte order."""
    size = m * n
    random_bytes = rng.integers(0, 256, size=(size + 7) // 8, dtype=np.uint8)
    return np.unpackbits(random_bytes, count=size).reshape(m, n)


def alice_generate(b: int, m: int, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw m sequences uniformly from the 2^(n-1) strings of parity b."""
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
        the return bin. Rows are built one sequence at a time."""
        time_bins = np.where(self.detectors == 2, self.alice_bits,
                             optics.TIME_BIN_RETURN)
        slots = range(self.params.n)
        for i, (a, b, codes, bins) in enumerate(zip(
                self.alice_bits, self.bob_bits, self.detectors, time_bins)):
            labels = map(_DETECTOR_LABELS.__getitem__, codes.tolist())
            yield from zip(repeat(i), slots, a.tolist(), b.tolist(), labels,
                           bins.tolist())

    def summary(self) -> dict:
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

    A sequence passes iff its count of D2-click slots lies in the closed
    window of d2_window (a count on an edge passes). Takes counts of any
    shape and returns the bool verdicts in that shape; the protocol aborts
    if any sequence fails.
    """
    lo, hi = d2_window(params)
    return (d2_counts >= lo) & (d2_counts <= hi)


def d2_window(params: CommitmentParams) -> tuple[float, float]:
    """The acceptance interval for per-sequence D2 counts.

    An honest slot clicks D2 with probability p = t/2 for the agreed
    mirror (optics.slot_law: its bits match half the time), so the window
    is n*p +/- sigma * sqrt(n*p*(1 - p)); the balanced mirror gives n/4.
    """
    p = optics.slot_law(params.bs)[2]
    center = params.n * p
    half_width = params.d2_check_sigma * np.sqrt(params.n * p * (1.0 - p))
    return center - half_width, center + half_width


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

    Accept iff (1) every claimed sequence has parity equal to the claimed
    bit, (2) every slot Bob confirmed carries the claimed bit he observed,
    and (3) Alice's claimed D2 record matches Bob's no-click inference
    exactly.
    """
    if transcript.phase == PHASE_ABORTED:
        return VerifyResult(False, "aborted")
    shape = (transcript.params.m, transcript.params.n)
    if opening.claimed_bits.shape != shape or opening.claimed_d2.shape != shape:
        return VerifyResult(False, "dimension-mismatch")

    parities = np.bitwise_xor.reduce(opening.claimed_bits.astype(np.uint8), axis=1)
    if not np.all(parities == (opening.claimed_bit & 1)):
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
