"""Commit/open protocol execution between Alice (committer) and Bob (sender).

Alice commits to bit b through m parity-constrained n-bit sequences; the
per-slot comparison runs over the interferometer modeled in `optics`.
Transcripts record both parties' views slot by slot; the opening phase is a
pure verification predicate over the transcript and Alice's claimed
sequences.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import optics
from .errors import ParameterError
from .rng import DEFAULT_SEED, substream

PHASE_COMMITTED = "committed"
PHASE_OPENED = "opened"
PHASE_ABORTED = "aborted"

SLOT_ROW_HEADER = ("i", "j", "a", "b", "detector", "time_bin")

# Largest m * n that run_commit_phase accepts. A commit and its
# verification peak at about 15 bytes a slot, so this cap keeps one near
# 250 MB; larger requests are refused before anything is allocated.
MAX_COMMIT_SLOTS = 1 << 24

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
        if self.d2_check_sigma <= 0:
            raise ParameterError("d2_check_sigma must be positive")


@dataclass
class BitSequenceSet:
    """m sequences of n bits belonging to one party."""

    owner: str
    bits: np.ndarray  # (m, n) uint8
    committed_bit: Optional[int] = None

    def parities(self) -> np.ndarray:
        return np.bitwise_xor.reduce(self.bits, axis=1)


def alice_generate(b: int | np.ndarray, m: int, n: int,
                   rng: np.random.Generator) -> BitSequenceSet:
    """Draw m sequences uniformly from the 2^(n-1) strings of parity b.

    b is one committed bit, or an (m,) array of them, one per sequence, for
    batches of independent single-sequence commitments.
    """
    if n < 2:
        raise ParameterError("n must be >= 2")
    bits = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    prefix_parity = np.bitwise_xor.reduce(bits[:, :-1], axis=1)
    bits[:, -1] = prefix_parity ^ (b & 1)
    return BitSequenceSet("Alice", bits, committed_bit=b & 1)


def bob_generate(m: int, n: int, rng: np.random.Generator) -> BitSequenceSet:
    """Uniform i.i.d. comparison bits."""
    bits = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    return BitSequenceSet("Bob", bits)


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


@dataclass
class CommitmentTranscript:
    """Full per-slot record of one commit-phase execution.

    beta0/beta1 are Bob's detector click counts per slot (counts, not
    flags: adversarial resends and multi-photon pulses can produce more
    than one click in a slot). alpha counts Alice's D2 clicks.
    """

    params: CommitmentParams
    alice: BitSequenceSet
    bob: BitSequenceSet
    beta0: np.ndarray
    beta1: np.ndarray
    alpha: np.ndarray
    phase: str
    d2_counts: np.ndarray   # (m,) per-sequence count of slots with a D2 click
    d2_pass: np.ndarray     # (m,) bool

    def d2_inferred(self) -> np.ndarray:
        """Bob's inference: no click by the return deadline means D2 fired."""
        return (self.beta0 + self.beta1) == 0

    def bob_confirmed(self) -> np.ndarray:
        """Slots where Bob concludes the bits matched (D1 click or no click)."""
        return (self.beta1 > 0) | self.d2_inferred()

    def honest_opening(self) -> OpeningMessage:
        return OpeningMessage(
            claimed_bit=int(self.alice.committed_bit),
            claimed_bits=self.alice.bits.copy(),
            claimed_d2=self.alpha > 0,
        )

    def slot_rows(self) -> Iterator[list]:
        """Yield one record per slot, in SLOT_ROW_HEADER order."""
        for i in range(self.params.m):
            for j in range(self.params.n):
                a_bit = int(self.alice.bits[i, j])
                if self.alpha[i, j] > 0:
                    detector = "D2"
                    time_bin = (optics.TIME_BIN_LOOP if a_bit
                                else optics.TIME_BIN_DIRECT)
                elif self.beta1[i, j] > 0:
                    detector, time_bin = "D1", optics.TIME_BIN_RETURN
                elif self.beta0[i, j] > 0:
                    detector, time_bin = "D0", optics.TIME_BIN_RETURN
                else:
                    detector, time_bin = "NONE", optics.TIME_BIN_NONE
                yield [i, j, a_bit, int(self.bob.bits[i, j]), detector,
                       time_bin]

    def to_csv(self, path) -> None:
        """Line-delimited slot records: i, j, a, b, detector, time_bin."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SLOT_ROW_HEADER)
            writer.writerows(self.slot_rows())

    def summary(self) -> dict:
        m, n = self.params.m, self.params.n
        total = m * n
        return {
            "m": m,
            "n": n,
            "phase": self.phase,
            "clicks": {
                "D0": int((self.beta0 > 0).sum()),
                "D1": int((self.beta1 > 0).sum()),
                "D2": int((self.alpha > 0).sum()),
            },
            "bob_confirmed_fraction": float(self.bob_confirmed().mean()),
            "alice_d2_fraction": float((self.alpha > 0).mean()),
            "d2_check": {
                "per_sequence_counts": [int(c) for c in self.d2_counts],
                "passed": [bool(p) for p in self.d2_pass],
                "all_passed": bool(self.d2_pass.all()),
            },
            "total_slots": total,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), sort_keys=True)


def alice_check_d2(transcript: CommitmentTranscript,
                   params: CommitmentParams) -> np.ndarray:
    """Per-sequence D2-rate check.

    A sequence passes iff its count of D2-click slots sits inside the
    +/- sigma-multiple binomial window of d2_window. Returns the (m,) bool
    pass vector; the protocol aborts if any entry is False.
    """
    lo, hi = d2_window(params)
    counts = (transcript.alpha > 0).sum(axis=1)
    return (counts >= lo) & (counts <= hi)


def d2_window(params: CommitmentParams) -> tuple[float, float]:
    """The acceptance interval for per-sequence D2 counts.

    An honest slot clicks D2 with probability p = t/2 for the agreed
    mirror (its bits match half the time), so the window is
    n*p +/- sigma * sqrt(n*p*(1 - p)); the balanced mirror gives n/4.
    """
    p = params.bs.t / 2.0
    center = params.n * p
    half_width = params.d2_check_sigma * np.sqrt(params.n * p * (1.0 - p))
    return center - half_width, center + half_width


def run_commit_phase(
    params: CommitmentParams,
    b: Optional[int] = None,
) -> CommitmentTranscript:
    """Execute the honest commit phase and Alice's D2-rate check.

    Whole sequences are sampled at once from the closed-form per-slot
    detector distribution; the amplitude-level `optics.run_slot` has the
    same marginal (asserted by the Monte Carlo agreement tests) but is too
    slow for the large batch runs. More than MAX_COMMIT_SLOTS slots are a
    ParameterError.
    """
    if params.m * params.n > MAX_COMMIT_SLOTS:
        raise ParameterError(
            f"m * n = {params.m * params.n} slots exceeds the commit limit "
            f"of {MAX_COMMIT_SLOTS}")
    bits_rng = substream(params.master_seed, _STREAM_BITS)
    if b is None:
        b = int(bits_rng.integers(0, 2))
    alice = alice_generate(b, params.m, params.n, bits_rng)
    bob = bob_generate(params.m, params.n, bits_rng)

    slot_rng = substream(params.master_seed, _STREAM_SLOTS)
    det = optics.sample_detectors(alice.bits == bob.bits, params.bs, slot_rng)
    beta0, beta1, alpha = ((det == code).astype(np.int16) for code in range(3))

    transcript = CommitmentTranscript(
        params=params,
        alice=alice,
        bob=bob,
        beta0=beta0,
        beta1=beta1,
        alpha=alpha,
        phase=PHASE_COMMITTED,
        d2_counts=(alpha > 0).sum(axis=1),
        d2_pass=np.ones(params.m, dtype=bool),
    )
    transcript.d2_pass = alice_check_d2(transcript, params)
    if not transcript.d2_pass.all():
        transcript.phase = PHASE_ABORTED
    return transcript


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
        opening.claimed_bits[confirmed], transcript.bob.bits[confirmed]
    ):
        return VerifyResult(False, "confirmed-slot-mismatch")

    if not np.array_equal(opening.claimed_d2, transcript.d2_inferred()):
        return VerifyResult(False, "d2-record-mismatch")

    return VerifyResult(True)


def run_honest_protocol(params: CommitmentParams,
                        b: Optional[int] = None) -> VerifyResult:
    """Commit plus honest opening; completeness helper."""
    transcript = run_commit_phase(params, b=b)
    result = bob_verify_opening(transcript, transcript.honest_opening())
    if result.accepted:
        transcript.phase = PHASE_OPENED
    return result
