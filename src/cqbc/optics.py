"""Amplitude-level model of the single-photon comparison interferometer.

One photon per slot enters a beam splitter; the transmitted component is
routed by a polarizing beam splitter into one of two time bins (direct path
or optical loop) toward an optical switch on the receiver's side, while the
reflected component stays in the sender-side arm. The switch, when open at
a time bin, performs a projective "photon here?" measurement feeding
detector D2. Whatever survives returns to the beam splitter and recombines
into detectors D0/D1.

The amplitudes are never renormalized: a measurement branch's squared
amplitude is its absolute probability, so each slot's law is read straight
off them. `run_slot` reads each mirror's per-bit-pair outcome table, built
once from the amplitude steps, and draws one uniform per slot, none where
the outcome is certain.

Conventions (pinned, see module tests):
  * beam splitter: transmit sqrt(t), reflect i*sqrt(r);
  * the round trip adds a pi phase to the sender-side arm, so an
    uninterrupted interferometer sends the photon to D0 with certainty;
  * H-polarized light takes the direct path (bin 0), V takes the loop
    (bin 1);
  * time is discrete: bins 0 and 1 at the switch, bin 2 for the return
    deadline.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from collections.abc import Collection
from dataclasses import dataclass
from enum import Enum

from .errors import ContractViolationError, ParameterError
from .rng import _uniform_bytes

NORM_TOL = 1e-12

# Logical time bins.
TIME_BIN_DIRECT = 0   # direct path through the PBS to the switch
TIME_BIN_LOOP = 1     # through the optical loop to the switch
TIME_BIN_RETURN = 2   # round trip back to the sender's detectors


class Detector(Enum):
    D0 = "D0"
    D1 = "D1"
    D2 = "D2"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality; it runs in C, where Enum's hashes the name.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class BeamSplitter:
    """Lossless beam splitter with reflectivity r and transmissivity t."""

    r: float
    t: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.r <= 1.0 and 0.0 <= self.t <= 1.0):
            raise ParameterError(f"r={self.r}, t={self.t} must lie in [0, 1]")
        if abs(self.r + self.t - 1.0) > NORM_TOL:
            raise ParameterError(f"r + t = {self.r + self.t} != 1")

    @classmethod
    @functools.cache
    def balanced(cls) -> "BeamSplitter":
        """The honest half-transparent, half-reflecting mirror: one shared
        value, so its cached tables are built once."""
        return cls(0.5, 0.5)

    @classmethod
    def from_transmissivity(cls, t: float) -> "BeamSplitter":
        return cls(1.0 - t, t)

    @functools.cached_property
    def _slot_tables(self) -> tuple:
        """The honest slot's outcome table of each bit pair, indexed
        [a_bit][b_bit]; see _slot_table. Built on first use and kept on the
        mirror, so run_slot neither recomputes nor hashes anything."""
        return tuple(tuple(_slot_table(a_bit, b_bit, self) for b_bit in (0, 1))
                     for a_bit in (0, 1))

    @functools.cached_property
    def _float_view(self) -> "BeamSplitter":
        """The mirror at float values, the one mirror every sampler reads."""
        return (self if type(self.r) is type(self.t) is float
                else BeamSplitter(float(self.r), float(self.t)))

    @functools.cached_property
    def _sampler_cuts(self) -> tuple:
        """sample_detectors' integer cuts K = ceil(c * 2^53) for c = P_D0
        and P_D0 + P_D1 of a matched slot of _float_view, the first top byte
        that reaches each whatever its low bits, ceil(K / 2^45), and the top
        bytes that tie a K with nonzero low bits. Kept on the mirror."""
        d0, d1, _ = outcome_distribution(0, 0, self._float_view).values()
        cuts = tuple(math.ceil(c * (1 << 53)) for c in (d0, d0 + d1))
        return (cuts, tuple(-(-k >> 45) for k in cuts),
                tuple(k >> 45 for k in cuts if k % (1 << 45)))


@dataclass(frozen=True)
class Polarization:
    """Single-photon polarization as complex amplitudes over the H/V basis."""

    c_h: complex
    c_v: complex

    def __post_init__(self) -> None:
        norm = abs(self.c_h) ** 2 + abs(self.c_v) ** 2
        if not abs(norm - 1.0) <= NORM_TOL:  # also refuses a NaN norm
            raise ContractViolationError(f"polarization norm {norm} != 1")

    @property
    def prob_v(self) -> float:
        return abs(self.c_v) ** 2

    @classmethod
    def from_bit(cls, bit: int) -> "Polarization":
        """Honest encoding: bit 0 -> H, bit 1 -> V."""
        return V if bit else H


H = Polarization(1.0, 0.0)
V = Polarization(0.0, 1.0)
PLUS = Polarization(1 / math.sqrt(2), 1 / math.sqrt(2))


@dataclass(frozen=True)
class PhotonState:
    """Unnormalized photon amplitudes over the interferometer modes.

    amp_a        -- sender-side arm (toward the sender's Faraday mirror)
    amp_b_direct -- receiver-side arm, direct time bin (bin 0)
    amp_b_loop   -- receiver-side arm, optical-loop time bin (bin 1)

    The squared norm is the probability that the photon is still in
    flight: 1 after bs_forward, less once the switch has measured it.
    """

    amp_a: complex
    amp_b_direct: complex
    amp_b_loop: complex

    @property
    def norm_sq(self) -> float:
        return (abs(self.amp_a) ** 2 + abs(self.amp_b_direct) ** 2
                + abs(self.amp_b_loop) ** 2)


@dataclass(frozen=True)
class DetectionOutcome:
    detector: Detector
    time_bin: int


def bs_forward(pol: Polarization, bs: BeamSplitter) -> PhotonState:
    """First beam-splitter pass plus PBS routing into time bins.

    Reflection (amplitude i*sqrt(r)) keeps the photon in the sender-side
    arm; transmission (sqrt(t)) sends it to the receiver, where the PBS
    routes the H component into the direct bin and the V component into
    the loop bin.
    """
    st = math.sqrt(bs.t)
    sr = math.sqrt(bs.r)
    return PhotonState(
        amp_a=1j * sr,
        amp_b_direct=st * pol.c_h,
        amp_b_loop=st * pol.c_v,
    )


def apply_switch(
    state: PhotonState,
    open_bins: Collection[int],
) -> tuple[tuple, PhotonState]:
    """Gate the receiver-side bins through the switch, open at the time
    bins in open_bins (an honest controller opens the bin of its bit).

    Each open bin performs a projective measurement feeding D2. Returns one
    (probability, D2 outcome) pair per open bin that holds amplitude, in
    bin order, each probability the bin's squared amplitude, and the
    survivor: the state with those bins zeroed and not renormalized, whose
    norm_sq is the probability that no bin clicked. Closed bins pass
    untouched (mirror reflection, phase preserved).
    """
    amps = [state.amp_b_direct, state.amp_b_loop]
    clicks = []
    for time_bin in (TIME_BIN_DIRECT, TIME_BIN_LOOP):
        p_here = abs(amps[time_bin]) ** 2
        if time_bin in open_bins and p_here > 0.0:
            clicks.append((p_here, DetectionOutcome(Detector.D2, time_bin)))
            amps[time_bin] = 0.0
    return tuple(clicks), PhotonState(state.amp_a, *amps)


def bs_return(state: PhotonState, bs: BeamSplitter) -> tuple[float, float]:
    """Second beam-splitter pass; returns the absolute (P_D0, P_D1), which
    sum to the state's norm_sq.

    The sender-side arm picks up the round-trip pi phase before
    recombining, which makes the uninterrupted interferometer output
    deterministic at D0. Surviving receiver-side amplitudes are summed;
    in every supported scenario at most one time bin is occupied here.
    """
    st = math.sqrt(bs.t)
    sr = math.sqrt(bs.r)
    amp_a = -state.amp_a
    amp_b = state.amp_b_direct + state.amp_b_loop
    amp_d0 = 1j * sr * amp_a + st * amp_b
    amp_d1 = st * amp_a + 1j * sr * amp_b
    return abs(amp_d0) ** 2, abs(amp_d1) ** 2


_RETURN_D0 = DetectionOutcome(Detector.D0, TIME_BIN_RETURN)
_RETURN_D1 = DetectionOutcome(Detector.D1, TIME_BIN_RETURN)


def _slot_table(a_bit: int, b_bit: int,
                bs: BeamSplitter) -> tuple[tuple, tuple]:
    """The outcomes of an honest slot with nonzero mass, and the cuts
    between them on [0, 1).

    The masses are absolute probabilities from the amplitude steps: the
    switch's clicks, then the return pass's (P_D0, P_D1) of the state that
    survives them. The cuts are the cumulative masses before each outcome
    but the first.
    """
    state = bs_forward(Polarization.from_bit(b_bit), bs)
    clicks, survivor = apply_switch(
        state, {TIME_BIN_LOOP if a_bit else TIME_BIN_DIRECT})
    p_d0, p_d1 = bs_return(survivor, bs)
    branches = [*clicks, (p_d0, _RETURN_D0), (p_d1, _RETURN_D1)]
    branches = [(p, outcome) for p, outcome in branches if p > 0.0]
    cuts = itertools.accumulate(p for p, _ in branches[:-1])
    return tuple(outcome for _, outcome in branches), tuple(cuts)


def run_slot(
    a_bit: int,
    b_bit: int,
    bs: BeamSplitter,
    rng: np.random.Generator,
) -> DetectionOutcome:
    """One honest slot: forward pass, switch gating, return pass, sampling.

    The outcome law depends on (a_bit, b_bit, bs) alone; the mirror builds
    it once from the amplitude steps (BeamSplitter._slot_tables). A slot
    whose outcome is certain (mismatched bits, or a mirror with r or t
    zero) draws nothing; any other draws one uniform against the cuts.
    """
    outcomes, cuts = bs._slot_tables[a_bit][b_bit]
    if not cuts:
        return outcomes[0]
    return outcomes[bisect_right(cuts, rng.random())]


def outcome_distribution(
    a_bit: int,
    b_bit: int,
    bs: BeamSplitter,
) -> dict[Detector, float]:
    """Closed-form per-slot detector probabilities.

    Mismatched bits leave the interferometer uninterrupted (D0 certain);
    matched bits give (r^2, r*t, t) over (D0, D1, D2). This is the one
    definition of the channel: the samplers, the attack tables and the
    exact security probabilities all read it. Both rows take the mirror's
    number type, so Fraction coefficients yield exact rationals.
    """
    if a_bit != b_bit:
        zero = 0 * bs.t
        return {Detector.D0: 1 + zero, Detector.D1: zero, Detector.D2: zero}
    return {
        Detector.D0: bs.r * bs.r,
        Detector.D1: bs.r * bs.t,
        Detector.D2: bs.t,
    }


def view_channel(bs: BeamSplitter) -> tuple[tuple, tuple]:
    """Bob's view of one honest slot, his bit b uniform: row a holds
    P(b, click | Alice's bit a) at column 3 * b + click (0, 1, 2 for D0, D1,
    D2; no click reads as D2). Only whether the bits match counts, so row 1
    is row 0 with its halves swapped. Exact for a Fraction mirror."""
    row = tuple(prob / 2 for b_bit in (0, 1)
                for prob in outcome_distribution(0, b_bit, bs).values())
    return row, row[3:] + row[:3]


def slot_law(bs: BeamSplitter) -> tuple:
    """Per-slot (P_D0, P_D1, P_D2), the marginal of view_channel over Bob's
    bit: p = P_D1 + P_D2 and q = P_D2 of the security analysis, and the
    centre of Alice's D2-rate window."""
    row = view_channel(bs)[0]
    return tuple(row[click] + row[3 + click] for click in range(3))


def sample_detectors(
    eq: np.ndarray,
    bs: BeamSplitter,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized honest-slot sampler.

    eq is a boolean array marking slots where the two parties' bits match.
    Returns int8 detector codes (0 -> D0, 1 -> D1, 2 -> D2) with the same
    shape, distributed per outcome_distribution. Equivalence with the
    amplitude-level run_slot is enforced by the Monte Carlo agreement
    tests.

    The code is the count of cuts (r^2 and r^2 + rt) that a uniform
    u = k * 2^-53 reaches, with k a 53-bit integer, as rng.random() would
    give it: u reaches a cut c iff k reaches K = ceil(c * 2^53). Every slot
    draws k's top byte, eight to a 64-bit word. Only a slot whose byte
    equals the top byte of a K with nonzero low bits draws k's 45 low bits,
    one word in C order that both cuts share. At the balanced mirror no K
    has low bits, so a slot costs one byte. The draws do not depend on eq.
    """
    import numpy as np
    eq = np.asarray(eq, dtype=bool)
    cuts, first, ties = bs._sampler_cuts
    high = _uniform_bytes(rng, eq.size)   # flat: 0-d compares give scalars
    # A byte at or past ceil(K / 2^45) reaches K whatever its low bits.
    det = (high >= first[0]).view(np.int8)
    det += (high >= first[1]).view(np.int8)
    if ties:  # one tied byte or two
        tied = (high == ties[0]) | (high == ties[-1])
        k = high[tied].astype(np.int64) << 45
        k += rng.integers(0, 1 << 45, k.size)
        det[tied] = np.add(*((k >= c).view(np.int8) for c in cuts))
    det *= eq.ravel()
    return det.reshape(eq.shape)


def phase_check(bs: BeamSplitter) -> float:
    """Residual D1 amplitude of the uninterrupted interferometer.

    The cross term i*sqrt(rt) - i*sqrt(rt) must cancel; returns its
    magnitude so tests can assert it below 1e-12.
    """
    state = bs_forward(H, bs)
    _, p1 = bs_return(state, bs)
    return math.sqrt(p1)
