"""Deterministic random substream derivation.

Every stochastic routine in the package takes an explicit numpy Generator.
Substreams are derived from a master seed plus an integer path, so any
sequence/slot/photon is replayable in isolation and independent runs can be
executed in parallel without shared state.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import ParameterError

# Fixed documented default seed for CLI reproducibility.
DEFAULT_SEED = 1


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent Generator keyed by (master_seed, *path).

    The path is an arbitrary tuple of non-negative integers, e.g.
    (sequence index, slot index, photon index). A negative master seed is
    a ParameterError.
    """
    import numpy as np
    if master_seed < 0:
        raise ParameterError(f"seed {master_seed} must be >= 0")
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))


# Largest block of slots sampled at once: one commit, one run of an attack
# on Bob's side, or one sequence of Alice's. A commit with its verification
# holds the most per slot, about 8 bytes by tracemalloc, so this cap keeps
# a block under 35 MB; larger requests are refused before anything is
# allocated. The block, not the report: a commit's report lists every
# sequence, so `commit --m 2097152 --n 2` peaks at about 113 MB RSS. The
# attacks hold counts, not slots: Bob's runs one D2 count per sequence (at
# most 8.5 bytes a slot, at n = 2), the intercept attacks three click
# counts per law.
MAX_ITEM_SLOTS = 1 << 22

# Most Monte Carlo draws one call may make: 2 * trials slots for table1,
# runs * m D2 counts for bob-bs and bob-multiphoton, and alter trials for
# the intercept attacks and alice-alter. bob-polarization is not limited:
# its runs share one multinomial draw. Memory stays bounded at any count,
# but time does not, so a larger request is refused before anything is
# drawn. The slowest paths, the alter trials of the intercept attacks and
# alice-alter, take 7 to 10 s at this limit, bob-bs and bob-multiphoton
# 2 to 3 s and table1 0.3 s (2 CPUs, Python 3.11).
MAX_CALL_DRAWS = 1 << 25

INT64_MAX = (1 << 63) - 1   # numpy's counts, bounds and seeds are int64

# Slots (or counts: three per slot class in an intercept alter trial, one D2
# count per sequence in a Bob run) one Monte Carlo chunk may hold. Batched
# samplers draw whole chunks one after another from the caller's Generator,
# so a run's draws depend on this size; it is fixed, so equal seeds still
# give equal results.
_CHUNK_SLOTS = 1 << 16


def _uniform_bytes(rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` uniform uint8 values, eight from each full-range 64-bit word
    (a uint8 draw costs about 2.5 times as much). Byte i of word w is
    (w >> 8i) & 0xFF on every machine, whatever its byte order."""
    import numpy as np
    words = rng.integers(0, 1 << 64, (size + 7) // 8, dtype=np.uint64)
    return words.astype("<u8", copy=False).view(np.uint8)[:size]


def check_item_slots(slots: int) -> None:
    """Refuse a block (a commit, a run or a sequence) of more than
    MAX_ITEM_SLOTS slots."""
    if slots > MAX_ITEM_SLOTS:
        raise ParameterError(
            f"{slots} slots in one block exceed the limit of "
            f"{MAX_ITEM_SLOTS}")


def check_draws(draws: int) -> None:
    """Refuse a call of more than MAX_CALL_DRAWS Monte Carlo draws."""
    if draws > MAX_CALL_DRAWS:
        raise ParameterError(
            f"{draws} Monte Carlo draws in one call exceed the limit of "
            f"{MAX_CALL_DRAWS}")


def check_int64(total: int, what: str) -> None:
    """Refuse a total of `what` (clicks, slots) past an int64 count."""
    if total > INT64_MAX:
        raise ParameterError(
            f"{total} {what} in total exceed the int64 limit of 2^63 - 1")


def _chunks(items: int, slots_per_item: int) -> Iterator[int]:
    """Sizes of consecutive chunks covering `items` items (trials, runs or
    samples) of `slots_per_item` slots each: at most _CHUNK_SLOTS slots a
    chunk, but never less than one item. An item of more than
    MAX_ITEM_SLOTS slots is a ParameterError."""
    check_item_slots(slots_per_item)
    per_chunk = max(1, _CHUNK_SLOTS // slots_per_item)
    for start in range(0, items, per_chunk):
        yield min(per_chunk, items - start)
