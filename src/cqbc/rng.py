"""Deterministic random substream derivation.

Every stochastic routine in the package takes an explicit numpy Generator.
Substreams are derived from a master seed plus an integer path, so any
sequence/slot/photon is replayable in isolation and independent runs can be
executed in parallel without shared state.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import ParameterError

# Fixed documented default seed for CLI reproducibility.
DEFAULT_SEED = 1


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent Generator keyed by (master_seed, *path).

    The path is an arbitrary tuple of non-negative integers, e.g.
    (sequence index, slot index, photon index).
    """
    return np.random.default_rng(np.random.SeedSequence((master_seed, *path)))


# Largest block of slots sampled at once: one commit, one run of an attack
# on Bob's side, or one sequence of Alice's. The intercept attacks hold the
# most per slot, about 45 bytes by tracemalloc, so this cap keeps a block
# under 200 MB; larger requests are refused before anything is allocated.
MAX_ITEM_SLOTS = 1 << 22

# Slots one Monte Carlo chunk may hold. Batched samplers draw whole chunks
# one after another from the caller's Generator, so a run's draws depend on
# this size; it is fixed, so equal seeds still give equal results.
_CHUNK_SLOTS = 1 << 16


def _chunks(items: int, slots_per_item: int) -> Iterator[int]:
    """Sizes of consecutive chunks covering `items` items (trials, runs or
    samples) of `slots_per_item` slots each: at most _CHUNK_SLOTS slots a
    chunk, but never less than one item. An item of more than
    MAX_ITEM_SLOTS slots is a ParameterError."""
    if slots_per_item > MAX_ITEM_SLOTS:
        raise ParameterError(
            f"{slots_per_item} slots in one run or sequence exceed the limit "
            f"of {MAX_ITEM_SLOTS}")
    per_chunk = max(1, _CHUNK_SLOTS // slots_per_item)
    for start in range(0, items, per_chunk):
        yield min(per_chunk, items - start)
