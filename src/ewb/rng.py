"""Seeded random streams for reproducible experiments.

All randomness in this package flows through Philox4x64, a counter-based
generator: a (seed, stream) pair maps to an independent stream through
numpy's SeedSequence spawn keys, and draws at a fixed position in a stream
are a pure function of (seed, stream, position).  This is what makes
Monte-Carlo results independent of execution schedule.
Each kind of draw has its own stream, so equal seeds never share draws:
random_frame's entries use stream 0 and keep_masks stream 1.
"""

from __future__ import annotations

import numpy as np

from ._checks import integer, within

GENERATOR_NAME = "philox4x64"

# keep_masks draws its uniforms this many rows at a time, so the float64
# buffer is _MASK_BLOCK_ROWS x n however many trials are asked for
_MASK_BLOCK_ROWS = 128


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for the seed and stream, integers >= 0 (_checks.integer)."""
    seed, stream = integer(seed, "seed", 0), integer(stream, "stream", 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seed=ss))


def keep_masks(seed: int, trials: int, n: int, p: float) -> np.ndarray:
    """(trials, n) boolean keep patterns, entries i.i.d. Bernoulli(p).

    Row i consumes exactly the draws [i*n, (i+1)*n) of the Philox counter,
    so the mask of trial i depends only on (seed, i) and not on how many
    trials are requested or in what order they are consumed.  The draws are
    made in blocks of _MASK_BLOCK_ROWS rows; the stream continues across
    blocks, so the bytes equal those of one draw of all rows.  Every p in
    [0, 1] takes that draw: a uniform lies in [0, 1), so p = 0 keeps nothing
    and p = 1 keeps everything.  A p outside [0, 1], NaN included, raises
    ValueError, as do trials and n that are not integers >= 1.
    """
    trials, n = integer(trials, "trials"), integer(n, "n")
    within(p, "keep probability", 0.0, 1.0)
    rng = make_rng(seed, stream=1)
    masks = np.empty((trials, n), dtype=bool)
    for start in range(0, trials, _MASK_BLOCK_ROWS):
        block = masks[start : start + _MASK_BLOCK_ROWS]
        np.less(rng.random(block.shape), p, out=block)
    return masks
