"""Seeded operation plans: which frame each timed operation touches, and how.

Plans are stratified: every block holds the same count of each operation
kind (and, for ``serve``, of each hot/cold × kind pair), shuffled by the
seed.  A seed therefore changes the order and the keys, never the mix, so
the mix cannot move a metric from one run to the next.  Keys cycle through
seeded permutations, so every frame is touched equally often.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

#: Per ``retrieve`` block: one full decode to three scale-2 previews.
RETRIEVE_BLOCK = (("decode", 1), ("preview", 3))

#: Per 100 ``serve`` requests: (hot?, kind, count).  70 % go to the hot
#: subset and 30 % to the cold remainder; within each, 60 % full GETs,
#: 30 % scale-2 previews and 10 % ``Range:`` slices.
SERVE_BLOCK = (
    (True, "full", 42),
    (True, "preview", 21),
    (True, "slice", 7),
    (False, "full", 18),
    (False, "preview", 9),
    (False, "slice", 3),
)


def _keys(rng: random.Random, population: Sequence[int]) -> Iterator[int]:
    while True:
        order = list(population)
        rng.shuffle(order)
        yield from order


def retrieve_plan(seed: int, frames: int, blocks: int) -> List[Tuple[str, int]]:
    """``blocks`` × 4 operations ``(kind, frame index)``."""
    rng = random.Random(f"retrieve-{seed}")
    keys = _keys(rng, range(frames))
    plan: List[Tuple[str, int]] = []
    for _ in range(blocks):
        block = [kind for kind, count in RETRIEVE_BLOCK for _ in range(count)]
        rng.shuffle(block)
        plan.extend((kind, next(keys)) for kind in block)
    return plan


def serve_plan(
    seed: int, frames: int, hot: int, blocks: int
) -> List[Tuple[str, int, float]]:
    """``blocks`` × 100 requests ``(kind, frame index, u)``.

    Frames ``[0, hot)`` are the hot subset.  ``u`` in ``[0, 1)`` places a
    ``Range:`` window inside the frame's payload (unused by other kinds).
    """
    rng = random.Random(f"serve-{seed}")
    hot_keys = _keys(rng, range(hot))
    cold_keys = _keys(rng, range(hot, frames))
    plan: List[Tuple[str, int, float]] = []
    for _ in range(blocks):
        block = [
            (is_hot, kind) for is_hot, kind, count in SERVE_BLOCK for _ in range(count)
        ]
        rng.shuffle(block)
        plan.extend(
            (kind, next(hot_keys if is_hot else cold_keys), rng.random())
            for is_hot, kind in block
        )
    return plan
