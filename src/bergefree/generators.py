"""Seeded random generation of Berge-C4-free test instances."""

from __future__ import annotations

import random
from typing import Union

from .core import Hypergraph
from .berge import _closing_pairs


def random_greedy_hypergraph(
    n: int,
    size_range: tuple[int, int] = (4, 8),
    trials: int = 120,
    rng: Union[int, random.Random] = 0,
) -> Hypergraph:
    """Greedy random Berge-C4-free multihypergraph on n vertices.

    Draws `trials` candidate hyperedges (size uniform in size_range,
    vertices a uniform sample) and keeps each one that leaves the running
    hypergraph Berge-C4-free: no two of its vertices may form a closing
    pair of the kept hyperedges (berge._closing_pairs of their vertex masks
    and spreads).  Each keep folds its new pairs, n bits at a time, into n
    rows, rows[a] the mask of the b for which {a, b} closes, and a draw is
    rejected when the row of one of its vertices meets its vertex mask.
    That is exact because the closing pairs are symmetric and no row a
    holds bit a.  A spread (bit v*n per vertex v) is built only for a kept
    draw.  At corpus sizes about 60% of a call is the stdlib draws (randint
    and sample), which the seed fixes.  Deterministic for a fixed seed.
    """
    lo, hi = size_range
    if not 2 <= lo <= hi <= n:
        raise ValueError(f"need 2 <= lo <= hi <= n, got {size_range} with n={n}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    population = list(range(n))  # sample checks, copies and indexes a list faster
    bit = [1 << v for v in population]
    full = (1 << n) - 1
    kept: list[list[int]] = []
    masks: list[int] = []
    spreads: list[int] = []
    rows = [0] * n
    for _ in range(trials):
        size = rng.randint(lo, hi)
        candidate = rng.sample(population, size)
        mask = sum(map(bit.__getitem__, candidate))
        if any(map(mask.__and__, map(rows.__getitem__, candidate))):
            continue
        kept.append(candidate)
        masks.append(mask)
        spreads.append(sum(1 << (v * n) for v in candidate))
        pairs = _closing_pairs(masks, spreads, n)
        a = 0
        while pairs:
            rows[a] |= pairs & full
            pairs >>= n
            a += 1
    return Hypergraph(n, kept)
