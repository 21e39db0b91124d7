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
    hypergraph Berge-C4-free: none of its pairs a != b may hold bit a*n + b
    of the kept hyperedges' closing-pair mask (berge._closing_pairs of
    their vertex masks and spreads), which grows after each keep.  A draw
    is tested with one product, spread * mask & closing: spread * mask
    sets bit a*n + b for every a and b of the draw, a = b too.  That is
    exact because the closing mask is symmetric (a*n + b with b*n + a) and
    its diagonal bits a*n + a are clear.  Deterministic for a fixed seed.
    """
    lo, hi = size_range
    if not 2 <= lo <= hi <= n:
        raise ValueError(f"need 2 <= lo <= hi <= n, got {size_range} with n={n}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    population = range(n)
    bit = [1 << v for v in population]
    kept: list[list[int]] = []
    masks: list[int] = []
    spreads: list[int] = []
    closing = 0
    for _ in range(trials):
        size = rng.randint(lo, hi)
        candidate = rng.sample(population, size)
        mask = sum(map(bit.__getitem__, candidate))
        spread = sum(1 << (v * n) for v in candidate)
        if spread * mask & closing:
            continue
        kept.append(candidate)
        masks.append(mask)
        spreads.append(spread)
        closing |= _closing_pairs(masks, spreads, n)
    return Hypergraph(n, kept)
