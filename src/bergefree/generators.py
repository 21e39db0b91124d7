"""Seeded random generation of Berge-C4-free test instances."""

from __future__ import annotations

import random
from typing import Union

from .core import Hypergraph
from .berge import _closes_c4
from .search import SearchState


def random_greedy_hypergraph(
    n: int,
    size_range: tuple[int, int] = (4, 8),
    trials: int = 120,
    rng: Union[int, random.Random] = 0,
) -> Hypergraph:
    """Greedy random Berge-C4-free multihypergraph on n vertices.

    Draws `trials` candidate hyperedges (size uniform in size_range,
    vertices a uniform sample) and keeps each one that leaves the running
    hypergraph Berge-C4-free.  Deterministic for a fixed seed.
    """
    lo, hi = size_range
    if not 2 <= lo <= hi <= n:
        raise ValueError(f"need 2 <= lo <= hi <= n, got {size_range} with n={n}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    state = SearchState(n)
    for _ in range(trials):
        size = rng.randint(lo, hi)
        candidate = frozenset(rng.sample(range(n), size))
        if not _closes_c4(state, sorted(candidate), -1):
            state.push(candidate)
    return state.to_hypergraph()
