"""Seeded random generation of Berge-C4-free test instances."""

from __future__ import annotations

import random
from math import ceil, log
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
    rows, rows[a] the mask of the b for which {a, b} closes.  While a draw
    is made, each vertex's bit is ORed into its mask and its row into
    `near`, and the draw is rejected when near meets the mask.  That is
    exact because the closing pairs are symmetric and no row a holds bit a.
    A spread (bit v*n per vertex v) is built only for a kept draw.

    The draws call rng.getrandbits only, in CPython's randrange and sample
    algorithm (each index rejection-sampled at its bound's bit length; the
    pool swap when n is at most sample's set-size threshold for the draw's
    size, else redraws past the vertices already taken).  So for a
    random.Random each draw is, vertex for vertex, the one
    rng.randint(*size_range) then rng.sample(range(n), size) would make,
    and rng is left in the same state.  At corpus sizes the draws are about
    half of a call, _closing_pairs a fifth and the row fold an eighth.
    Deterministic for a fixed seed.
    """
    lo, hi = size_range
    if not 2 <= lo <= hi <= n:
        raise ValueError(f"need 2 <= lo <= hi <= n, got {size_range} with n={n}")
    if isinstance(rng, int):
        rng = random.Random(rng)
    getrandbits = rng.getrandbits
    width = hi - lo + 1
    width_bits = width.bit_length()
    n_bits = n.bit_length()
    bits_below = [m.bit_length() for m in range(n + 1)]
    # sample's branch per size: the pool swap when an n-list is smaller
    # than a size-k set (CPython's setsize), else redraws past the vertices
    # already taken, which mask holds.
    pooled = [n <= 21 + (4 ** ceil(log(k * 3, 4)) if k > 5 else 0) for k in range(hi + 1)]
    population = list(range(n))
    bit = [1 << v for v in population]
    full = (1 << n) - 1
    kept: list[list[int]] = []
    masks: list[int] = []
    spreads: list[int] = []
    rows = [0] * n
    for _ in range(trials):
        r = getrandbits(width_bits)
        while r >= width:
            r = getrandbits(width_bits)
        size = lo + r
        candidate = []
        mask = near = 0
        if pooled[size]:
            pool = population[:]
            for m in range(n, n - size, -1):
                k = bits_below[m]
                j = getrandbits(k)
                while j >= m:
                    j = getrandbits(k)
                v = pool[j]
                pool[j] = pool[m - 1]
                candidate.append(v)
                mask |= bit[v]
                near |= rows[v]
        else:
            for _ in range(size):
                v = getrandbits(n_bits)
                while v >= n or mask >> v & 1:
                    v = getrandbits(n_bits)
                candidate.append(v)
                mask |= bit[v]
                near |= rows[v]
        if near & mask:
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
