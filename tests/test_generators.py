"""Random greedy instance generation."""

import random
import tracemalloc

import pytest

import bergefree as bf
from bergefree.core import dumps_canonical
from oracles import greedy_by_spread_product


def test_greedy_instances_are_berge_c4_free():
    for seed in range(8):
        h = bf.random_greedy_hypergraph(20, (4, 6), trials=60, rng=seed)
        assert bf.is_berge_c4_free(h)
        assert all(4 <= len(e) <= 6 for e in h.hyperedges)
        assert h.n == 20


def test_greedy_is_deterministic_per_seed():
    a = bf.random_greedy_hypergraph(15, (4, 5), trials=40, rng=7)
    b = bf.random_greedy_hypergraph(15, (4, 5), trials=40, rng=7)
    c = bf.random_greedy_hypergraph(15, (4, 5), trials=40, rng=8)
    assert a == b
    assert a != c  # overwhelmingly likely; fixed seeds keep it stable


def test_greedy_accepts_nothing_with_zero_trials():
    h = bf.random_greedy_hypergraph(10, (4, 6), trials=0, rng=0)
    assert h.hyperedges == ()


def test_greedy_rejects_bad_size_range():
    with pytest.raises(ValueError):
        bf.random_greedy_hypergraph(5, (4, 8), trials=1, rng=0)
    with pytest.raises(ValueError):
        bf.random_greedy_hypergraph(10, (6, 4), trials=1, rng=0)


SPREAD_PRODUCT_CASES = {
    # The benchmark corpus: n = 20..60, sizes 4..8, 150 trials.
    "corpus": [(n, (4, 8), 150, n) for n in range(20, 61)],
    # One row of one bit each: every draw is the pair {0, 1}, in either order.
    "n2": [(2, (2, 2), 20, seed) for seed in range(10)],
    # Every draw is the whole vertex set, so its vertices read every row.
    # Below four vertices nothing closes, so every draw is kept and each
    # keep walks all the earlier ones: 30 trials keep the case fast.
    "whole": [(n, (n, n), 30, seed) for n in range(3, 13) for seed in range(5)],
    # Pairs and triples on few vertices: many keeps, rows filled densely.
    "pairs_triples": [(n, (2, 3), 40, seed) for n in range(3, 13) for seed in range(5)],
}


@pytest.mark.parametrize("case", SPREAD_PRODUCT_CASES)
def test_greedy_generator_matches_spread_product_oracle(case):
    """Testing each draw against the per-vertex closing rows keeps exactly
    what one product against one n^2-bit closing mask keeps, byte for
    byte, on the corpus parameters and on the small n where the rows hold
    the fewest bits and the draws cover the most of them."""
    for n, size_range, trials, seed in SPREAD_PRODUCT_CASES[case]:
        expected = greedy_by_spread_product(n, size_range, trials, random.Random(seed))
        got = bf.random_greedy_hypergraph(n, size_range, trials=trials, rng=seed)
        assert got == expected, (n, size_range, seed)
        assert dumps_canonical(got.to_json_dict()) == dumps_canonical(expected.to_json_dict())


# (n, size_range, trials) around each branch of the stdlib's draws.  sample
# swaps through a pool when n <= setsize, else redraws into a set: setsize is
# 21 for sizes up to 5 and 85 for sizes 6..8.  randint redraws getrandbits
# at the width's bit length, so a width of 4 (a power of two) rejects half
# its draws and a width of 5 three eighths.
STDLIB_DRAW_CASES = {
    "pool_n21": (21, (2, 5), 60),
    "set_n22": (22, (2, 5), 60),
    "pool_size6_n85": (85, (6, 6), 40),
    "set_size6_n86": (86, (6, 6), 40),
    "lo_eq_hi": (30, (5, 5), 40),
    "width4": (40, (4, 7), 60),
    "width5": (40, (4, 8), 60),
    "three_trials": (50, (2, 50), 3),  # three draws are always kept
    "no_trials": (30, (4, 8), 0),
}


@pytest.mark.parametrize("case", STDLIB_DRAW_CASES)
def test_greedy_draws_equal_randint_and_sample(case):
    """The generator draws from rng.getrandbits alone, but keeps the rows a
    twin random.Random drawing with randint + sample keeps, and leaves the
    rng it was passed in the twin's state: the same getrandbits calls, in
    the same order."""
    n, size_range, trials = STDLIB_DRAW_CASES[case]
    for seed in range(6):
        rng, twin = random.Random(seed), random.Random(seed)
        got = bf.random_greedy_hypergraph(n, size_range, trials=trials, rng=rng)
        expected = greedy_by_spread_product(n, size_range, trials, twin)
        assert got.hyperedges == expected.hyperedges, (case, seed)
        assert rng.getstate() == twin.getstate(), (case, seed)
        assert got == bf.random_greedy_hypergraph(n, size_range, trials=trials, rng=seed)


def test_greedy_memory_grows_with_the_kept_hyperedges_not_with_n_cubed():
    """The generator holds n rows of n bits (the closing pairs), plus one
    vertex mask and one n^2-bit spread (bit v*n per vertex v) per kept
    hyperedge, never a spread for every vertex (n^3 / 2 bits, 62 MB at
    n = 1,000)."""
    n = 1000
    tracemalloc.start()
    try:
        h = bf.random_greedy_hypergraph(n, (4, 8), trials=4, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.n == n and len(h.hyperedges) == 4
    assert peak < 32 * n * n // 8  # 32 bits per vertex pair
