"""Random greedy instance generation."""

import tracemalloc

import pytest

import bergefree as bf


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


def test_greedy_memory_grows_with_the_kept_hyperedges_not_with_n_cubed():
    """A draw's spread has bit v*n per vertex v, n^2 bits wide; the
    generator holds one per kept hyperedge and a few more n^2-bit ints,
    never a spread for every vertex (n^3 / 2 bits, 62 MB at n = 1,000)."""
    n = 1000
    tracemalloc.start()
    try:
        h = bf.random_greedy_hypergraph(n, (4, 8), trials=4, rng=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.n == n and len(h.hyperedges) == 4
    assert peak < 32 * n * n // 8  # 32 bits per vertex pair
