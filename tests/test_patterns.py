"""K_{s,t} detection against brute-force oracles, and the directed patterns
F1 and F2 under the brute-force matcher."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergefree as bf
from conftest import graphs
from bergefree.patterns import _check_kst_witness
from oracles import (
    F1,
    F2,
    Arcs,
    Pattern,
    first_kst_by_neighbor_sets,
    has_kst_by_enumeration,
    has_pattern_by_enumeration,
)


def complete_bipartite(s: int, t: int) -> bf.Graph:
    return bf.Graph(s + t, frozenset((i, s + j) for i in range(s) for j in range(t)))


def test_k27_found_in_complete_bipartite():
    found = bf.contains_kst(complete_bipartite(2, 7), 2, 7)
    assert found is not None
    s_side, t_side = found
    assert len(s_side) == 2 and len(t_side) == 7
    assert not set(s_side) & set(t_side)


def test_star_has_no_k27():
    star = bf.Graph(8, frozenset((0, v) for v in range(1, 8)))
    assert bf.contains_kst(star, 2, 7) is None
    assert bf.contains_kst(star, 1, 7) is not None


def test_kst_rejects_bad_sides():
    g = bf.Graph(3)
    with pytest.raises(ValueError):
        bf.contains_kst(g, 0, 2)
    with pytest.raises(ValueError):
        bf.contains_kst(g, 3, 2)


@settings(max_examples=150)
@given(graphs(max_n=9), st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]))
def test_kst_agrees_with_subset_enumeration(g, sides):
    s, t = sides
    found = bf.contains_kst(g, s, t)
    assert (found is not None) == has_kst_by_enumeration(g, s, t)
    assert found == first_kst_by_neighbor_sets(g, s, t)


def test_kst_agrees_with_enumeration_at_verifier_sides():
    # the two freeness checks the verifiers rely on, at n = 12
    rng = random.Random(612)
    for _ in range(40):
        n = 12
        density = rng.choice((0.2, 0.5, 0.8))
        edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < density)
        g = bf.Graph(n, edges)
        for s, t in ((2, 7), (5, 5)):
            found = bf.contains_kst(g, s, t)
            assert (found is not None) == has_kst_by_enumeration(g, s, t)
            assert found == first_kst_by_neighbor_sets(g, s, t)


def test_kst_checks_the_witness_it_returns(monkeypatch):
    checked = []
    monkeypatch.setattr(bf.patterns, "_check_kst_witness",
                        lambda rows, witness: checked.append(witness))
    found = bf.contains_kst(complete_bipartite(2, 7), 2, 7)
    assert checked == [found]


def test_kst_witness_check_refuses_a_missing_pair_or_an_overlap():
    rows = {0: 0b110, 1: 0b001, 2: 0b001}  # the star 0-1, 0-2
    _check_kst_witness(rows, ((0,), (1, 2)))
    with pytest.raises(AssertionError, match=r"pair \(1,2\) is not an edge"):
        _check_kst_witness(rows, ((1,), (2,)))
    with pytest.raises(AssertionError, match="overlap"):
        _check_kst_witness(rows, ((0,), (0, 1)))


@settings(max_examples=100)
@given(graphs(max_n=8), st.data())
def test_kst_monotone_under_edge_addition(g, data):
    if g.n < 2:
        return
    if bf.contains_kst(g, 2, 2) is None:
        return
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    extra = data.draw(st.sampled_from(pairs))
    bigger = bf.Graph(g.n, g.edges | {extra})
    assert bf.contains_kst(bigger, 2, 2) is not None


def _digraph_from_pattern(pattern: Pattern) -> Arcs:
    index = {label: i for i, label in enumerate(pattern.vertices)}
    return Arcs(len(pattern.vertices),
                frozenset((index[a], index[b]) for a, b in pattern.arcs))


def _max_in_degree(d: Arcs) -> int:
    return max(sum(1 for _, head in d.arcs if head == v) for v in range(d.n))


# F1 and F2 are matched by the brute-force oracle the K_{3,3} endgame test
# relies on; these pin the patterns and the oracle on known answers.

@pytest.mark.parametrize("pattern", [F1, F2], ids=lambda p: p.name)
def test_pattern_found_in_its_own_arc_set(pattern):
    d = _digraph_from_pattern(pattern)
    assert has_pattern_by_enumeration(d, pattern)
    smaller = Arcs(d.n, frozenset(sorted(d.arcs)[1:]))
    assert not has_pattern_by_enumeration(smaller, pattern)


def test_reversed_f1_contains_no_f1():
    d = _digraph_from_pattern(F1)
    reversed_d = Arcs(d.n, frozenset((b, a) for a, b in d.arcs))
    # reversing kills the in-degree-2 vertex F1 needs
    assert _max_in_degree(reversed_d) < 2
    assert not has_pattern_by_enumeration(reversed_d, F1)


def test_f1_and_f2_definitions_match_claimed_arcs():
    assert set(F1.arcs) == {("y", "x"), ("z", "x"), ("w", "z")}
    assert set(F2.arcs) == {("y", "x"), ("z", "x"), ("z", "w"), ("u", "w")}


def _random_tournament(n: int, rng: random.Random) -> Arcs:
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            arcs.add((i, j) if rng.random() < 0.5 else (j, i))
    return Arcs(n, frozenset(arcs))


def test_f1_containment_implies_in_degree_two():
    rng = random.Random(99)
    hits = 0
    for _ in range(40):
        d = _random_tournament(rng.randint(4, 7), rng)
        if has_pattern_by_enumeration(d, F1):
            hits += 1
            assert _max_in_degree(d) >= 2
    assert hits > 0  # the property was actually exercised
