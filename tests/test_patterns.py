"""K_{s,t} detection against brute-force oracles, and the directed patterns
F1 and F2 under the brute-force matcher."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergefree as bf
from conftest import graphs
from bergefree.patterns import _check_kst_witness, _kst_in_rows, _partners
from oracles import (
    F1,
    F2,
    Arcs,
    Pattern,
    first_kst_by_neighbor_sets,
    has_kst_by_enumeration,
    has_pattern_by_enumeration,
    kst_by_subset_enumeration,
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


def _seeded_rows(rng):
    """Symmetric rows on a sparse ascending label set: a random graph with
    K_{2,7}, K_{5,5} or K_{6,8} planted, or nothing.  A planted part larger
    than s leaves several S with a witness, which ties their candidates."""
    labels = sorted(rng.sample(range(40), rng.randint(6, 17)))
    rows = dict.fromkeys(labels, 0)

    def join(a, b):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    density = rng.choice((0.1, 0.3, 0.5))
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if rng.random() < density:
                join(a, b)
    plant = rng.choice((None, (2, 7), (5, 5), (6, 8)))
    if plant is not None and len(labels) >= sum(plant):
        picked = rng.sample(labels, sum(plant))
        for a in picked[:plant[0]]:
            for b in picked[plant[0]:]:
                join(a, b)
    return rows, sum(map(int.bit_count, rows.values())) // 2


def test_ladder_matches_subset_enumeration_on_seeded_rows():
    rng = random.Random(2707)
    found = Counter()
    for _ in range(120):
        rows, edge_count = _seeded_rows(rng)
        for s in range(1, 6):
            for t in range(s, 8):
                want = kst_by_subset_enumeration(rows, edge_count, s, t)
                assert _kst_in_rows(rows, edge_count, s, t) == want, (rows, s, t)
                found[s, t] += want is not None
    # every (s, t) pair found a witness, and from s = 2 on missed one too
    assert all(found[s, t] for s in range(1, 6) for t in range(s, 8))
    assert all(found[s, t] < 120 for s in range(2, 6) for t in range(s, 8))


def test_ladder_top_rung_is_the_vertices_with_t_common_neighbours():
    rng = random.Random(27)
    for _ in range(60):
        rows, _ = _seeded_rows(rng)
        for t in range(1, 8):
            for x, row in rows.items():
                within = sum(1 << y for y in rows if y > x)
                want = sum(1 << y for y in rows
                           if y > x and (row & rows[y]).bit_count() >= t)
                assert _partners(rows, row, within, t) == want


def test_ladder_keeps_the_first_of_tied_witnesses():
    # vertices 0..5 all see 6..13 (K_{6,8}); any s of them is a witness, and
    # the first in order is 0..s-1 with T = 6..6+t-1
    g = bf.Graph(14, frozenset((a, b) for a in range(6) for b in range(6, 14)))
    for s in range(1, 6):
        for t in range(s, 8):
            want = (tuple(range(s)), tuple(range(6, 6 + t)))
            assert bf.contains_kst(g, s, t) == want
    # 0 and 1 are joined too: S = (0, 1) loses neither, and S = (0, 6)
    # (0 and 6 share 1..5) comes after it
    g = bf.Graph(14, g.edges | {(0, 1)})
    assert bf.contains_kst(g, 2, 7) == ((0, 1), tuple(range(6, 13)))


def test_ladder_and_subset_enumeration_agree_on_relabelled_blowups():
    for q in (3, 5, 7):
        h = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
        rng = random.Random(q)
        image = rng.sample(range(h.n), h.n)
        h = bf.Hypergraph(h.n, tuple(frozenset(image[v] for v in e) for e in h.hyperedges))
        proj = bf.build_embedded_graph(h).simple_projection
        rows = dict(enumerate(proj.adjacency_masks))
        for s, t in ((1, 7), (2, 7), (2, 3)):
            assert bf.contains_kst(proj, s, t) == \
                kst_by_subset_enumeration(rows, len(proj.edges), s, t)


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
