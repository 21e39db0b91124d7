"""Core types, statistics, and JSON interchange."""

import json
import random
from collections import namedtuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bergefree as bf
from bergefree.berge import _twin_classes, _vertex_ids
from conftest import graphs, hypergraphs
from oracles import (
    _vertex_rows,
    bfs_neighborhoods,
    build_aux_bundle,
    colored_edges_by_loop,
    colors_of,
    degree_stats,
    graph_edges_by_loop,
    shadow_by_scan,
)


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def test_weight_empty_hypergraph():
    assert bf.weight(bf.Hypergraph(0)) == 0
    assert bf.weight(bf.Hypergraph(5)) == 0


def test_weight_single_four_set():
    assert bf.weight(bf.Hypergraph(4, ({0, 1, 2, 3},))) == 1


def test_weight_heawood_blowup(heawood_blowup):
    # naive summation oracle: 21 hyperedges of size 6
    assert len(heawood_blowup) == 21
    assert all(len(h) == 6 for h in heawood_blowup.hyperedges)
    naive = sum(len(h) for h in heawood_blowup.hyperedges) - 3 * len(heawood_blowup)
    assert bf.weight(heawood_blowup) == naive == 63


def test_weight_can_be_negative():
    assert bf.weight(bf.Hypergraph(3, ({0, 1},))) == -1


@given(hypergraphs(min_size=3))
def test_weight_equals_clamped_sum_for_big_hyperedges(h):
    if any(len(e) < 3 for e in h.hyperedges):  # tiny n clamps the strategy
        return
    assert bf.weight(h) == sum(max(0, len(e) - 3) for e in h.hyperedges)


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------

def neighborhoods(graph, v):
    """N1(v) and N2(v) off the whole rows around v (oracles._vertex_rows)."""
    rows = _vertex_rows(dict(enumerate(graph.adjacency_masks)), v)
    return frozenset(rows.g), frozenset(rows.sides)


def test_neighborhoods_path():
    path = bf.Graph(3, frozenset({(0, 1), (1, 2)}))
    assert neighborhoods(path, 0) == (frozenset({1}), frozenset({2}))


def test_neighborhoods_isolated_vertex():
    g = bf.Graph(4, frozenset({(1, 2)}))
    assert neighborhoods(g, 0) == (frozenset(), frozenset())


def test_neighborhoods_out_of_range():
    with pytest.raises(ValueError):
        build_aux_bundle(bf.ColoredGraph(3), 3)


def test_neighborhoods_accepts_colored_graph():
    # the lemma checks measure a colored graph through its simple projection
    cg = bf.ColoredGraph(3, ((0, 1, 0), (1, 2, 1), (0, 1, 2)))
    bundle = build_aux_bundle(cg, 0)
    assert (bundle.n1, bundle.n2) == ((1,), (2,))
    assert neighborhoods(cg.simple_projection, 0) == (frozenset({1}), frozenset({2}))


@given(graphs(), st.data())
def test_neighborhoods_match_bfs_distance_classes(g, data):
    if g.n == 0:
        return
    v = data.draw(st.integers(0, g.n - 1))
    n1, n2 = neighborhoods(g, v)
    assert (n1, n2) == bfs_neighborhoods(g, v)
    assert not n1 & n2
    assert v not in n1 | n2


# ---------------------------------------------------------------------------
# shadow: the detector's shadow adjacency, read off the twin classes
# ---------------------------------------------------------------------------

def shadow_edges(hypergraph):
    """The shadow adjacency the closed walk reads, on the twin classes: u
    and v != u are adjacent when bit of_vertex[v] of adj[of_vertex[u]] is
    set (twins through the class's loop bit)."""
    classes = _twin_classes(hypergraph, _vertex_ids(hypergraph))
    adj, of_vertex = classes.adj, classes.of_vertex
    return frozenset((u, v) for u in range(hypergraph.n) for v in range(u + 1, hypergraph.n)
                     if of_vertex[u] >= 0 and of_vertex[v] >= 0
                     and adj[of_vertex[u]] >> of_vertex[v] & 1)


def test_shadow_single_hyperedge_is_clique():
    edges = shadow_edges(bf.Hypergraph(3, ({0, 1, 2},)))
    assert edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_shadow_disjoint_hyperedges():
    edges = shadow_edges(bf.Hypergraph(4, ({0, 1}, {2, 3})))
    assert edges == frozenset({(0, 1), (2, 3)})


@given(hypergraphs())
def test_shadow_matches_pair_scan(h):
    assert shadow_edges(h) == frozenset(shadow_by_scan(h))


@given(hypergraphs(max_n=6), st.sets(st.integers(0, 5), min_size=2, max_size=4))
def test_shadow_monotone_under_hyperedge_addition(h, extra):
    extra = frozenset(v for v in extra if v < h.n)
    if len(extra) < 2:
        return
    bigger = bf.Hypergraph(h.n, h.hyperedges + (extra,))
    assert shadow_edges(h) <= shadow_edges(bigger)


# ---------------------------------------------------------------------------
# degrees (adjacency masks)
# ---------------------------------------------------------------------------

def test_degree_stats_triangle():
    degrees, avg = degree_stats(bf.Graph(3, frozenset({(0, 1), (1, 2), (0, 2)})))
    assert degrees == [2, 2, 2]
    assert avg == 2.0


def test_degree_stats_single_edge():
    degrees, avg = degree_stats(bf.Graph(2, frozenset({(0, 1)})))
    assert degrees == [1, 1]
    assert avg == 1.0


def test_degree_stats_heawood_is_cubic(heawood_graph):
    degrees, avg = degree_stats(heawood_graph)
    assert set(degrees) == {3}  # q + 1 with q = 2
    assert avg == 3.0


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_hypergraph_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        bf.Hypergraph(3, ({0, 3},))


def _rows_are_sorted_int_tuples(h):
    return type(h.hyperedges) is tuple and all(
        type(row) is tuple and all(isinstance(v, int) for v in row)
        and list(row) == sorted(set(row)) for row in h.hyperedges)


def test_hypergraph_stores_sorted_tuples_of_distinct_vertices():
    h = bf.Hypergraph(6, ({3, 1, 0}, [5, 2, 4], [2, 2, 1, 2], frozenset({4, 0}),
                          range(3), iter([5, 0, 5]), (), (4,)))
    assert h.hyperedges == ((0, 1, 3), (2, 4, 5), (1, 2), (0, 4), (0, 1, 2), (0, 5), (), (4,))
    assert _rows_are_sorted_int_tuples(h)
    loaded = bf.Hypergraph.from_json_dict({"n": 6, "hyperedges": [[5, 0, 3], [1], [], [3, 0, 5]]})
    assert loaded.hyperedges == ((0, 3, 5), (1,), (), (0, 3, 5))
    assert _rows_are_sorted_int_tuples(loaded)


def test_every_builder_stores_sorted_tuples():
    plane = bf.projective_plane_incidence(3)
    built = [
        bf.blow_up(plane.graph(), 3),
        bf.blow_up(bf.Graph(5, frozenset({(3, 1), (0, 4), (2, 1)})), 2),
        bf.lower_bound_construction(100).hypergraph,
        bf.random_greedy_hypergraph(30, (4, 9), 200, rng=5),
        bf.max_weight_exact(6).witness,
        bf.max_weight_exact(6, max_mult=1, first_level_orbit_reps=True).witness,
    ]
    for h in built:
        assert len(h) and _rows_are_sorted_int_tuples(h)


@pytest.mark.parametrize("rows, vertex", [
    ([[2, 5, -1]], 5),       # the first bad vertex as given, not the least
    ([[-1, 2, 5]], -1),
    ([(7, 0, 3)], 7),
    ([{0, 1}, iter([1, 9, 4])], 9),  # a one-shot row is named from its sorted form
])
def test_out_of_range_vertex_is_named_in_given_order(rows, vertex):
    with pytest.raises(ValueError) as caught:
        bf.Hypergraph(3, rows)
    assert str(caught.value) == f"hyperedge {len(rows) - 1} contains vertex {vertex}, out of range for n=3"


def test_hypergraph_allows_duplicate_hyperedges():
    h = bf.Hypergraph(4, ({0, 1, 2}, {0, 1, 2}))
    assert h.hyperedges[0] == h.hyperedges[1]
    assert len(h) == 2


def test_graph_rejects_loops_and_normalizes():
    with pytest.raises(ValueError):
        bf.Graph(3, frozenset({(1, 1)}))
    g = bf.Graph(3, frozenset({(2, 0)}))
    assert g.edges == frozenset({(0, 2)})


def test_colored_graph_rejects_duplicate_pair_color():
    with pytest.raises(ValueError):
        bf.ColoredGraph(3, ((0, 1, 5), (1, 0, 5)))


def test_colored_graph_allows_parallel_distinct_colors():
    cg = bf.ColoredGraph(3, ((0, 1, 0), (0, 1, 1)))
    assert colors_of(cg, 1, 0) == (0, 1)
    assert cg.simple_projection.edges == frozenset({(0, 1)})


# ---------------------------------------------------------------------------
# one checking pass for normal input, the per-edge loop for the rest
# ---------------------------------------------------------------------------

Pair = namedtuple("Pair", "u v")
Triple = namedtuple("Triple", "u v color")


def _outcome(build):
    """What a constructor stores, or the error it raises, as comparable data."""
    try:
        return "stored", build()
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _stored_types(edges):
    return type(edges), {type(e) for e in edges}


COLORED_INPUTS = {
    "loop": ((0, 1, 0), (2, 2, 1)),
    "vertex_out_of_range": ((0, 1, 0), (3, 5, 0)),
    "negative_vertex": ((-1, 2, 0),),
    "negative_color": ((0, 1, 0), (1, 2, -1)),
    "duplicate_after_swap": ((0, 1, 3), (2, 3, 3), (1, 0, 3)),
    "duplicate": ((0, 1, 3), (0, 1, 3)),
    "list_edges": ([0, 1, 0], [1, 2, 0]),
    "list_container": [(0, 1, 0), (1, 2, 0)],
    "named_edges": (Triple(0, 1, 0), Triple(1, 2, 0)),
    "bad_after_good": ((0, 1, 0), (1, 2, 0), (3, 4, 1), (3, 7, 1), (2, 2, 0)),
    "swapped": ((2, 1, 0), (0, 3, 1)),
    "short_edge": ((0, 1, 0), (1, 2)),
    "normal": ((0, 1, 0), (0, 1, 1), (2, 3, 0), (1, 4, 2)),
}

GRAPH_INPUTS = {
    "loop": frozenset({(0, 1), (2, 2)}),
    "vertex_out_of_range": frozenset({(0, 5)}),
    "negative_vertex": frozenset({(-1, 2)}),
    "duplicate_after_swap": frozenset({(0, 1), (1, 0)}),
    "list_edges": [[0, 1], [1, 2]],
    "list_container": [(0, 1), (1, 2)],
    "set_container": {(0, 1), (1, 2)},
    "named_edges": frozenset({Pair(0, 1), Pair(1, 2)}),
    "bad_after_good": [(0, 1), (1, 2), (3, 7), (2, 2)],
    "swapped": frozenset({(2, 1), (0, 3)}),
    "long_edge": frozenset({(0, 1, 2)}),
    "normal": frozenset({(0, 1), (1, 2), (3, 4)}),
}


@pytest.mark.parametrize("name", sorted(COLORED_INPUTS))
def test_colored_graph_stores_or_raises_what_the_per_edge_loop_does(name):
    edges = COLORED_INPUTS[name]
    got = _outcome(lambda: bf.ColoredGraph(5, edges).colored_edges)
    want = _outcome(lambda: colored_edges_by_loop(5, edges))
    assert got == want
    if got[0] == "stored":
        assert _stored_types(got[1]) == _stored_types(want[1]) == (tuple, {tuple})


@pytest.mark.parametrize("name", sorted(GRAPH_INPUTS))
def test_graph_stores_or_raises_what_the_per_edge_loop_does(name):
    edges = GRAPH_INPUTS[name]
    got = _outcome(lambda: bf.Graph(5, edges).edges)
    want = _outcome(lambda: graph_edges_by_loop(5, edges))
    assert got == want
    if got[0] == "stored":
        assert _stored_types(got[1]) == _stored_types(want[1]) == (frozenset, {tuple})


def test_first_bad_edge_names_the_error():
    with pytest.raises(ValueError, match=r"^colored edge \(2,2\) is a loop$"):
        bf.ColoredGraph(5, COLORED_INPUTS["loop"])
    with pytest.raises(ValueError, match=r"^colored edge \(3,7\) out of range for n=5$"):
        bf.ColoredGraph(5, COLORED_INPUTS["bad_after_good"])
    with pytest.raises(ValueError, match=r"^colored edge \(1,2\) has negative color -1$"):
        bf.ColoredGraph(5, COLORED_INPUTS["negative_color"])
    with pytest.raises(ValueError, match=r"^duplicate colored edge \(0,1\) with color 3$"):
        bf.ColoredGraph(5, COLORED_INPUTS["duplicate_after_swap"])
    with pytest.raises(ValueError, match=r"^edge \(3,7\) out of range for n=5$"):
        bf.Graph(5, GRAPH_INPUTS["bad_after_good"])
    with pytest.raises(ValueError, match=r"^edge \(-1,2\) out of range for n=5$"):
        bf.Graph(5, GRAPH_INPUTS["negative_vertex"])


def test_normal_input_is_kept_as_it_stands():
    edges = COLORED_INPUTS["normal"]
    assert bf.ColoredGraph(5, edges).colored_edges is edges
    built = bf.build_embedded_graph(bf.Hypergraph(9, (frozenset(range(9)), {0, 1, 5, 8})))
    assert bf.ColoredGraph(9, built.colored_edges).colored_edges is built.colored_edges


def test_seeded_edge_lists_match_the_per_edge_loop():
    rng = random.Random(1907)
    for _ in range(400):
        n = rng.randint(0, 6)
        colored = tuple((rng.randint(-1, n), rng.randint(-1, n), rng.randint(-1, 3))
                        for _ in range(rng.randint(0, 6)))
        assert _outcome(lambda: bf.ColoredGraph(n, colored).colored_edges) == \
            _outcome(lambda: colored_edges_by_loop(n, colored))
        pairs = frozenset((u, v) for u, v, _ in colored)
        assert _outcome(lambda: bf.Graph(n, pairs).edges) == \
            _outcome(lambda: graph_edges_by_loop(n, pairs))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_hypergraph_json_round_trip(tmp_path):
    h = bf.Hypergraph(6, ({3, 1, 0, 2}, {4, 5}, {3, 1, 0, 2}))
    path = tmp_path / "h.json"
    bf.save_hypergraph(h, str(path))
    again = bf.load_hypergraph(str(path))
    assert again == h
    # canonical writer is byte-stable
    bf.save_hypergraph(again, str(path.with_suffix(".2.json")))
    assert path.read_bytes() == path.with_suffix(".2.json").read_bytes()


def test_relabelled_q7_blowup_text_round_trips_byte_for_byte(tmp_path):
    blown = bf.blow_up(bf.projective_plane_incidence(7).graph(), 3)
    rng = random.Random(7)
    image = rng.sample(range(blown.n + 5), blown.n)
    rows = [sorted(image[v] for v in h) for h in blown.hyperedges]
    rng.shuffle(rows)
    text = json.dumps({"n": blown.n + 5, "hyperedges": rows}, separators=(",", ":")) + "\n"
    path = tmp_path / "q7.json"
    path.write_text(text)
    loaded = bf.load_hypergraph(str(path))
    assert _rows_are_sorted_int_tuples(loaded)
    bf.save_hypergraph(loaded, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_text() == text


def test_hypergraph_json_preserves_hyperedge_order():
    doc = {"n": 4, "hyperedges": [[2, 3], [0, 1]]}
    h = bf.Hypergraph.from_json_dict(doc)
    assert h.hyperedges == ((2, 3), (0, 1))
    assert h.to_json_dict() == {"n": 4, "hyperedges": [[2, 3], [0, 1]]}


@pytest.mark.parametrize("doc", [
    [],
    {"n": 3},
    {"hyperedges": []},
    {"n": "3", "hyperedges": []},
    {"n": 3, "hyperedges": [[0, 0]]},
    {"n": 3, "hyperedges": [[0, 5]]},
    {"n": 3, "hyperedges": [["a"]]},
    {"n": 3, "hyperedges": "nope"},
])
def test_hypergraph_json_rejects_malformed(doc):
    with pytest.raises(bf.FormatError):
        bf.Hypergraph.from_json_dict(doc)


@pytest.mark.parametrize("doc, message", [
    ([], "expected a JSON object, got list"),
    (None, "expected a JSON object, got NoneType"),
    ({"n": 3}, 'hypergraph document needs fields "n" and "hyperedges"'),
    ({"n": "3", "hyperedges": []}, "n: expected an integer, got '3'"),
    ({"n": True, "hyperedges": []}, "n: expected an integer, got True"),
    ({"n": -1, "hyperedges": [[0]]}, "vertex count must be >= 0, got -1"),
    ({"n": 3, "hyperedges": "nope"}, 'field "hyperedges" must be a list of vertex lists'),
    ({"n": 3, "hyperedges": [[0], 5]}, "hyperedges[1]: expected a list of vertices"),
    ({"n": 3, "hyperedges": [[0], [1, "a"]]}, "hyperedges[1][1]: expected an integer, got 'a'"),
    ({"n": 3, "hyperedges": [[0], [1, True]]}, "hyperedges[1][1]: expected an integer, got True"),
    ({"n": 3, "hyperedges": [[0], [1, 2.0]]}, "hyperedges[1][1]: expected an integer, got 2.0"),
    ({"n": 3, "hyperedges": [[0, 1, 0, [1]]]}, "hyperedges[0][3]: expected an integer, got [1]"),
    ({"n": 3, "hyperedges": [[2, 0, 2]]}, "hyperedges[0]: repeated vertex in [2, 0, 2]"),
    # rows are checked in order, and the range only after every row
    ({"n": 3, "hyperedges": [[0, 0], [0, "a"]]}, "hyperedges[0]: repeated vertex in [0, 0]"),
    ({"n": 3, "hyperedges": [[0, 5], [0, "a"]]}, "hyperedges[1][1]: expected an integer, got 'a'"),
    ({"n": 3, "hyperedges": [[0, 1], [2, 5, -1]]},
     "hyperedge 1 contains vertex 5, out of range for n=3"),
    ({"n": 3, "hyperedges": [[0, 1], [-1, 2]]},
     "hyperedge 1 contains vertex -1, out of range for n=3"),
    ({"n": 40, "hyperedges": [[0, 1], [39, 40, 33, 41, 7]]},
     "hyperedge 1 contains vertex 40, out of range for n=40"),
    # a repeated vertex in a later row is named before an earlier row's range error
    ({"n": 3, "hyperedges": [[0, 5], [1, 2, 1]]}, "hyperedges[1]: repeated vertex in [1, 2, 1]"),
])
def test_hypergraph_json_error_texts_are_pinned(doc, message):
    with pytest.raises(bf.FormatError) as caught:
        bf.Hypergraph.from_json_dict(doc)
    assert str(caught.value) == message


def test_hypergraph_json_accepts_int_subclasses():
    class Label(int):
        pass

    h = bf.Hypergraph.from_json_dict({"n": 3, "hyperedges": [[Label(2), 0]]})
    assert h.hyperedges == ((0, 2),)


def test_colored_graph_json_round_trip():
    cg = bf.ColoredGraph(4, ((0, 1, 0), (0, 1, 2), (2, 3, 1)))
    assert bf.ColoredGraph.from_json_dict(cg.to_json_dict()) == cg


def test_invalid_json_reports_position():
    with pytest.raises(bf.FormatError, match="line 1"):
        bf.core.loads_document("{nope}")

