"""Edge embedding, the observation/lemma verifiers, and the proof bundles."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings

import bergefree as bf
import bergefree.embedding
from bergefree.embedding import _observation1_by_size, _placement, _projection, _vertex_checks
from conftest import hypergraphs
from oracles import (
    F1,
    F2,
    Arcs,
    aux_bundle_by_pair_scan,
    aux_sets_by_definition,
    build_aux_bundle,
    embedded_graph_by_decomposition,
    has_pattern_by_enumeration,
    observation1_by_incidence,
    pair_colors,
    vertex_checks_on_bundle,
)


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

def test_decompose_four_set_is_one_edge():
    dec = bf.decompose_hyperedge({0, 1, 2, 3})
    assert dec.triangles == ()
    assert dec.single_edges == ((0, 1),)


def test_decompose_seven_set_is_triangle_plus_edge():
    dec = bf.decompose_hyperedge(range(7))
    assert len(dec.triangles) == 1 and len(dec.single_edges) == 1
    edges = dec.edges()
    assert len(edges) == 4  # 3t + m = |h| - 3
    assert len({v for e in edges for v in e}) == 5  # 3t + 2m vertices


def test_decompose_six_set_is_perfect_matching():
    dec = bf.decompose_hyperedge(range(6))
    assert dec.triangles == ()
    assert dec.single_edges == ((0, 1), (2, 3), (4, 5))


def test_decompose_small_sets_embed_nothing():
    for size in range(4):
        dec = bf.decompose_hyperedge(range(size))
        assert dec.edges() == ()


def test_decompose_uses_ascending_vertex_order():
    dec = bf.decompose_hyperedge({9, 3, 12, 5})
    assert dec.single_edges == ((3, 5),)


@pytest.mark.parametrize("size", range(0, 16))
def test_decomposition_invariants_all_sizes(size):
    h = set(range(size))
    dec = bf.decompose_hyperedge(h)
    bf.validate_decomposition(h, dec)
    t, m = len(dec.triangles), len(dec.single_edges)
    assert 3 * t + m == max(0, size - 3)
    assert 3 * t + 2 * m <= size


def test_decomposition_type_rejects_vertex_reuse():
    with pytest.raises(ValueError):
        bf.Decomposition(((0, 1, 2),), ((2, 3),))


def test_validate_decomposition_rejects_wrong_count():
    with pytest.raises(ValueError):
        bf.validate_decomposition({0, 1, 2, 3}, bf.Decomposition((), ()))
    with pytest.raises(ValueError):
        bf.validate_decomposition({0, 1, 2, 3},
                                  bf.Decomposition((), ((0, 1), (2, 3))))
    with pytest.raises(ValueError):
        bf.validate_decomposition({0, 1, 2, 3}, bf.Decomposition((), ((0, 4),)))


def test_alternative_decompositions_are_accepted():
    # any placement satisfying the invariants validates, not just the canonical one
    alternative = bf.Decomposition(((4, 5, 6),), ((0, 2),))
    bf.validate_decomposition(range(7), alternative)


# ---------------------------------------------------------------------------
# the embedded colored graph
# ---------------------------------------------------------------------------

def test_embed_single_hyperedge():
    cg = bf.build_embedded_graph(bf.Hypergraph(4, ({0, 1, 2, 3},)))
    assert cg.colored_edges == ((0, 1, 0),)


def test_embed_parallel_edges_carry_distinct_colors():
    h = bf.Hypergraph(6, ({0, 1, 2, 3}, {0, 1, 4, 5}))
    cg = bf.build_embedded_graph(h)
    assert cg.colored_edges == ((0, 1, 0), (0, 1, 1))


def test_embed_heawood_blowup(heawood_blowup):
    cg = bf.build_embedded_graph(heawood_blowup)
    assert len(cg.colored_edges) == 63
    by_color = {}
    for u, v, color in cg.colored_edges:
        by_color.setdefault(color, []).append((u, v))
    assert len(by_color) == 21
    for color, edges in by_color.items():
        assert len(edges) == 3
        used = [v for e in edges for v in e]
        assert len(used) == len(set(used))  # vertex-disjoint triple of edges


@given(hypergraphs(max_n=10, max_size=9))
def test_embedded_edge_count_and_membership(h):
    cg = bf.build_embedded_graph(h)
    assert len(cg.colored_edges) == sum(max(0, len(e) - 3) for e in h.hyperedges)
    for u, v, color in cg.colored_edges:
        assert u in h.hyperedges[color] and v in h.hyperedges[color]


def _relabelled_blowup(q, seed):
    """The q-plane blow-up with its vertices permuted and its hyperedges
    shuffled, so hyperedges are sorted differently from their ids."""
    blown = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
    rng = random.Random(seed)
    image = rng.sample(range(blown.n), blown.n)
    hyperedges = [frozenset(image[v] for v in h) for h in blown.hyperedges]
    rng.shuffle(hyperedges)
    return bf.Hypergraph(blown.n, tuple(hyperedges))


def _assert_same_embedding(h):
    fast = bf.build_embedded_graph(h)
    oracle = embedded_graph_by_decomposition(h)
    assert fast.colored_edges == oracle.colored_edges
    assert fast.to_json_dict() == oracle.to_json_dict()


@pytest.mark.parametrize("size", range(0, 13))
def test_placement_matches_decomposition_oracle(size):
    # triangles start at size 7; each hyperedge of this size gets other labels
    rng = random.Random(size)
    hyperedges = [frozenset(rng.sample(range(40), size)) for _ in range(5)]
    hyperedges.insert(2, frozenset(range(40 - size, 40)))
    _assert_same_embedding(bf.Hypergraph(40, tuple(hyperedges)))
    assert _placement(size) == bf.decompose_hyperedge(range(size)).edges()


def test_placement_matches_decomposition_oracle_on_mixed_sizes():
    rng = random.Random(51)
    for _ in range(30):
        n = rng.randint(1, 30)
        hyperedges = tuple(frozenset(rng.sample(range(n), rng.randint(0, min(n, 13))))
                           for _ in range(rng.randint(0, 8)))
        _assert_same_embedding(bf.Hypergraph(n, hyperedges))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_placement_matches_decomposition_oracle_on_relabelled_blowups(q):
    h = _relabelled_blowup(q, q)
    _assert_same_embedding(h)
    cg = bf.build_embedded_graph(h)
    assert bf.verify_observation1(cg) == observation1_by_incidence(cg)


def test_each_placement_is_validated_once_per_size(monkeypatch):
    validated = []
    original = bf.validate_decomposition

    def counting(hyperedge, dec):
        validated.append(len(list(hyperedge)))
        original(hyperedge, dec)
    monkeypatch.setattr(bergefree.embedding, "validate_decomposition", counting)
    _placement.cache_clear()
    h = bf.Hypergraph(30, tuple(frozenset(range(start, start + size))
                                for size in (4, 6, 9, 6, 3, 4, 9, 12, 6)
                                for start in (0, 11)))
    try:
        cg = bf.build_embedded_graph(h)
        assert sorted(validated) == [4, 6, 9, 12]
        bf.build_embedded_graph(h)
        assert sorted(validated) == [4, 6, 9, 12]
    finally:
        _placement.cache_clear()
    assert cg == embedded_graph_by_decomposition(h)


# ---------------------------------------------------------------------------
# observation check
# ---------------------------------------------------------------------------

def test_observation_passes_on_single_edge():
    report = bf.verify_observation1(bf.ColoredGraph(2, ((0, 1, 0),)))
    assert report.ok and report.violations == ()


def test_observation_passes_on_triangle_decomposition():
    cg = bf.build_embedded_graph(bf.Hypergraph(9, (frozenset(range(9)),)))
    report = bf.verify_observation1(cg)
    assert report.ok


@given(hypergraphs(max_n=10, max_size=9))
def test_observation_passes_on_every_built_graph(h):
    assert bf.verify_observation1(bf.build_embedded_graph(h)).ok


def test_observation_flags_three_same_colored_edges_at_a_vertex():
    cg = bf.ColoredGraph(4, ((0, 1, 7), (0, 2, 7), (0, 3, 7), (1, 2, 7)))
    report = bf.verify_observation1(cg)
    assert not report.ok
    assert any(v["check"] == "color_multiplicity" and v["vertex"] == 0
               for v in report.violations)


def test_observation_flags_missing_triangle_closure():
    cg = bf.ColoredGraph(3, ((0, 1, 4), (0, 2, 4)))
    report = bf.verify_observation1(cg)
    assert any(v["check"] == "triangle_closure" and v["missing_edge"] == [1, 2]
               for v in report.violations)


def _shuffled(colored_edges, rng):
    """The same colored edges in a shuffled order with shuffled ends."""
    out = [(u, v, c) if rng.random() < 0.5 else (v, u, c) for u, v, c in colored_edges]
    rng.shuffle(out)
    return tuple(out)


# color 7 has three edges at vertices 0 and 1 and no edge 2-3; color 4 is
# the path 5-6-8, whose closing pair 5-8 carries only color 1; colors 1 and
# 9 are matchings, color 1 partly on color 7's pairs; color 2 is a closed
# triangle
HAND_BUILT = (
    (0, 1, 7), (0, 2, 7), (0, 3, 7), (1, 2, 7), (1, 3, 7),
    (5, 6, 4), (6, 8, 4),
    (0, 1, 1), (2, 3, 1), (5, 8, 1),
    (4, 9, 9), (1, 6, 9),
    (3, 4, 2), (4, 7, 2), (3, 7, 2),
)


def test_observation_on_shared_colors_matches_incidence_oracle():
    rng = random.Random(1)
    want = observation1_by_incidence(bf.ColoredGraph(10, HAND_BUILT)).to_json_dict()
    assert {(v["check"], v["vertex"], v["color"]) for v in want["violations"]} == {
        ("color_multiplicity", 0, 7), ("triangle_closure", 0, 7),
        ("color_multiplicity", 1, 7), ("triangle_closure", 1, 7),
        ("triangle_closure", 6, 4)}
    for _ in range(40):
        cg = bf.ColoredGraph(10, _shuffled(HAND_BUILT, rng))
        report = bf.verify_observation1(cg)
        assert report == observation1_by_incidence(cg)
        assert report.to_json_dict() == want


def test_observation_matches_incidence_oracle_on_seeded_colorings():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = {(u, v, rng.randrange(4)) for u, v in rng.sample(
            pairs, rng.randint(0, min(len(pairs), 14)))}
        cg = bf.ColoredGraph(n, _shuffled(sorted(chosen), rng))
        assert bf.verify_observation1(cg) == observation1_by_incidence(cg)


def test_observation_report_json_shape():
    doc = bf.verify_observation1(bf.ColoredGraph(2, ((0, 1, 0),))).to_json_dict()
    assert doc["ok"] is True and doc["colored_edges"] == 1


# ---------------------------------------------------------------------------
# aux bundles
# ---------------------------------------------------------------------------

def _star_instance():
    # v=0 with colored spokes, one hyperedge per spoke
    hyperedges = tuple(frozenset({0, u}) for u in range(1, 5))
    cg = bf.ColoredGraph(5, tuple((0, u, u - 1) for u in range(1, 5)))
    return bf.Hypergraph(5, hyperedges), cg


def test_bundle_of_a_star_is_empty():
    _, cg = _star_instance()
    bundle = build_aux_bundle(cg, 0)
    assert bundle.n1 == (1, 2, 3, 4) and bundle.n2 == ()
    assert bundle.g.edges == bundle.g_aux.edges == frozenset()
    assert bundle.b == bundle.b_prime == frozenset()


def test_bundle_of_a_single_two_path():
    # v=0 - x=1 - w=2
    cg = bf.ColoredGraph(3, ((0, 1, 0), (1, 2, 0)))
    bundle = build_aux_bundle(cg, 0)
    assert bundle.b == frozenset({(1, 2)})
    assert bundle.b_prime == frozenset()
    assert bundle.g_aux.edges == frozenset()


def test_bundle_of_two_paths_sharing_the_far_end():
    # v=0 - x=1 - w=3 and v=0 - z=2 - w=3
    cg = bf.ColoredGraph(4, ((0, 1, 0), (1, 3, 0), (0, 2, 1), (2, 3, 1)))
    bundle = build_aux_bundle(cg, 0)
    assert bundle.g_aux.edges == frozenset({(1, 2)})
    assert bundle.g_aux_prime.edges == frozenset({(1, 2)})
    assert bundle.b_prime == frozenset({(1, 3), (2, 3)})


def test_bundle_rejects_out_of_range_vertex():
    h, cg = _star_instance()
    with pytest.raises(ValueError, match="vertex 5 out of range for n=5"):
        build_aux_bundle(cg, 5)
    with pytest.raises(ValueError, match="vertex 5 out of range for n=5"):
        bf.verify_lemma_suite(h, vertices=[0, 5])


@settings(max_examples=120)
@given(hypergraphs(max_n=9, max_size=6))
def test_bundle_matches_definition_scan(h):
    cg = bf.build_embedded_graph(h)
    proj = cg.simple_projection
    for v in range(h.n):
        bundle = build_aux_bundle(cg, v)
        want = aux_sets_by_definition(proj, v)
        assert set(bundle.n1) == want["n1"]
        assert set(bundle.n2) == want["n2"]
        assert bundle.g.edges == frozenset(want["g"])
        assert bundle.g_aux.edges == frozenset(want["g_aux"])
        assert bundle.g_aux_prime.edges == frozenset(want["g_aux_prime"])
        assert bundle.b == frozenset(want["b"])
        assert bundle.b_prime == frozenset(want["b_prime"])
        # structural invariants
        assert bundle.g_aux_prime.edges == bundle.g_aux.edges - bundle.g.edges
        assert bundle.b_prime <= bundle.b
        assert bundle == aux_bundle_by_pair_scan(cg, v)


# ---------------------------------------------------------------------------
# per-vertex checks on adjacency rows against the edge-set oracle
# ---------------------------------------------------------------------------

def _fast_checks(hypergraph, colored_graph, v):
    """The library's checks of v on the colored graph's projection rows and
    spoke colors; the hand-built graphs below are not the embedding of
    their hypergraph, so the rows and spokes come from the graph itself
    (_projection is checked against them on embeddings)."""
    rows = dict(enumerate(colored_graph.simple_projection.adjacency_masks))
    return _vertex_checks(hypergraph, rows, v, _spokes_by_pair_colors(colored_graph, [v])[v])


def _vertex_reports(hypergraph, colored_graph, v):
    """v's row and violations from the library and from the oracle, each as
    JSON text, so key order counts too."""
    masks = colored_graph.simple_projection.adjacency_masks
    return (json.dumps(_fast_checks(hypergraph, colored_graph, v)),
            json.dumps(vertex_checks_on_bundle(hypergraph, colored_graph, masks, v)))


@settings(max_examples=150)
@given(hypergraphs(max_n=9, max_m=8, max_size=9))
def test_vertex_checks_match_bundle_oracle(h):
    # no Berge-C4 precondition here, so the inputs reach the violation code
    cg = bf.build_embedded_graph(h)
    for v in range(h.n):
        fast, oracle = _vertex_reports(h, cg, v)
        assert fast == oracle


@pytest.mark.parametrize("q", [2, 3, 5])
def test_vertex_checks_match_bundle_oracle_on_blowups(q):
    h = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
    cg = bf.build_embedded_graph(h)
    for v in range(h.n):
        fast, oracle = _vertex_reports(h, cg, v)
        assert fast == oracle


def _pair_hypergraph(n, colored_edges):
    """Each colored edge's color names a hyperedge holding just its ends."""
    hyperedges = [frozenset()] * (max(c for _, _, c in colored_edges) + 1)
    for u, w, c in colored_edges:
        hyperedges[c] = frozenset({u, w})
    return bf.Hypergraph(n, tuple(hyperedges)), bf.ColoredGraph(n, tuple(colored_edges))


def _hub_n1(d, g_edges=()):
    # v = 0, N1 = 1..d, one N2 hub d+1 seeing all of N1: G_aux = K_d, and
    # G'_aux is K_d minus the G edges given
    edges = [(0, x) for x in range(1, d + 1)] + [(x, d + 1) for x in range(1, d + 1)]
    edges += list(g_edges)
    return _pair_hypergraph(d + 2, [(u, w, c) for c, (u, w) in enumerate(edges)])


def _dense_g_under_hub():
    # G joins 1..6 to 7..12, and 1 to 2: |G| = 37 > 3d = 36, and G'_aux, two
    # 6-cliques less one edge (29 edges), has no K_{5,5} though G_aux = K_12 has
    g_edges = [(x, y) for x in range(1, 7) for y in range(7, 13)] + [(1, 2)]
    return _hub_n1(12, g_edges)


def _k55_in_gap():
    # v = 0, N1 = 1..10; each even x has its own N2 hub seeing x and every odd
    # vertex, so G'_aux is K_{5,5} between odds and evens plus K_5 on the odds
    odds, evens = range(1, 11, 2), range(2, 11, 2)
    edges = [(0, x) for x in range(1, 11)]
    for hub, x in enumerate(evens, start=11):
        edges += [(x, hub)] + [(y, hub) for y in odds]
    return _pair_hypergraph(16, [(u, w, c) for c, (u, w) in enumerate(edges)])


def _shared_spoke_color():
    # spokes 0-1 and 0-2 carry only color 0; 1 and 2 share the N2 vertex 3
    h = bf.Hypergraph(4, ({0, 1, 2}, {1, 3}, {2, 3}))
    return h, bf.ColoredGraph(4, ((0, 1, 0), (0, 2, 0), (1, 3, 1), (2, 3, 2)))


def _spokes_miss_each_other():
    # spokes 0-1 (color 0) and 0-2 (color 1): 2 is not in hyperedge 0, nor 1 in 1
    return _pair_hypergraph(4, [(0, 1, 0), (0, 2, 1), (1, 3, 2), (2, 3, 3)])


@pytest.mark.parametrize("build, kind", [
    (_dense_g_under_hub, "g_size_vs_degree"),
    (_k55_in_gap, "k55_freeness"),
    # |G'_aux| = d(d-1)/2 reaches d^{9/5} at d = 40
    (lambda: _hub_n1(40), "g_aux_prime_bound"),
    (_spokes_miss_each_other, "inclusion"),
    (_shared_spoke_color, "inclusion_no_distinct_colors"),
], ids=["g_size_vs_degree", "k55_freeness", "g_aux_prime_bound", "inclusion",
        "inclusion_no_distinct_colors"])
def test_vertex_checks_match_bundle_oracle_on_each_violation(build, kind):
    h, cg = build()
    fast, oracle = _vertex_reports(h, cg, 0)
    assert fast == oracle
    row, violations = json.loads(fast)
    assert kind in {violation["check"] for violation in violations}
    assert not row["ok"]


def test_k55_check_reads_g_aux_prime_and_names_the_first_witness():
    h, cg = _k55_in_gap()
    _, violations = _fast_checks(h, cg, 0)
    assert [v["parts"] for v in violations if v["check"] == "k55_freeness"] == \
        [[[1, 3, 5, 7, 9], [2, 4, 6, 8, 10]]]
    h, cg = _dense_g_under_hub()
    row, _ = _fast_checks(h, cg, 0)
    assert row["checks"]["k55_freeness"] and row["g_aux_prime_edges"] == 29


def test_lemma_suite_builds_no_graph_per_checked_vertex(monkeypatch):
    h = bf.blow_up(bf.projective_plane_incidence(3).graph(), 3)
    built = Counter()

    def counting(self, original=bf.Graph.__post_init__):
        built["Graph"] += 1
        original(self)
    monkeypatch.setattr(bf.Graph, "__post_init__", counting)
    bf.verify_lemma_suite(h, vertices=[])
    unchecked = dict(built)
    built.clear()
    report = bf.verify_lemma_suite(h)
    assert len(report.rows) == h.n == 78
    assert built == unchecked


def _spokes_by_pair_colors(colored_graph, checked):
    """spokes[v][x] for each checked v, read off the whole-graph index."""
    spokes = {v: {} for v in checked}
    for (u, w), colors in pair_colors(colored_graph).items():
        if u in spokes:
            spokes[u][w] = list(colors)
        if w in spokes:
            spokes[w][u] = list(colors)
    return spokes


def _seeded_multihypergraph(seed):
    """Hyperedges of 2 to 13 vertices on 16, some of them repeated, so
    parallel colored edges carry several colors."""
    rng = random.Random(seed)
    hyperedges = []
    for _ in range(rng.randint(1, 9)):
        edge = rng.sample(range(16), rng.randint(2, 13))
        hyperedges += [edge] * rng.choice((1, 1, 2, 3))
    rng.shuffle(hyperedges)
    return bf.Hypergraph(16, hyperedges)


@pytest.mark.parametrize("h", [_relabelled_blowup(q, 40 + q) for q in (3, 5, 7)]
                         + [_seeded_multihypergraph(seed) for seed in range(40)])
def test_spoke_colors_match_pair_color_oracle(h):
    cg = bf.build_embedded_graph(h)
    rng = random.Random(h.n)
    for checked in (range(h.n), sorted(rng.sample(range(h.n), h.n // 3)), []):
        assert _projection(h, checked)[1] == _spokes_by_pair_colors(cg, checked)


def _lemma_inputs():
    """The hypergraphs the lemma suite tests run on, and the q = 2..7
    blow-ups, plain and relabelled."""
    plane = bf.projective_plane_incidence
    inputs = [bf.Hypergraph(4, ({0, 1, 2, 3},)), bf.Hypergraph(5, ({0, 1, 2, 3},)),
              bf.blow_up(plane(2).graph(), 3), _star_instance()[0],
              bf.Hypergraph(8, ({0, 1, 2, 3, 4, 5, 6}, {0, 7}, {6, 7, 1, 2}))]
    for q in (2, 3, 5, 7):
        inputs += [bf.blow_up(plane(q).graph(), 3), _relabelled_blowup(q, 60 + q)]
    return inputs + [_seeded_multihypergraph(seed) for seed in range(20)]


@pytest.mark.parametrize("h", _lemma_inputs())
def test_observation1_by_size_matches_incidence_oracle(h):
    """Observation 1 checked once per hyperedge size reports what the
    whole-graph oracle reports on the embedded graph, and on a free input
    the suite carries that report."""
    want = observation1_by_incidence(bf.build_embedded_graph(h))
    assert _observation1_by_size(h) == want
    if bf.is_berge_c4_free(h):
        assert bf.verify_lemma_suite(h, vertices=[]).observation1 == want


@pytest.mark.parametrize("h", _lemma_inputs())
def test_projection_rows_are_the_simple_projection(h):
    """The suite's rows, read straight off the hyperedges, are the adjacency
    masks of the embedded graph's simple projection, keyed ascending by
    the vertices on a placed edge."""
    rows, _ = _projection(h, [])
    masks = bf.build_embedded_graph(h).simple_projection.adjacency_masks
    assert rows == {v: row for v, row in enumerate(masks) if row}
    assert list(rows) == sorted(rows)


def test_lemma_suite_on_a_huge_declared_n_allocates_by_the_used_vertices():
    """n = 5,000,000 with one hyperedge: a sample of five vertices is
    checked without allocating anything per declared vertex."""
    import tracemalloc
    h = bf.Hypergraph(5_000_000, ([0, 1, 2, 3],))
    vertices = sorted(random.Random(0).sample(range(h.n), 5)) + [0, 3]
    tracemalloc.start()
    try:
        report = bf.verify_lemma_suite(h, vertices=vertices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.observation1.colored_edge_count == 1
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------------------
# the K_{5,5} argument's endgame: the membership digraph between two
# triples of colored neighbours must avoid F1 and F2
# ---------------------------------------------------------------------------

def test_sparse_membership_digraph_is_pattern_free():
    # a matching orientation has all in/out degrees <= 1: no F1, no F2
    d = Arcs(6, frozenset({(0, 3), (1, 4), (2, 5)}))
    assert not has_pattern_by_enumeration(d, F1)
    assert not has_pattern_by_enumeration(d, F2)


def test_every_complete_k33_orientation_contains_f1_or_f2():
    """The endgame of the K_{5,5} argument: once every cross pair of the two
    triples is oriented, one of the two forbidden patterns always appears."""
    from itertools import product as iproduct
    pairs = [(i, j) for i in range(3) for j in range(3, 6)]
    for signs in iproduct((0, 1), repeat=9):
        arcs = frozenset((a, b) if s == 0 else (b, a)
                         for (a, b), s in zip(pairs, signs))
        d = Arcs(6, arcs)
        assert has_pattern_by_enumeration(d, F1) or has_pattern_by_enumeration(d, F2)


# ---------------------------------------------------------------------------
# the lemma suite
# ---------------------------------------------------------------------------

def test_lemma_suite_trivial_hypergraph():
    report = bf.verify_lemma_suite(bf.Hypergraph(4, ({0, 1, 2, 3},)))
    assert report.ok
    assert report.k27_free
    assert len(report.rows) == 4


def test_lemma_suite_heawood_blowup(heawood_blowup):
    report = bf.verify_lemma_suite(heawood_blowup)
    assert report.ok
    assert report.violations == ()
    assert len(report.rows) == 42
    for row in report.rows:
        assert row["g_edges"] <= 3 * row["d"]


def test_lemma_suite_refuses_non_free_input(loose_four_cycle):
    with pytest.raises(bf.NotBergeC4FreeError) as info:
        bf.verify_lemma_suite(loose_four_cycle)
    bf.validate_witness(loose_four_cycle, info.value.witness)


def test_lemma_suite_vertex_subset_and_order():
    h = bf.Hypergraph(5, ({0, 1, 2, 3},))
    report = bf.verify_lemma_suite(h, vertices=[3, 1])
    assert report.checked_vertices == (1, 3)
    assert [row["v"] for row in report.rows] == [1, 3]


def test_lemma_suite_report_json_shape(heawood_blowup):
    doc = bf.verify_lemma_suite(heawood_blowup, vertices=[0, 1]).to_json_dict()
    assert doc["ok"] is True
    assert doc["k27_free"] is True
    assert {row["v"] for row in doc["rows"]} == {0, 1}
    for key in ("d", "g_edges", "g_aux_edges", "g_aux_prime_edges",
                "b_edges", "b_prime_edges"):
        assert key in doc["rows"][0]
    checks = doc["rows"][0]["checks"]
    assert set(checks) == {"g_size_vs_degree", "k55_freeness", "g_aux_prime_bound",
                           "inclusion", "b_minus_bprime_degree", "two_path_count"}
    assert all(checks.values())


@settings(max_examples=60)
@given(hypergraphs(max_n=8, max_m=5, min_size=2, max_size=6))
def test_lemma_suite_never_flags_free_inputs(h):
    if not bf.is_berge_c4_free(h):
        return
    report = bf.verify_lemma_suite(h)
    assert report.ok, report.violations
