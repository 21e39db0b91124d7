"""Berge cycle detection: examples, oracle agreement, and witness validity."""

import gc
import random
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergefree as bf
from bergefree import berge
from bergefree.berge import (
    _hall,
    _twin_classes,
    _twin_quotient_has_cycle,
    distinct_representatives,
)
from bergefree.core import iter_bits
from conftest import hypergraphs
from oracles import (
    SearchState,
    c4_by_pair_scan,
    c4_class_by_mask_fold,
    c4_class_by_path_pairs,
    canonical_c4_by_enumeration,
    canonical_cycle_by_enumeration,
    distinct_representatives_by_backtracking,
    dup_ends_by_masks,
    find_berge_cycle_by_masks,
    first_cycle_by_vertex_classes,
    incidence_masks,
    incremental_c4_check,
    quotient_class_by_masks,
    triangle_by_sorted_edges,
    twin_classes_by_masks,
    walk_masks_by_distance,
)


def test_loose_four_cycle_witness(loose_four_cycle):
    witness = bf.find_berge_cycle(loose_four_cycle, 4)
    assert witness == bf.BergeCycleWitness((0, 1, 2, 3), (0, 1, 2, 3))
    bf.validate_witness(loose_four_cycle, witness)
    assert not bf.is_berge_c4_free(loose_four_cycle)


def test_three_copies_of_a_four_set_are_free():
    h = bf.Hypergraph(4, ({0, 1, 2, 3},) * 3)
    assert bf.find_berge_cycle(h, 4) is None
    assert bf.naive_berge_oracle(h, 4) is None
    assert bf.is_berge_c4_free(h)


def test_four_copies_of_a_four_set_contain_a_cycle():
    h = bf.Hypergraph(4, ({0, 1, 2, 3},) * 4)
    witness = bf.find_berge_cycle(h, 4)
    assert witness is not None
    bf.validate_witness(h, witness)
    assert bf.naive_berge_oracle(h, 4) is not None


def test_empty_hypergraph_is_free():
    assert bf.is_berge_c4_free(bf.Hypergraph(0))
    assert bf.is_berge_c4_free(bf.Hypergraph(10))


def test_heawood_blowup_is_free(heawood_blowup):
    assert bf.is_berge_c4_free(heawood_blowup)


def test_cycle_length_below_two_is_a_usage_error():
    h = bf.Hypergraph(3, ({0, 1, 2},))
    with pytest.raises(ValueError):
        bf.find_berge_cycle(h, 1)
    with pytest.raises(ValueError):
        bf.naive_berge_oracle(h, 1)


def test_k_beyond_vertex_count_is_impossible():
    h = bf.Hypergraph(3, ({0, 1, 2},) * 5)
    assert bf.find_berge_cycle(h, 4) is None


def test_berge_c2_needs_two_hyperedges_sharing_a_pair():
    shared = bf.Hypergraph(4, ({0, 1, 2}, {1, 2, 3}))
    witness = bf.find_berge_cycle(shared, 2)
    assert witness is not None
    assert set(witness.vertices) == {1, 2}
    lean = bf.Hypergraph(4, ({0, 1}, {1, 2}, {2, 3}))
    assert bf.find_berge_cycle(lean, 2) is None


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_loose_cycles_up_to_length_eight(k):
    # hyperedge i covers the pair (i, i+1 mod k) plus a private vertex
    hyperedges = tuple(frozenset({i, (i + 1) % k, k + i}) for i in range(k))
    h = bf.Hypergraph(2 * k, hyperedges)
    witness = bf.find_berge_cycle(h, k)
    assert witness is not None
    bf.validate_witness(h, witness)
    # the oracle hits the witness on its first vertex tuple (0..k-1); keep it
    # that way, a negative oracle run at n=16 would not terminate in test time
    assert bf.naive_berge_oracle(h, k, max_vertices=16) is not None
    # one hyperedge short of closing: no cycle of that length
    clipped = bf.Hypergraph(2 * k, hyperedges[:-1])
    assert bf.find_berge_cycle(clipped, k) is None


def test_oracle_size_guard():
    big = bf.Hypergraph(13, ({0, 1},))
    with pytest.raises(ValueError, match="guard"):
        bf.naive_berge_oracle(big, 2)


def test_witness_validation_rejects_corrupt_witnesses(loose_four_cycle):
    with pytest.raises(ValueError):
        bf.validate_witness(loose_four_cycle,
                            bf.BergeCycleWitness((0, 1, 2, 2), (0, 1, 2, 3)))
    with pytest.raises(ValueError):
        bf.validate_witness(loose_four_cycle,
                            bf.BergeCycleWitness((0, 1, 2, 3), (0, 1, 2, 2)))
    with pytest.raises(ValueError):
        bf.validate_witness(loose_four_cycle,
                            bf.BergeCycleWitness((0, 2, 1, 3), (0, 1, 2, 3)))


@settings(max_examples=200)
@given(hypergraphs(max_n=5, max_m=4, min_size=2, max_size=5),
       st.integers(2, 5))
def test_detector_agrees_with_naive_oracle(h, k):
    fast = bf.find_berge_cycle(h, k)
    slow = bf.naive_berge_oracle(h, k)
    assert (fast is None) == (slow is None)
    if fast is not None:
        bf.validate_witness(h, fast)
        bf.validate_witness(h, slow)


@settings(max_examples=100)
@given(hypergraphs(max_n=6, max_m=5, min_size=2, max_size=4),
       st.sets(st.integers(0, 5), min_size=2, max_size=4))
def test_found_cycle_survives_hyperedge_addition(h, extra):
    extra = frozenset(v for v in extra if v < h.n)
    if len(extra) < 2:
        return
    if bf.find_berge_cycle(h, 4) is None:
        return
    bigger = bf.Hypergraph(h.n, h.hyperedges + (extra,))
    assert bf.find_berge_cycle(bigger, 4) is not None


def test_c4_detector_is_canonical_on_exhaustive_family():
    # multisets of up to 5 hyperedges of size 2..4 on 4 vertices, and of
    # up to 4 hyperedges of size 2..3 on 5 vertices
    found = 0
    for n, sizes, most in ((4, (2, 3, 4), 5), (5, (2, 3), 4)):
        universe = [frozenset(c) for size in sizes for c in combinations(range(n), size)]
        for count in range(most + 1):
            for combo in combinations_with_replacement(universe, count):
                h = bf.Hypergraph(n, combo)
                expected = canonical_c4_by_enumeration(h)
                assert bf.find_berge_cycle(h, 4) == expected, combo
                found += expected is not None
    assert found > 0


def test_c4_detector_is_canonical_on_seeded_instances():
    rng = random.Random(20240)
    found = 0
    for _ in range(2000):
        n = rng.randint(4, 9)
        h = bf.Hypergraph(n, tuple(
            frozenset(rng.sample(range(n), rng.randint(2, min(n, 5))))
            for _ in range(rng.randint(1, 8))))
        expected = canonical_c4_by_enumeration(h)
        assert bf.find_berge_cycle(h, 4) == expected, h
        found += expected is not None
    assert 200 < found < 1800  # both verdicts well represented


def _replay_has_c4(h: bf.Hypergraph) -> bool:
    # incremental_c4_check assumes the state before each push is free
    state = SearchState(h.n)
    return any(incremental_c4_check(state, state.push(e)) for e in h.hyperedges)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("planted", [False, True])
def test_c4_detector_agrees_with_incremental_replay(q, planted):
    rng = random.Random(q * 10 + planted)
    blown = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
    verdicts = set()
    for _ in range(25):
        n = rng.randint(blown.n, 100)
        relabel = rng.sample(range(n), blown.n)
        kept = [frozenset(relabel[v] for v in e)
                for e in blown.hyperedges if rng.random() < 0.7]
        if planted:
            cycle = rng.sample(range(n), 4)
            for i in range(4):
                pair = {cycle[i], cycle[(i + 1) % 4]}
                kept.append(frozenset(pair | set(rng.sample(range(n), rng.randint(0, 3)))))
        rng.shuffle(kept)
        h = bf.Hypergraph(n, tuple(kept))
        verdict = bf.find_berge_cycle(h, 4) is not None
        assert verdict == _replay_has_c4(h)
        verdicts.add(verdict)
    assert verdicts == {planted}


@pytest.mark.parametrize("k", range(1, 9))
def test_hall_matches_distinct_representatives(k):
    """Every k-tuple of slot masks over hyperedge ids 0..3 up to k = 4, and
    20,000 seeded tuples over ids 0..k+1 for k = 5 to 8: _hall gives the
    backtracking oracle's verdict and distinct_representatives its
    assignment, with both verdicts."""
    if k <= 4:
        tuples = product(range(16), repeat=k)
    else:
        rng = random.Random(k)
        tuples = [[rng.getrandbits(rng.randint(1, k + 2)) for _ in range(k)]
                  for _ in range(20000)]
    verdicts = set()
    for masks in tuples:
        want = distinct_representatives_by_backtracking([list(iter_bits(mask)) for mask in masks])
        assert _hall(masks) == (want is not None), masks
        assert distinct_representatives(masks) == want, masks
        verdicts.add(want is not None)
    assert verdicts == {False, True}


def test_find_c4_in_k22():
    k22 = bf.Graph(4, frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))
    cycle = bf.find_c4_in_graph(k22)
    assert cycle is not None
    x, a, y, b = cycle
    assert len({x, a, y, b}) == 4
    for u, v in ((x, a), (a, y), (y, b), (b, x)):
        assert (min(u, v), max(u, v)) in k22.edges


def test_find_c4_in_trees_is_empty():
    path = bf.Graph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
    star = bf.Graph(5, frozenset({(0, 1), (0, 2), (0, 3), (0, 4)}))
    assert bf.find_c4_in_graph(path) is None
    assert bf.find_c4_in_graph(star) is None


def test_heawood_graph_has_no_c4(heawood_graph):
    assert bf.find_c4_in_graph(heawood_graph) is None


def test_find_triangle():
    assert bf.find_triangle(bf.Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))) == (0, 1, 2)
    assert bf.find_triangle(bf.Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}))) is None


def test_heawood_graph_is_triangle_free(heawood_graph):
    assert bf.find_triangle(heawood_graph) is None


# -- certificate scans against the pair-scan and sorted-edge oracles --------

def _assert_scans_match_oracles(g):
    """find_c4_in_graph, find_triangle and certify_blowup_free return the
    exact tuples of the oracles; returns (triangle, c4)."""
    triangle = triangle_by_sorted_edges(g)
    cycle = c4_by_pair_scan(g)
    assert bf.find_triangle(g) == triangle, g
    assert bf.find_c4_in_graph(g) == cycle, g
    if triangle is not None:
        want = bf.BlowupCertificate(False, "triangle", triangle)
    elif cycle is not None:
        want = bf.BlowupCertificate(False, "four_cycle", cycle)
    else:
        want = bf.BlowupCertificate(True)
    assert bf.certify_blowup_free(g) == want, g
    return triangle, cycle


def test_certificate_scans_match_oracles_on_every_small_graph():
    outcomes = set()
    for n in range(7):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if chosen >> i & 1)
            triangle, cycle = _assert_scans_match_oracles(bf.Graph(n, edges))
            outcomes.add((triangle is None, cycle is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_certificate_scans_match_oracles_on_seeded_graphs():
    rng = random.Random(20260418)
    found = 0
    for _ in range(2000):
        n = rng.randint(0, 40)
        density = rng.choice([0.02, 0.05, 0.1, 0.2, 0.4])
        edges = frozenset((u, v) for u, v in combinations(range(n), 2) if rng.random() < density)
        triangle, cycle = _assert_scans_match_oracles(bf.Graph(n, edges))
        found += cycle is not None
    assert 200 < found < 1800  # both verdicts are well represented


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_certificate_scans_match_oracles_on_planted_planes(q):
    base = bf.projective_plane_incidence(q).graph()
    count = q * q + q + 1  # points are 0..count-1, lines count..2count-1
    lines_of = [[] for _ in range(count)]
    for point, line in base.edges:
        lines_of[point].append(line)
    rng = random.Random(q)
    for plant in ("none", "triangle", "four_cycle", "both", "two_cycles"):
        edges = set(base.edges)
        if plant in ("triangle", "both"):
            # two points on a common line, joined: point-line-point-point
            line = rng.choice(lines_of[rng.randrange(count)])
            p1, p2 = rng.sample([p for p in range(count) if line in lines_of[p]], 2)
            edges.add((min(p1, p2), max(p1, p2)))
        for _ in range({"four_cycle": 1, "both": 1, "two_cycles": 2}.get(plant, 0)):
            # a point joined to a line missing it: point-line-point-line
            point = rng.randrange(count)
            edges.add((point, rng.choice([line for line in range(count, 2 * count)
                                          if line not in lines_of[point]])))
        relabel = list(range(2 * count))
        rng.shuffle(relabel)
        g = bf.Graph(2 * count, frozenset((relabel[u], relabel[v]) for u, v in edges))
        triangle, cycle = _assert_scans_match_oracles(g)
        assert (triangle is not None) == (plant in ("triangle", "both"))
        assert (cycle is not None) == (plant in ("four_cycle", "both", "two_cycles"))



# -- the twin-class gate against the vertex-level reference ----------------

CYCLE_LENGTHS = (2, 3, 4, 5, 6)


def twin_classes(h: bf.Hypergraph):
    return _twin_classes(h)


def least_class(classes, k: int):
    """The least class the gate reports, the first class of its walk, or
    None."""
    found = _twin_quotient_has_cycle(classes, k)
    return None if found is None else found[0][0]


def key_masks(classes) -> list[int]:
    """The classes' id tuples as full-width incidence masks."""
    return [sum(1 << hid for hid in key) for key in classes.keys]


def _assert_ck_starts_cover_walks(classes, k: int) -> None:
    """The gate's start filter (_ck_starts) yields classes in
    ascending order, among them every class from which _closed_walk finds
    a closed k-walk on the masks over every hyperedge (key_masks)."""
    starts = list(berge._ck_starts(classes, k))
    assert starts == sorted(set(starts)), (k, starts)
    sizes, adj = classes.sizes, classes.adj
    masks = key_masks(classes)
    walks = [a for a in range(len(sizes))
             if berge._closed_walk(masks, sizes, adj, k, a, classes.members) is not None]
    assert set(walks) <= set(starts), (k, walks, starts)


def _assert_least_free_members(classes, witness) -> None:
    """Each position of the witness holds the least member of its class
    that no earlier position holds, as in every canonical cycle."""
    used = set()
    for v in witness.vertices:
        members = classes.members[classes.of_vertex[v]]
        assert v == min(set(members) - used), (witness, members)
        used.add(v)


def _assert_quotient_agrees(h: bf.Hypergraph, k: int = 4, oracle: bool = False) -> bool:
    """The gate on the twin classes agrees with the vertex-level reference,
    which runs a class gate on one class per vertex (for k = 4 the pairing
    oracle c4_class_by_path_pairs, which must also report the gate's least
    class on the twin classes), the start filter yields every class with a
    walk, and the smallest member of the least class
    it reports is the first vertex of the reference's witness, which
    find_berge_cycle returns, each of its positions holding the least
    member of its class not held earlier.  The twin classes, the least
    class and the witness are also those of the gate on full-width
    incidence masks (twin_classes_by_masks, quotient_class_by_masks and
    find_berge_cycle_by_masks).  With oracle the witness also equals the
    canonical enumerator's and, up to 7 vertices, the verdict
    naive_berge_oracle's.  Returns whether h has a Berge-Ck."""
    expected = first_cycle_by_vertex_classes(h, k)
    classes = twin_classes(h)
    masks, sizes, adj, firsts = twin_classes_by_masks(h, incidence_masks(h))
    assert (key_masks(classes), classes.sizes, classes.adj) == (masks, sizes, adj), h
    assert [members[0] for members in classes.members] == firsts, h
    a = least_class(classes, k)
    assert a == quotient_class_by_masks(masks, sizes, adj, k), (k, h)
    assert (a is not None) == (expected is not None), (k, h)
    if k == 4:
        assert a == c4_class_by_path_pairs(masks, sizes, adj), h
    _assert_ck_starts_cover_walks(classes, k)
    if a is not None:
        assert firsts[a] == expected.vertices[0], (k, h)
        _assert_least_free_members(classes, expected)
    assert bf.find_berge_cycle(h, k) == expected == find_berge_cycle_by_masks(h, k), (k, h)
    if oracle:
        assert canonical_cycle_by_enumeration(h, k) == expected, (k, h)
        if h.n <= 7:
            assert (bf.naive_berge_oracle(h, k) is None) == (expected is None), (k, h)
    return expected is not None


def _blow_classes(sizes, base_edges, rng, isolated=0):
    """Hypergraph whose base vertex i becomes a class of sizes[i] twins, each
    base hyperedge the union of its classes, plus isolated vertices; vertex
    labels are shuffled."""
    n = sum(sizes) + isolated
    labels = rng.sample(range(n), n)
    members, start = [], 0
    for size in sizes:
        members.append(labels[start:start + size])
        start += size
    return bf.Hypergraph(n, tuple(
        frozenset(v for i in edge for v in members[i]) for edge in base_edges))


def test_twin_classes_skip_isolated_vertices():
    # vertices 3, 4, 5 lie in no hyperedge: equal (zero) masks, but no
    # class; each of 0, 1, 2 has no twin and is a class of one
    h = bf.Hypergraph(6, (frozenset({0, 1}), frozenset({1, 2})))
    classes = twin_classes(h)
    assert classes.keys == [(0,), (0, 1), (1,)] and classes.sizes == [1, 1, 1]
    assert classes.adj == [0b010, 0b101, 0b010]  # no class has a loop
    assert classes.members == [[0], [1], [2]]
    assert classes.of_vertex == [0, 1, 2, -1, -1, -1]
    h = bf.Hypergraph(7, (frozenset({0, 1, 2}), frozenset({2, 3})))
    classes = twin_classes(h)
    assert classes.keys == [(0,), (0, 1), (1,)] and classes.sizes == [2, 1, 1]
    assert classes.adj == [0b011, 0b101, 0b010]  # only class 0 has a loop
    assert classes.members == [[0, 1], [2], [3]]
    assert classes.meets == [1, 2, 1]  # one hyperedge per neighbour


@pytest.mark.parametrize("size", range(1, 7))
def test_quotient_on_copies_of_one_hyperedge(size):
    # every vertex is a twin of every other; a Berge-Ck needs k members and
    # k copies, so the class may not be used more often than it has members
    for k in CYCLE_LENGTHS:
        for copies in range(1, 7):
            h = bf.Hypergraph(size, (frozenset(range(size)),) * copies)
            assert _assert_quotient_agrees(h, k, oracle=True) == (size >= k and copies >= k)


@pytest.mark.parametrize("hyperedges, classes", [
    # {0, 1} are twins in all three hyperedges, {2} in the first two: the
    # only Berge-C3, 0 -2- 1 -0- 2 -1- 0, walks class 0 twice in a row
    (({0, 1, 2}, {0, 1, 2}, {0, 1}), ([0b111, 0b011], [2, 1])),
    # the same with the classes swapped: the only closed 3-walk from the
    # least class, 0 1 1, ties c2 == c3
    (({0, 1, 2}, {0, 1, 2}, {1, 2}), ([0b011, 0b111], [1, 2])),
])
def test_quotient_walks_two_members_of_one_class_in_a_row(hyperedges, classes):
    h = bf.Hypergraph(4, tuple(frozenset(e) for e in hyperedges))  # vertex 3 isolated
    built = twin_classes(h)
    assert (key_masks(built), built.sizes) == classes
    assert _assert_quotient_agrees(h, 3, oracle=True)


def test_walk_tests_a_closing_in_one_direction_only(monkeypatch):
    """The triangle 0, 1, 2 covers three hyperedges, but its slots {0, 1}
    and {1, 2} both lie only in {0, 1, 2}, so it fails Hall's test.  The
    walk from class 0 tests it once, as 0, 1, 2: at the closing depth the
    reverse direction 0, 2, 1 has v3 = 1 below v2 = 2 and is skipped before
    Hall's test.  (Both directions have the same slots, so the skip changes
    no verdict and no witness, only the work.)"""
    hall, tested = berge._hall, []

    def counted_hall(slots):
        tested.append(list(slots))
        return hall(slots)

    monkeypatch.setattr(berge, "_hall", counted_hall)
    h = bf.Hypergraph(4, tuple(map(frozenset, ({0, 1, 2}, {0, 2}, {0, 2}, {0, 3}))))
    assert twin_classes(h).members == [[0], [1], [2], [3]]
    assert bf.find_berge_cycle(h, 3) is None
    assert tested == [[0b001, 0b001, 0b111]]


def test_quotient_on_exhaustive_class_family():
    """Up to 3 twin classes of 1-4 members (at most 8 vertices) under every
    multiset of up to 4 hyperedges drawn from the 7 unions of classes, so a
    cycle may use one class up to 4 times, a class more often than it has
    members, the same middle class on both sides, or two members of a class
    next to each other."""
    rng = random.Random(6)
    unions = [edge for r in (1, 2, 3) for edge in combinations(range(3), r)]
    bases = [combo for count in range(5)
             for combo in combinations_with_replacement(unions, count)]
    shapes = [sizes for sizes in product(range(1, 5), repeat=3) if sum(sizes) <= 8]
    verdicts = set()
    for sizes in shapes:
        for base in bases:
            h = _blow_classes(sizes, base, rng)
            verdicts.add(_assert_quotient_agrees(h, 4, oracle=h.n <= 5))
    assert verdicts == {False, True}


def _class_family(largest, counts, fewest_vertices):
    """(sizes, base) for 3 twin classes of 1 to largest members, at least
    fewest_vertices and at most 8 vertices in all, under every multiset of
    hyperedges (unions of classes) whose size is in counts: one pair per
    orbit under renaming the classes, which only relabels vertices."""
    unions = [edge for r in (1, 2, 3) for edge in combinations(range(3), r)]
    renamings = list(permutations(range(3)))

    def renamed(sizes, base, to):
        moved = [0] * 3
        for i, size in enumerate(sizes):
            moved[to[i]] = size
        return tuple(moved), tuple(sorted(tuple(sorted(to[i] for i in e)) for e in base))

    for sizes in product(range(1, largest + 1), repeat=3):
        if not fewest_vertices <= sum(sizes) <= 8:
            continue
        for count in counts:
            for base in combinations_with_replacement(unions, count):
                key = renamed(sizes, base, (0, 1, 2))
                if all(key <= renamed(sizes, base, to) for to in renamings):
                    yield sizes, base


@pytest.mark.parametrize("k, largest, counts", [
    (2, 2, range(5)), (3, 3, range(5)), (5, 3, (5,)), (6, 3, (6,)), (7, 3, (7,))])
def test_quotient_walks_on_exhaustive_class_family(k, largest, counts):
    """The family above at the other cycle lengths, up to renaming the
    classes: classes of 1 to largest members (a Berge-Ck uses a class at
    most k times), and for k >= 5 exactly the k hyperedges a Berge-Ck uses
    on at least k vertices."""
    rng = random.Random(k)
    verdicts = set()
    for sizes, base in _class_family(largest, counts, min(counts)):
        h = _blow_classes(sizes, base, rng)
        verdicts.add(_assert_quotient_agrees(h, k, oracle=h.n <= 5))
    assert verdicts == {False, True}


def test_quotient_on_seeded_planted_twins():
    """Random hypergraphs whose vertices are copied into twin classes, with
    isolated vertices and duplicated hyperedges mixed in, at every cycle
    length; the brute-force oracles run where they are cheap."""
    for k, runs, most_edges, oracle_n in ((2, 800, 6, 7), (3, 800, 6, 7), (4, 2000, 6, 9),
                                          (5, 600, 8, 6), (6, 400, 8, 5)):
        rng = random.Random(20261018 + k)
        verdicts = {False: 0, True: 0}
        for _ in range(runs):
            base_n = rng.randint(2, 6)
            sizes = [rng.choice((1, 1, 2, 3, 4)) for _ in range(base_n)]
            base = [rng.sample(range(base_n), rng.randint(1, min(base_n, 3)))
                    for _ in range(rng.randint(1, most_edges))]
            base += rng.sample(base, rng.randint(0, len(base) // 2))  # duplicates
            h = _blow_classes(sizes, base, rng, isolated=rng.randint(0, 2))
            oracle = h.n <= oracle_n and len(h.hyperedges) <= 12
            verdicts[_assert_quotient_agrees(h, k, oracle=oracle)] += 1
        assert min(verdicts.values()) > runs // 5, k  # both verdicts well represented


@pytest.mark.parametrize("k", CYCLE_LENGTHS)
def test_witness_walk_matches_the_vertex_walk_on_twin_rich_inputs(k):
    """Two to four classes of up to five members with shuffled labels, under
    repeated unions of one or two classes, so that cycles repeat classes,
    and a few hyperedges on arbitrary vertices that split classes: the
    witness the class walk takes in member order is the vertex walk's
    (find_berge_cycle_by_masks, on one class per vertex), and each of its
    positions holds the least member of its class not held earlier.  For
    k >= 3 many witnesses order two of their classes one way and those
    classes' vertices the other, which tells walks in member order from
    walks in class order."""
    rng = random.Random(20261019 + k)
    verdicts = {False: 0, True: 0}
    reordered = 0
    for _ in range(300):
        base_n = rng.randint(2, 4)
        sizes = [rng.randint(1, 5) for _ in range(base_n)]
        base = [rng.sample(range(base_n), rng.randint(1, 2))
                for _ in range(rng.randint(k - 1, k + 3))]
        h = _blow_classes(sizes, base, rng, isolated=rng.randint(0, 1))
        h = bf.Hypergraph(h.n, h.hyperedges + tuple(
            frozenset(rng.sample(range(h.n), min(h.n, rng.randint(2, 3))))
            for _ in range(rng.randint(0, 2))))
        witness = bf.find_berge_cycle(h, k)
        assert witness == find_berge_cycle_by_masks(h, k), (k, h)
        if witness is not None:
            classes = twin_classes(h)
            _assert_least_free_members(classes, witness)
            placed = [(classes.of_vertex[v], v) for v in witness.vertices]
            reordered += any((c < d) != (u < v)
                             for (c, u), (d, v) in combinations(placed, 2) if c != d)
        verdicts[witness is not None] += 1
    assert min(verdicts.values()) > 50, verdicts
    if k >= 3:
        assert reordered > 20, reordered


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_quotient_on_relabelled_blowups(q):
    """Blow-ups are Berge-C4- and C5-free, with and without one hyperedge,
    and have cycles of lengths 2, 3 and 6; every length is checked up to
    q = 3, where the vertex-level search still decides C5-freeness quickly."""
    base = bf.projective_plane_incidence(q).graph()
    count = q * q + q + 1  # points are 0..count-1, lines count..2count-1
    rng = random.Random(q)
    relabel = rng.sample(range(3 * 2 * count), 3 * 2 * count)
    edges = sorted(base.edges)
    lengths = CYCLE_LENGTHS if q <= 3 else (4,)

    def blown(extra=()):
        # base vertex x is the class {3x, 3x+1, 3x+2}, relabelled
        hyperedges = [frozenset(relabel[3 * x + i] for x in edge for i in range(3))
                      for edge in list(edges) + list(extra)]
        rng.shuffle(hyperedges)
        return bf.Hypergraph(6 * count, tuple(hyperedges))

    h = blown()
    for k in lengths:
        assert _assert_quotient_agrees(h, k) == (k not in (4, 5))
    edges.pop(rng.randrange(len(edges)))
    h = blown()
    for k in lengths:
        assert _assert_quotient_agrees(h, k) == (k not in (4, 5))
    # two points share a line; one more hyperedge on their classes closes
    # a Berge-C4 that passes through two members of one class, and a
    # Berge-C5 through all three members of one point's class
    p1, p2 = rng.sample(range(count), 2)
    h = blown([(p1, p2)])
    for k in lengths:
        assert _assert_quotient_agrees(h, k)


def test_quotient_on_relabelled_q7_blowups_with_planted_hyperedges():
    """The q = 7 blow-up, relabelled, with one or two planted hyperedges: a
    copy of a hyperedge (two classes then share two hyperedges), the union
    of two whole classes, or a few vertices that split their classes."""
    base = bf.projective_plane_incidence(7).graph()
    classes = [range(3 * x, 3 * x + 3) for x in range(base.n)]
    n = 3 * base.n
    rng = random.Random(77)
    verdicts = {False: 0, True: 0}
    for _ in range(12):
        hyperedges = [frozenset(v for x in edge for v in classes[x])
                      for edge in sorted(base.edges)]
        for _ in range(rng.randint(1, 2)):
            kind = rng.randrange(3)
            if kind == 0:
                hyperedges.append(rng.choice(hyperedges))
            elif kind == 1:
                hyperedges.append(frozenset(v for x in rng.sample(range(base.n), 2)
                                            for v in classes[x]))
            else:
                hyperedges.append(frozenset(rng.sample(range(n), rng.randint(2, 4))))
        relabel = rng.sample(range(n), n)
        rng.shuffle(hyperedges)
        h = bf.Hypergraph(n, tuple(frozenset(relabel[v] for v in e) for e in hyperedges))
        verdicts[_assert_quotient_agrees(h, 4)] += 1
    assert verdicts[True] > 0, verdicts


def _planted_blowup(q, rng, planted):
    """The q blow-up, relabelled and shuffled, with planted extra
    hyperedges: a copy of a hyperedge (two classes then share two), the
    union of two whole classes, a few random vertices that split their
    classes, or a whole class with one vertex of another."""
    base = bf.projective_plane_incidence(q).graph()
    classes = [range(3 * x, 3 * x + 3) for x in range(base.n)]
    n = 3 * base.n
    hyperedges = [frozenset(v for x in edge for v in classes[x]) for edge in sorted(base.edges)]
    for _ in range(planted):
        kind = rng.randrange(4)
        if kind == 0:
            hyperedges.append(rng.choice(hyperedges))
        elif kind == 1:
            hyperedges.append(frozenset(v for x in rng.sample(range(base.n), 2)
                                        for v in classes[x]))
        elif kind == 2:
            hyperedges.append(frozenset(rng.sample(range(n), rng.randint(2, 4))))
        else:
            hyperedges.append(frozenset(classes[rng.randrange(base.n)]) | {rng.randrange(n)})
    relabel = rng.sample(range(n), n)
    rng.shuffle(hyperedges)
    return bf.Hypergraph(n, tuple(frozenset(relabel[v] for v in e) for e in hyperedges))


@pytest.mark.parametrize("q", [7, 11, 13])
def test_gate_on_id_lists_matches_the_mask_gate_on_planted_blowups(q):
    """Relabelled q = 7, 11 and 13 blow-ups with 1 to 3 planted hyperedges:
    the gate on id lists gives the twin classes, the least class and the
    witness of the gate on full-width incidence masks, which it replaced;
    at q = 7 the vertex-level references agree too."""
    rng = random.Random(1000 + q)
    verdicts = {False: 0, True: 0}
    for trial in range(12 if q == 7 else 5):
        h = _planted_blowup(q, rng, 1 + trial % 3)
        if q == 7:
            verdicts[_assert_quotient_agrees(h, 4)] += 1
            continue
        classes = twin_classes(h)
        masks, sizes, adj, firsts = twin_classes_by_masks(h, incidence_masks(h))
        assert (key_masks(classes), classes.sizes, classes.adj) == (masks, sizes, adj)
        _assert_ck_starts_cover_walks(classes, 4)
        a = least_class(classes, 4)
        assert a == quotient_class_by_masks(masks, sizes, adj, 4), (q, trial)
        witness = bf.find_berge_cycle(h, 4)
        assert witness == find_berge_cycle_by_masks(h, 4), (q, trial)
        assert (witness is None) == (a is None)
        verdicts[witness is not None] += 1
    assert verdicts[True] > 0, verdicts


@pytest.mark.parametrize("q", [2, 3, 5])
def test_free_blowup_builds_no_hyperedge_masks(q, monkeypatch):
    """A free blow-up has no start at k = 4: its class graph has girth 6,
    and each class shares one hyperedge with each neighbour.  So the
    gate's start filter yields no class and the gate builds no hyperedge
    mask."""
    def refuse(*args):
        raise AssertionError("the k = 4 gate built hyperedge masks on a free blow-up")

    monkeypatch.setattr(berge, "_walk_masks", refuse)
    h = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
    assert bf.find_berge_cycle(h, 4) is None


# The full-width incidence masks of the q = 31 blow-up (5,958 vertices,
# 31,776 hyperedges) alone take about 24 MB; the gate on id lists peaks
# well below this bound, which the mask gate exceeds.
Q31_PEAK_BOUND = 14 << 20


def test_gate_on_the_q31_blowup_stays_under_a_memory_bound():
    """At k = 4 (free) and k = 3 (three twins of a point in three of its
    lines) the two detectors give the same answer, and the one on id lists
    peaks under the bound, which the mask detector exceeds.  At k = 3 the
    walk's masks cover only the hyperedges near its start class, so the
    peak stays within 1 MB of the k = 4 one, which builds no mask at all;
    masks over every hyperedge would add about 4.7 MB."""
    import tracemalloc
    h = bf.blow_up(bf.projective_plane_incidence(31).graph(), 3)
    fast_peaks = {}
    for k in (4, 3):
        answers, peaks = [], []
        for detector in (bf.find_berge_cycle, find_berge_cycle_by_masks):
            tracemalloc.start()
            try:
                answers.append(detector(h, k))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        fast, masks = peaks
        assert answers[0] == answers[1] and (answers[0] is None) == (k == 4), (k, answers)
        assert fast < Q31_PEAK_BOUND < masks, (k, fast, masks)
        fast_peaks[k] = fast
    assert fast_peaks[3] < fast_peaks[4] + (1 << 20), fast_peaks


def _watch_the_k4_gate(monkeypatch):
    """Patch berge so that the k = 4 gate raises when it walks from any
    class but the last one its start filter (_ck_starts) yielded, or from
    that class twice, or on members other than its classes', or tests
    Hall's condition outside a walk, and records the classes it walks from,
    in the returned list, which each run of the gate empties first.  Walks
    outside the gate are neither refused nor recorded."""
    gate, starts_of = berge._twin_quotient_has_cycle, berge._ck_starts
    walk, hall = berge._closed_walk, berge._hall
    inside = []
    in_walk = []
    yielded = []
    walked = []

    def watched_starts(classes, k):
        for a in starts_of(classes, k):
            yielded.append(a)
            yield a

    def watched_walk(masks, sizes, adj, k, a, members):
        if inside:
            if yielded[-1:] != [a] or len(walked) == len(yielded):
                raise AssertionError(f"the k = 4 gate walked from {a}, "
                                     f"which its start filter did not just yield")
            if members is not inside[-1].members:
                raise AssertionError("the k = 4 gate walked without its classes' members")
            walked.append(yielded[-1])
        in_walk.append(True)
        try:
            return walk(masks, sizes, adj, k, a, members)
        finally:
            in_walk.pop()

    def watched_hall(slots):
        if inside and not in_walk:
            raise AssertionError("the k = 4 gate tested Hall's condition outside a walk")
        return hall(slots)

    def watched_gate(classes, k):
        if k != 4:
            return gate(classes, k)
        yielded.clear()
        walked.clear()
        inside.append(classes)
        try:
            return gate(classes, k)
        finally:
            inside.pop()

    monkeypatch.setattr(berge, "_twin_quotient_has_cycle", watched_gate)
    monkeypatch.setattr(berge, "_ck_starts", watched_starts)
    monkeypatch.setattr(berge, "_closed_walk", watched_walk)
    monkeypatch.setattr(berge, "_hall", watched_hall)
    return walked


def test_fold_alone_decides_linear_twin_free_inputs(monkeypatch):
    """Without twins and with no two hyperedges sharing two vertices no
    class has four members or shares two hyperedges with a neighbour, so
    the k = 4 gate walks only from classes whose upper neighbours' rows,
    folded, have an end seen twice or an edge among those neighbours; and
    it names the least class that the full-width mask fold names
    (c4_class_by_mask_fold).  The canonical witness comes back with both
    verdicts."""
    walked = _watch_the_k4_gate(monkeypatch)
    rng = random.Random(9)
    verdicts = {False: 0, True: 0}
    walks = 0
    while sum(verdicts.values()) < 300:
        n = rng.randint(5, 10)
        edges = []
        for _ in range(rng.randint(3, 9)):
            edge = frozenset(rng.sample(range(n), rng.randint(2, 4)))
            if all(len(edge & other) <= 1 for other in edges):
                edges.append(edge)
        h = bf.Hypergraph(n, tuple(edges))
        classes = twin_classes(h)
        if max(classes.sizes, default=1) > 1:
            continue
        masks, sizes, adj, _ = twin_classes_by_masks(h, incidence_masks(h))
        free = [row & ~(1 << i) for i, row in enumerate(adj)]
        found = berge._twin_quotient_has_cycle(classes, 4)
        for c in walked:
            uppers = free[c] >> (c + 1) << (c + 1)
            assert dup_ends_by_masks(free, c) or any(
                free[b] & uppers for b in iter_bits(uppers)), (c, h)
        assert (None if found is None else found[0][0]) == c4_class_by_mask_fold(masks, sizes, adj), h
        walks += len(walked)
        witness = bf.find_berge_cycle(h, 4)
        assert witness == canonical_c4_by_enumeration(h), h
        verdicts[witness is not None] += 1
    assert min(verdicts.values()) > 50, verdicts
    assert walks > verdicts[True], (walks, verdicts)  # some walks find no cycle


# Each input has a Berge-C4 of one repeated-class walk only, on the classes
# of the vertices from 4 up; vertices 0-3 sit below it and carry either no
# trigger (a path) or a trigger with no Berge-C4 through it (a triangle on
# the twins {0, 1} whose class lies in only two hyperedges).
PREFIXES = {
    "path": ({0, 1}, {1, 2}, {2, 3}),
    "free_trigger": ({0, 1, 2}, {2, 3}, {0, 1, 3}),
}
REPEATED_CLASS_WALKS = {
    # a triangle of the loop-free class graph through a class of 2+ members
    "a-a-c-d": ({4, 5, 6}, {6, 7}, {4, 5, 7}, {4, 5}),
    "a-b-b-d": ({4, 5, 6}, {5, 6}, {5, 6, 7}, {4, 7}),
    "a-b-c-c": ({4, 5}, {5, 6, 7}, {6, 7}, {4, 6, 7}),
    # two classes that share two or more hyperedges
    "a-b-a-d": ({4, 5, 6}, {4, 5, 6}, {4, 5, 7}, {4, 5, 7}),
    "a-b-c-b": ({4, 5, 6}, {4, 5, 6}, {5, 6, 7}, {5, 6, 7}),
    "a-a-c-c": ({4, 5, 6, 7}, {4, 5, 6, 7}, {4, 5}, {6, 7}),
    "a-a-a-d": ({4, 5, 6, 7}, {4, 5, 6, 7}, {4, 5, 6}, {4, 5, 6}),
    # a class of four or more members
    "a-a-a-a": ({4, 5, 6, 7},) * 4,
}


@pytest.mark.parametrize("prefix", sorted(PREFIXES))
@pytest.mark.parametrize("walk", sorted(REPEATED_CLASS_WALKS))
def test_each_repeated_class_walk_is_found(walk, prefix, monkeypatch):
    """The gate finds a Berge-C4 whose least class is the class of vertex
    4, above classes with no Berge-C4, for each walk that repeats a class;
    the only Berge-C4 walk on the classes is the named one, so a start
    filter that overlooked its trigger would not walk from it."""
    walked = _watch_the_k4_gate(monkeypatch)
    h = bf.Hypergraph(8, tuple(frozenset(e) for e in
                               PREFIXES[prefix] + REPEATED_CLASS_WALKS[walk]))
    classes = twin_classes(h)
    a = classes.of_vertex[4]
    assert classes.members[a][0] == 4
    letters = walk.split("-")  # one class per letter, in order from a
    assert classes.sizes[a:] == [letters.count(x) for x in sorted(set(letters))], walk
    assert berge._twin_quotient_has_cycle(classes, 4)[0][0] == a == walked[-1]
    witness = bf.find_berge_cycle(h, 4)
    assert witness == canonical_c4_by_enumeration(h) and witness.vertices[0] == 4
    assert _assert_quotient_agrees(h, 4)


@pytest.mark.parametrize("copies", range(1, 6))
def test_large_class_starts_a_walk_by_its_size_only_in_four_hyperedges(copies):
    """The a-a-a-a walk on a class of four or more members needs four
    hyperedges of its key, so the start filter yields such a class by its
    size only when it lies in four or more; with fewer it falls through to
    the other conditions, here two hyperedges shared with the class of
    vertex 5 when that vertex is added to two of the copies, which makes
    both classes starts."""
    h = bf.Hypergraph(6, (frozenset(range(5)),) * copies)
    assert list(berge._ck_starts(twin_classes(h), 4)) == ([0] if copies >= 4 else [])
    assert _assert_quotient_agrees(h, 4, oracle=True) == (copies >= 4)
    if copies >= 3:
        shared = bf.Hypergraph(6, (frozenset(range(6)),) * 2 + h.hyperedges[2:])
        assert list(berge._ck_starts(twin_classes(shared), 4)) == [0, 1]
        assert _assert_quotient_agrees(shared, 4, oracle=True) == (copies >= 4)


WALK_LENGTHS = tuple(range(2, 8))


@pytest.mark.parametrize("k", WALK_LENGTHS)
def test_ck_starts_yield_the_least_class_of_each_kind_of_walk(k):
    """One input per condition of the start filter, each with a
    Berge-Ck whose least class is class 0 and that meets no other of the
    conditions there:
    (i) the graph cycle C_k, one class per vertex, one hyperedge per
        neighbour pair: the ball of radius k // 2 around class 0 holds the
        whole cycle, which a ball of radius k // 2 - 1 misses.  C_{k+1}
        has no start: at odd k the ball is a path, and at even k the one
        edge that closes it lies inside the last level, where no step of
        a closed k-walk lies, and the filter does not test it;
    (ii) classes A of ceil(k/2) and B of floor(k/2) members in k shared
        hyperedges, and one more on A alone: the walk alternates them (with
        one A-A step when k is odd), and the ball {A, B} is a tree;
    (iii) one class of k members in k copies of one hyperedge (in k - 1 it
        has no Berge-Ck, and no start)."""
    if k >= 3:
        cycle = bf.Hypergraph(k, tuple(frozenset({i, (i + 1) % k}) for i in range(k)))
        assert list(berge._ck_starts(twin_classes(cycle), k)) == [0]
        assert _assert_quotient_agrees(cycle, k)
        shorter = bf.Hypergraph(k, cycle.hyperedges[1:])  # a path: no start
        assert list(berge._ck_starts(twin_classes(shorter), k)) == []
        assert not _assert_quotient_agrees(shorter, k)
    longer = bf.Hypergraph(k + 1, tuple(frozenset({i, (i + 1) % (k + 1)}) for i in range(k + 1)))
    assert list(berge._ck_starts(twin_classes(longer), k)) == []
    assert not _assert_quotient_agrees(longer, k)
    half = (k + 1) // 2
    pair = bf.Hypergraph(k, (frozenset(range(k)),) * k + (frozenset(range(half)),))
    classes = twin_classes(pair)
    assert classes.sizes == [half, k - half] and classes.meets[0] > 1
    assert list(berge._ck_starts(classes, k))[:1] == [0]
    assert _assert_quotient_agrees(pair, k)
    for copies in (k - 1, k):
        copied = bf.Hypergraph(k, (frozenset(range(k)),) * copies)
        assert list(berge._ck_starts(twin_classes(copied), k)) == [0] * (copies == k)
        assert _assert_quotient_agrees(copied, k) == (copies == k)


def _twin_rich_inputs(k: int):
    """150 seeded inputs for length k: up to six classes of up to seven
    members under hyperedges on one to three classes, some repeated, and a
    few on arbitrary vertices that split classes."""
    rng = random.Random(20261020 + k)
    for _ in range(150):
        base_n = rng.randint(2, 6)
        sizes = [rng.choice((1, 1, 2, 3, 4, 7)) for _ in range(base_n)]
        base = [rng.sample(range(base_n), rng.randint(1, min(base_n, 3)))
                for _ in range(rng.randint(1, k + 3))]
        base += rng.sample(base, rng.randint(0, len(base) // 2))  # repeats
        h = _blow_classes(sizes, base, rng, isolated=rng.randint(0, 2))
        yield bf.Hypergraph(h.n, h.hyperedges + tuple(
            frozenset(rng.sample(range(h.n), min(h.n, rng.randint(2, 3))))
            for _ in range(rng.randint(0, 2))))


@pytest.mark.parametrize("k", WALK_LENGTHS)
def test_ck_starts_cover_every_walk_on_seeded_twin_rich_inputs(k):
    """On the seeded twin-rich inputs (_twin_rich_inputs) the start filter
    yields every class from which the closed walk alone finds a walk, and
    the gate's least class and the witness are the vertex-level
    reference's (_assert_quotient_agrees)."""
    verdicts = {False: 0, True: 0}
    for h in _twin_rich_inputs(k):
        verdicts[_assert_quotient_agrees(h, k)] += 1
    assert min(verdicts.values()) > 25, verdicts


@pytest.mark.parametrize("k", WALK_LENGTHS)
def test_walk_masks_match_breadth_first_distances(k):
    """The gate's hyperedge masks and near ids (_walk_masks) from every
    class equal the reference from breadth-first distances over the class
    rows (walk_masks_by_distance), on the seeded twin-rich inputs and on
    relabelled q = 3 blow-ups with planted hyperedges."""
    rng = random.Random(3000 + k)
    inputs = [*_twin_rich_inputs(k), *(_planted_blowup(3, rng, 1 + i % 3) for i in range(6))]
    for h in inputs:
        classes = twin_classes(h)
        for a in range(len(classes.keys)):
            assert berge._walk_masks(classes, a, k) == walk_masks_by_distance(classes, a, k), (k, a)


def test_a_gate_and_witness_call_leaves_nothing_for_the_cycle_collector():
    """With the cycle collector off, detection frees everything it built
    by reference counting alone: no closure of the walk holds itself, at
    every length, with a cycle found and without."""
    loose = bf.Hypergraph(10, tuple(frozenset({i, (i + 1) % 5, 5 + i}) for i in range(5)))
    twinned = bf.blow_up(bf.projective_plane_incidence(2).graph(), 3)
    gc.collect()
    gc.disable()
    try:
        for h in (loose, twinned):
            for k in range(2, 8):
                bf.find_berge_cycle(h, k)
                assert gc.collect() == 0, k
    finally:
        gc.enable()


# -- where the twin gate runs ----------------------------------------------

@pytest.mark.parametrize("k", CYCLE_LENGTHS)
def test_twin_free_input_enters_the_class_search(k, monkeypatch):
    """Inputs without twins go through the class search, on classes of one
    member each: one closed walk from each class the start filter
    (_ck_starts) yields, in order, up to the
    first that finds a cycle, and no walk when it yields none; nothing is
    walked after it: the walk the gate returns holds the classes of the
    witness, in order.  find_berge_cycle returns the canonical witness:
    the loose cycles, whose only cycle is known, and seeded random inputs,
    checked against the canonical enumerator up to 9 vertices and the
    naive oracle up to 12."""
    entered = []
    returned = []
    walk, quotient = berge._closed_walk, berge._twin_quotient_has_cycle

    def counted_walk(masks, sizes, adj, k, a, members):
        entered.append(a)
        return walk(masks, sizes, adj, k, a, members)

    def recorded_quotient(classes, k):
        returned.append(quotient(classes, k))
        return returned[-1]

    monkeypatch.setattr(berge, "_closed_walk", counted_walk)
    monkeypatch.setattr(berge, "_twin_quotient_has_cycle", recorded_quotient)

    def assert_canonical(h):
        classes = twin_classes(h)
        assert classes.sizes == [1] * len(classes.sizes)
        entered.clear()
        returned.clear()
        witness = bf.find_berge_cycle(h, k)
        if k <= len(h.hyperedges):  # else there is nothing to search
            starts = list(berge._ck_starts(classes, k))
            [found] = returned
            if witness is None:
                assert found is None
                assert entered == starts
            else:
                assert found[0] == tuple(map(classes.of_vertex.__getitem__, witness.vertices))
                assert entered == starts[:starts.index(found[0][0]) + 1]
        if h.n <= 9:
            assert witness == canonical_cycle_by_enumeration(h, k), (k, h)
        elif h.n <= 12:
            assert (witness is None) == (bf.naive_berge_oracle(h, k) is None), (k, h)
        return witness

    # loose cycles: every vertex lies in its own set of hyperedges
    for length in range(3, 9):
        h = bf.Hypergraph(2 * length, tuple(
            frozenset({i, (i + 1) % length, length + i}) for i in range(length)))
        witness = assert_canonical(h)
        cycle = tuple(range(length))
        assert witness == (bf.BergeCycleWitness(cycle, cycle) if length == k else None)
    rng = random.Random(k)
    verdicts = {False: 0, True: 0}
    while sum(verdicts.values()) < 50:
        n = rng.randint(max(k, 4), 9)
        h = bf.Hypergraph(n, tuple(frozenset(rng.sample(range(n), rng.randint(2, 4)))
                                   for _ in range(rng.randint(k, 8))))
        if max(twin_classes(h).sizes) == 1:
            verdicts[assert_canonical(h) is not None] += 1
    assert min(verdicts.values()) > 0, verdicts


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("k", [4, 5])
def test_free_blowup_never_reaches_the_vertex_search(q, k, monkeypatch):
    """A free blow-up is decided by the gate's start filter alone: no walk
    runs and no Hall test.  Its classes have three members, share one
    hyperedge with each neighbour, and the class graph has girth 6, so
    every ball of radius 2 is a tree: the start filter yields no class at
    k = 4 or 5, so no hyperedge mask is built either."""
    walked = _watch_the_k4_gate(monkeypatch)
    hall, hall_results = berge._hall, []

    def refuse_the_walk(*args):
        raise AssertionError("a walk ran on a free blow-up")

    def refuse_the_masks(*args):
        raise AssertionError("the gate built hyperedge masks on a free blow-up")

    def counted_hall(slots):
        hall_results.append(hall(slots))
        return hall_results[-1]

    monkeypatch.setattr(berge, "_closed_walk", refuse_the_walk)
    monkeypatch.setattr(berge, "_walk_masks", refuse_the_masks)
    monkeypatch.setattr(berge, "_hall", counted_hall)
    h = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
    assert bf.find_berge_cycle(h, k) is None
    assert walked == []
    assert hall_results == []


def _planted_q2_blowup(k: int) -> bf.Hypergraph:
    """The relabelled blow-up of the Fano plane, Berge-C4- and C5-free,
    with one more hyperedge on the classes of points 0 and 1, which share a
    line: that closes both."""
    base = bf.projective_plane_incidence(2).graph()
    rng = random.Random(k)
    relabel = rng.sample(range(42), 42)
    edges = sorted(base.edges) + [(0, 1)]
    return bf.Hypergraph(42, tuple(frozenset(relabel[3 * x + i] for x in e for i in range(3))
                                   for e in edges))


@pytest.mark.parametrize("k", [4, 5])
def test_twinned_cycle_search_tries_one_start_vertex(k, monkeypatch):
    """On a twinned input with a cycle, the gate walks from one class at a
    time, in ascending order, the last of them the least class it reports,
    whose smallest member is v1, and nothing is walked after the gate: the
    classes of the gate's walk, each giving out its members in order, are
    the witness of the vertex-level reference, which finds v1 on one class
    per vertex, and the hyperedges come from the masks with which the
    gate's last walk found it."""
    h = _planted_q2_blowup(k)
    expected = first_cycle_by_vertex_classes(h, k)
    assert expected is not None and expected.vertices[0] > 0
    gate, walk = berge._twin_quotient_has_cycle, berge._closed_walk
    found, walked = [], []

    def recorded_gate(classes, k):
        found.append(gate(classes, k))
        return found[-1]

    def recorded_walk(masks, sizes, adj, k, a, members):
        walked.append((a, masks))
        return walk(masks, sizes, adj, k, a, members)

    monkeypatch.setattr(berge, "_twin_quotient_has_cycle", recorded_gate)
    monkeypatch.setattr(berge, "_closed_walk", recorded_walk)
    assert bf.find_berge_cycle(h, k) == expected
    [(cycle, masks, _)] = found
    starts = [a for a, _ in walked]
    assert starts == sorted(set(starts)) and starts[-1] == cycle[0]
    assert walked[-1][1] is masks
    classes = twin_classes(h)
    assert classes.members[cycle[0]][0] == expected.vertices[0]
    assert tuple(map(classes.of_vertex.__getitem__, expected.vertices)) == cycle


@pytest.mark.parametrize("k", range(2, 8))
def test_detection_walks_only_inside_the_gate_and_on_members(k, monkeypatch):
    """find_berge_cycle runs _closed_walk only inside
    _twin_quotient_has_cycle, always on the members of the twin classes
    the gate was given, and the walk the gate returns holds the classes of
    the witness, in order, each position the least member of its class not
    held earlier: on the loose cycles, the planted q = 2 blow-up and seeded
    twin-rich inputs.  Some of those carry rows with no vertex, whose ids
    lie in no class key, so the near hyperedges skip them; the witness,
    hyperedge ids included, is the full-width mask detector's
    (find_berge_cycle_by_masks)."""
    gate, walk = berge._twin_quotient_has_cycle, berge._closed_walk
    inside, returned = [], []
    walks = 0

    def watched_gate(classes, k):
        inside.append(classes)
        try:
            returned.append(gate(classes, k))
        finally:
            inside.pop()
        return returned[-1]

    def watched_walk(masks, sizes, adj, k, a, members):
        nonlocal walks
        if not inside:
            raise AssertionError("a closed walk ran outside the gate")
        if members is not inside[-1].members:
            raise AssertionError("the gate walked without its classes' members")
        walks += 1
        return walk(masks, sizes, adj, k, a, members)

    monkeypatch.setattr(berge, "_twin_quotient_has_cycle", watched_gate)
    monkeypatch.setattr(berge, "_closed_walk", watched_walk)
    inputs = [bf.Hypergraph(2 * length, tuple(
        frozenset({i, (i + 1) % length, length + i}) for i in range(length)))
        for length in range(3, 9)]
    inputs.append(_planted_q2_blowup(k))
    rng = random.Random(20261021 + k)
    for _ in range(100):
        base_n = rng.randint(2, 5)
        sizes = [rng.randint(1, 4) for _ in range(base_n)]
        base = [rng.sample(range(base_n), rng.randint(1, 2))
                for _ in range(rng.randint(k - 1, k + 3))]
        h = _blow_classes(sizes, base, rng, isolated=rng.randint(0, 1))
        rows = list(h.hyperedges) + [
            frozenset(rng.sample(range(h.n), min(h.n, rng.randint(2, 3))))
            for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), frozenset())
        inputs.append(bf.Hypergraph(h.n, tuple(rows)))
    verdicts = {False: 0, True: 0}
    for h in inputs:
        returned.clear()
        witness = bf.find_berge_cycle(h, k)
        assert witness == find_berge_cycle_by_masks(h, k), (k, h)
        verdicts[witness is not None] += 1
        if witness is not None:
            classes = twin_classes(h)
            [(cycle, _, _)] = returned
            assert tuple(map(classes.of_vertex.__getitem__, witness.vertices)) == cycle, (k, h)
            _assert_least_free_members(classes, witness)
    assert min(verdicts.values()) > 10, verdicts
    # at k = 2 the filter yields a class with two members in two hyperedges,
    # which has a walk, or one that shares two hyperedges with a neighbour,
    # which is yielded too; the lower of the two has a walk and comes first,
    # so the one walk a call runs finds its cycle
    assert walks == verdicts[True] if k == 2 else walks > verdicts[True], (verdicts, walks)
