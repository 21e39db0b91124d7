"""Projective plane incidence graphs, blow-ups, and bound comparators."""

import json
import math
import random

import pytest
from hypothesis import given

import bergefree as bf
from bergefree.constructions import (
    PRIME_TEST_LIMIT,
    largest_fitting_prime,
    plane_blow_up_json,
)
from bergefree.core import dumps_canonical, iter_bits
from conftest import graphs
from oracles import (
    degree_stats,
    has_c4_by_common_neighbors,
    is_prime_by_trial_division,
    largest_fitting_prime_upward,
    plane_incidence_by_dot_products,
    points_on,
    prime_sieve,
    primes_up_to,
)


def test_prime_detection():
    primes = [q for q in range(30) if bf.is_prime(q)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_matches_sieve_to_one_million():
    sieve = prime_sieve(10**6)
    assert [q for q in range(-5, 10**6 + 1) if bf.is_prime(q)] == \
        [q for q in range(10**6 + 1) if sieve[q]]


def test_is_prime_matches_trial_division_to_10_12():
    primes = primes_up_to(10**6)
    rng = random.Random(12)
    draws = [rng.randrange(10**6, 10**12) for _ in range(300)]
    # products of two primes near 10^6 have no small factor at all
    draws += [rng.choice(primes[-5000:]) * rng.choice(primes[-5000:]) for _ in range(50)]
    draws += [999_999_999_989, 10**12, 408241, 999_966_733_937]
    for q in draws:
        assert bf.is_prime(q) == is_prime_by_trial_division(q, primes), q


# Strong pseudoprimes to every prime base up to 2, 3, 5, 7, 11, 13, 17, 23
# and 37 in turn; all composite, so bases 2..41 must reject each of them.
STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                       3474749660383, 341550071728321, 3825123056546413051,
                       318665857834031151167461]


def test_is_prime_rejects_strong_pseudoprimes():
    for q in STRONG_PSEUDOPRIMES:
        assert not bf.is_prime(q), q
    # the two factors of the last one, and the Mersenne prime 2^61 - 1
    assert 399165290221 * 798330580441 == STRONG_PSEUDOPRIMES[-1]
    assert bf.is_prime(2**61 - 1)


def test_is_prime_refuses_beyond_its_proven_range():
    assert 1287836182261 * 2575672364521 == PRIME_TEST_LIMIT  # a pseudoprime to 2..41
    with pytest.raises(ValueError, match="proven range"):
        bf.is_prime(PRIME_TEST_LIMIT)
    # the first n on which the limit itself fits, and the n just below it
    first = 6 * (PRIME_TEST_LIMIT ** 2 + PRIME_TEST_LIMIT + 1)
    with pytest.raises(ValueError, match="proven range"):
        largest_fitting_prime(first)
    assert largest_fitting_prime(first - 1) < PRIME_TEST_LIMIT


def test_largest_fitting_prime_matches_upward_walk_to_20000():
    for n in range(-6, 20001):
        assert largest_fitting_prime(n) == largest_fitting_prime_upward(n), n


# 408241 is prime and 6(q^2+q+1) = 999_966_733_938 for it.
@pytest.mark.parametrize("n", [10**8, 10**10 + 7, 999_966_733_937, 999_966_733_938,
                               999_999_999_999, 10**12])
def test_largest_fitting_prime_matches_upward_walk_large(n):
    assert largest_fitting_prime(n) == largest_fitting_prime_upward(n)


def test_plane_q2_is_heawood(heawood_graph):
    plane = bf.projective_plane_incidence(2)
    assert len(plane.points) == len(plane.lines) == 7
    g = heawood_graph
    assert g.n == 14
    assert len(g.edges) == 21
    degrees, avg = degree_stats(g)
    assert set(degrees) == {3} and avg == 3.0
    assert not has_c4_by_common_neighbors(g)


def test_plane_q3_counts():
    plane = bf.projective_plane_incidence(3)
    assert bf.certify_plane_blowup_free(plane).certified
    g = plane.graph()
    assert len(plane.points) == 13
    assert g.n == 26
    assert len(g.edges) == 52
    degrees, _ = degree_stats(g)
    assert set(degrees) == {4}
    assert not has_c4_by_common_neighbors(g)


def test_heawood_girth_is_six(heawood_graph):
    assert bf.find_triangle(heawood_graph) is None
    assert bf.find_c4_in_graph(heawood_graph) is None
    # a 6-cycle exists: point on line, line through next point, ...
    # breadth-first from any vertex must close a cycle at depth 3
    from collections import deque
    g = heawood_graph
    best = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in iter_bits(g.adjacency_masks[x]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    cycle_len = dist[x] + dist[y] + 1
                    best = cycle_len if best is None else min(best, cycle_len)
    assert best == 6


PRIMES_TO_31 = [q for q in range(32) if bf.is_prime(q)]


@pytest.mark.parametrize("q", PRIMES_TO_31)
def test_plane_incidence_matches_dot_product_definition(q):
    assert bf.projective_plane_incidence(q).graph().edges == plane_incidence_by_dot_products(q)


PRIMES_TO_97 = [q for q in range(98) if bf.is_prime(q)]


@pytest.mark.parametrize("q", PRIMES_TO_97)
def test_lines_through_a_point_are_the_points_on_its_dual_line(q):
    plane = bf.projective_plane_incidence(q)
    assert plane.lines_through == tuple(tuple(points_on(point, q)) for point in plane.points)


@pytest.mark.parametrize("q", PRIMES_TO_31)
def test_plane_blow_up_rows_match_blow_up_oracle(q):
    plane = bf.projective_plane_incidence(q)
    rows = bf.plane_blow_up_rows(plane)
    oracle = bf.blow_up(plane.graph(), 3)
    assert [list(row) for row in rows] == [sorted(h) for h in oracle.hyperedges]


@pytest.mark.parametrize("q", PRIMES_TO_31)
def test_plane_blow_up_json_matches_encoded_rows(q):
    plane = bf.projective_plane_incidence(q)
    rows = bf.plane_blow_up_rows(plane)
    base = 6 * len(plane.points)
    for n in (base, base + 1, base + 50):
        text = "".join(plane_blow_up_json(plane, n))
        assert text == dumps_canonical({"n": n, "hyperedges": rows})


def test_plane_blow_up_json_skips_a_point_on_no_line():
    plane = bf.PlaneIncidence(q=2, points=((1, 0, 0), (0, 1, 0)),
                              lines=((1, 0, 0), (0, 1, 0)), lines_through=((), (0, 1)))
    assert "".join(plane_blow_up_json(plane, 12)) == \
        dumps_canonical({"n": 12, "hyperedges": bf.plane_blow_up_rows(plane)}) == \
        '{"n":12,"hyperedges":[[3,4,5,6,7,8],[3,4,5,9,10,11]]}\n'


@pytest.mark.parametrize("q", PRIMES_TO_31)
def test_plane_certificate_matches_graph_certificate(q):
    plane = bf.projective_plane_incidence(q)
    certificate = bf.certify_plane_blowup_free(plane)
    assert certificate.certified
    assert json.dumps(certificate.to_json_dict()) == \
        json.dumps(bf.certify_blowup_free(plane.graph()).to_json_dict())


def _corrupted_plane(q, seed):
    """PG(2, q) with a few line lists changed: lines dropped from some
    points (no C4 can appear) and, in about half the seeds, a line added
    to a point off it, which then shares two lines with every other point
    of that line."""
    plane = bf.projective_plane_incidence(q)
    count = len(plane.points)
    rng = random.Random(seed)
    lists = [set(lines) for lines in plane.lines_through]
    for _ in range(rng.randint(0, 3)):
        lists[rng.randrange(count)].discard(rng.randrange(count))
    for _ in range(rng.choice([0, 0, 1, 2])):
        lists[rng.randrange(count)].add(rng.randrange(count))
    return bf.PlaneIncidence(q, plane.points, plane.lines,
                             tuple(tuple(sorted(lines)) for lines in lists))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_plane_certificate_matches_graph_certificate_on_corrupted_planes(q):
    verdicts = []
    for seed in range(200):
        plane = _corrupted_plane(q, seed)
        certificate = bf.certify_plane_blowup_free(plane)
        assert certificate == bf.certify_blowup_free(plane.graph()), (q, seed)
        verdicts.append(certificate.certified)
    assert 20 < verdicts.count(False) < 180  # both verdicts are well represented


def _seven_point_plane(lines_through):
    plane = bf.projective_plane_incidence(2)
    return bf.PlaneIncidence(2, plane.points, plane.lines, lines_through)


def test_plane_certificate_with_a_bare_point_and_a_bare_line():
    # point 0 is on no line and line 6 has no point; no two lines share two points
    plane = _seven_point_plane(((), (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    certificate = bf.certify_plane_blowup_free(plane)
    assert certificate == bf.certify_blowup_free(plane.graph()) == bf.BlowupCertificate(True)


def test_plane_certificate_names_the_least_of_two_planted_c4s():
    # points 2 and 3 share lines 1 and 2; points 1 and 6 share lines 0 and 4.
    # Points ascending, the pair (2, 3) closes first, but 1 is the least C4 point.
    plane = _seven_point_plane(((), (0, 4), (1, 2), (1, 2), (3,), (5,), (0, 4)))
    certificate = bf.certify_plane_blowup_free(plane)
    assert certificate == bf.certify_blowup_free(plane.graph())
    assert certificate == bf.BlowupCertificate(False, "four_cycle", (1, 7 + 0, 6, 7 + 4))


def _q2_plane_with(point, lines):
    plane = bf.projective_plane_incidence(2)
    lines_through = list(plane.lines_through)
    lines_through[point] = lines
    return bf.PlaneIncidence(2, plane.points, plane.lines, tuple(lines_through))


@pytest.mark.parametrize("lines,match", [
    ((0, 3, 7), "out of range"),     # N = 7 lines
    ((-1, 3, 5), "out of range"),
    ((0, 3, 3), "ascend"),
    ((5, 3, 0), "ascend"),
    ((0, 5, 3), "ascend"),
])
def test_plane_rejects_malformed_line_lists(lines, match):
    with pytest.raises(ValueError, match=match):
        _q2_plane_with(4, lines)


def test_plane_rejects_a_line_list_per_point_mismatch():
    plane = bf.projective_plane_incidence(2)
    with pytest.raises(ValueError, match="lines_through"):
        bf.PlaneIncidence(2, plane.points, plane.lines, plane.lines_through[:-1])


def test_plane_rejects_non_primes():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError):
            bf.projective_plane_incidence(q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_plane_normalization_and_incidence(q):
    plane = bf.projective_plane_incidence(q)
    count = q * q + q + 1
    assert len(plane.points) == count
    for triple in plane.points:
        first = next(x for x in triple if x != 0)
        assert first == 1
    for p, line_vertex in plane.graph().edges:
        line = plane.lines[line_vertex - count]
        point = plane.points[p]
        assert sum(a * b for a, b in zip(point, line)) % q == 0


def test_blow_up_single_edge():
    h = bf.blow_up(bf.Graph(2, frozenset({(0, 1)})), 3)
    assert h.n == 6
    assert h.hyperedges == (tuple(range(6)),)
    assert bf.weight(h) == 3


def test_blow_up_identity_when_r_is_one():
    g = bf.Graph(4, frozenset({(0, 2), (1, 3)}))
    h = bf.blow_up(g, 1)
    assert h.n == 4
    assert h.hyperedges == ((0, 2), (1, 3))


def test_blow_up_heawood(heawood_graph, heawood_blowup):
    assert heawood_blowup.n == 42
    assert len(heawood_blowup) == 21
    assert bf.weight(heawood_blowup) == 3 * len(heawood_graph.edges) == 63


def test_blow_up_copy_indexing():
    h = bf.blow_up(bf.Graph(3, frozenset({(0, 2)})), 3)
    assert h.hyperedges == ((0, 1, 2, 6, 7, 8),)


def test_blow_up_rejects_zero_factor():
    with pytest.raises(ValueError):
        bf.blow_up(bf.Graph(2, frozenset({(0, 1)})), 0)


@given(graphs(max_n=8))
def test_blow_up_weight_identity(g):
    assert bf.weight(bf.blow_up(g, 3)) == 3 * len(g.edges)


def test_certify_heawood(heawood_graph):
    certificate = bf.certify_blowup_free(heawood_graph)
    assert certificate.certified
    assert certificate.obstruction is None


def test_certify_rejects_k22():
    k22 = bf.Graph(4, frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))
    certificate = bf.certify_blowup_free(k22)
    assert not certificate.certified
    assert certificate.obstruction_kind == "four_cycle"
    x, a, y, b = certificate.obstruction
    for u, v in ((x, a), (a, y), (y, b), (b, x)):
        assert (min(u, v), max(u, v)) in k22.edges


def test_certify_rejects_triangle():
    tri = bf.Graph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    certificate = bf.certify_blowup_free(tri)
    assert not certificate.certified
    assert certificate.obstruction_kind == "triangle"


@pytest.mark.parametrize("edges,n", [
    (frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}), 6),   # C6
    (frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}), 5),           # C5
    (frozenset({(0, 1), (1, 2), (2, 3)}), 4),                            # path
])
def test_certified_graphs_blow_up_free(edges, n):
    g = bf.Graph(n, edges)
    assert bf.certify_blowup_free(g).certified
    assert bf.is_berge_c4_free(bf.blow_up(g, 3))


@given(graphs(max_n=7))
def test_certificate_agrees_with_detector(g):
    certificate = bf.certify_blowup_free(g)
    free = bf.is_berge_c4_free(bf.blow_up(g, 3))
    if certificate.certified:
        assert free
    # an uncertified base can still blow up free only through the C4/C3 it
    # reported; verify the obstruction is real instead
    else:
        kind = certificate.obstruction_kind
        verts = certificate.obstruction
        if kind == "triangle":
            u, v, w = verts
            for a, b in ((u, v), (v, w), (u, w)):
                assert (min(a, b), max(a, b)) in g.edges
        else:
            x, a, y, b = verts
            for s, t in ((x, a), (a, y), (y, b), (b, x)):
                assert (min(s, t), max(s, t)) in g.edges


def test_lower_bound_construction_42():
    built = bf.lower_bound_construction(42)
    assert built.q == 2
    assert built.hypergraph.n == 42
    assert built.weight == 63
    assert built.achieved_ratio == pytest.approx(63 / 42 ** 1.5, rel=1e-12)
    assert built.achieved_ratio > 0.204


def test_lower_bound_construction_798():
    built = bf.lower_bound_construction(798)
    assert built.q == 11
    assert built.weight == 3 * 133 * 12 == 4788
    assert bf.weight(built.hypergraph) == 4788


def test_lower_bound_construction_pads_with_isolated_vertices():
    built = bf.lower_bound_construction(50)
    assert built.q == 2
    assert built.hypergraph.n == 50
    assert built.weight == 63
    touched = {v for h in built.hypergraph.hyperedges for v in h}
    assert touched <= set(range(42))


def test_lower_bound_construction_needs_42_vertices():
    with pytest.raises(ValueError):
        bf.lower_bound_construction(41)
    assert bf.lower_bound_construction(77).q == 2
    assert bf.lower_bound_construction(78).q == 3


def test_theoretical_bounds_values():
    assert bf.theoretical_bounds(0) == (0.0, 0.0)
    upper, lower = bf.theoretical_bounds(4)
    assert upper == pytest.approx(4.0, rel=1e-12)
    assert lower == pytest.approx(1.6329931618554523, rel=1e-12)
    upper, lower = bf.theoretical_bounds(798)
    # plug-in arithmetic, recomputed via n * sqrt(n)
    scale = 798 * math.sqrt(798)
    assert upper == pytest.approx(0.5 * scale, rel=1e-12)
    assert lower == pytest.approx(scale / (2 * math.sqrt(6)), rel=1e-12)
    assert upper == pytest.approx(11271.308619676776, rel=1e-9)
    assert lower == pytest.approx(4601.492475273648, rel=1e-9)


def test_theoretical_bounds_rejects_negative():
    with pytest.raises(ValueError):
        bf.theoretical_bounds(-1)
