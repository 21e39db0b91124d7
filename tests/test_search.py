"""Exact extremal search: frozen small values, oracle equality, determinism."""

import copy
import gc
import json
import random
import sys
from itertools import combinations, permutations, product
import tracemalloc

import pytest

import bergefree as bf
from bergefree.berge import _closing_pairs, _diagonal, _triple_pairs
from bergefree.cli import main
from bergefree.core import iter_bits
import bergefree.search
import oracles
from bergefree.search import CEILING_MAX_N, candidate_universe, check_size
from oracles import (
    SearchState,
    _closes_c4,
    closing_pairs_by_vertex_loop,
    closing_pairs_of_three,
    greedy_by_full_recheck,
    greedy_by_search_state,
    incremental_c4_check,
    max_weight_by_index_scan,
    candidate_pair_bits,
    end_pairs,
    is_wide,
    max_weight_by_multisets,
    survivors_by_candidate_scan,
    wide_pairs,
)


def test_candidate_universe_order():
    cands = candidate_universe(5)
    sizes = [len(c) for c in cands]
    assert sizes == sorted(sizes, reverse=True)
    assert cands[0] == tuple(range(5))
    # sorted tuples, lexicographic within one size
    assert all(c == tuple(sorted(set(c))) for c in cands)
    four_sets = [c for c in cands if len(c) == 4]
    assert four_sets == sorted(four_sets)
    assert all(len(c) >= 4 for c in cands)


def test_search_state_push_pop_roundtrip():
    state = SearchState(5)
    state.push({0, 1, 2, 3})
    snapshot_cover = copy.deepcopy(state.cover)
    snapshot_adj = list(state.adj)
    state.push({1, 2, 3, 4})
    state.pop()
    assert state.cover == snapshot_cover
    assert state.adj == snapshot_adj


def test_search_state_cover_is_symmetric_bitmask_index():
    state = SearchState(5)
    state.push({0, 1, 2, 3})
    state.push({1, 2, 4})
    assert state.cover[1][2] == state.cover[2][1] == 0b11
    assert state.cover[0][3] == 0b01
    assert state.cover[2][4] == state.cover[4][1] == 0b10
    assert state.cover[0][4] == 0
    assert state.adj[4] == (1 << 1) | (1 << 2)


def test_incremental_check_disjoint_addition():
    state = SearchState(8)
    state.push({0, 1, 2, 3})
    hid = state.push({4, 5, 6, 7})
    assert incremental_c4_check(state, hid) is False


def test_incremental_check_fourth_copy():
    state = SearchState(4)
    for _ in range(3):
        hid = state.push({0, 1, 2, 3})
        assert incremental_c4_check(state, hid) is False
    hid = state.push({0, 1, 2, 3})
    assert incremental_c4_check(state, hid) is True


def test_incremental_check_matches_full_recheck():
    rng = random.Random(1234)
    for _ in range(150):
        n = rng.randint(4, 9)
        state = SearchState(n)
        for _ in range(rng.randint(1, 10)):
            size = rng.randint(2, min(6, n))
            hid = state.push(frozenset(rng.sample(range(n), size)))
            incremental = incremental_c4_check(state, hid)
            full = not bf.is_berge_c4_free(state.to_hypergraph())
            assert incremental == full
            if incremental:
                state.pop()  # keep the precondition: state stays free


def test_check_before_push_matches_check_after_push():
    """The non-mutating scan leaves the state as it was and agrees with
    incremental_c4_check after a push and with a full recheck; states grow
    past 64 hyperedges so the id masks pass one machine word."""
    rng = random.Random(20261018)
    largest = 0
    for _ in range(24):
        n = rng.randint(4, 60)
        state = SearchState(n)
        for _ in range(rng.randint(1, 150)):
            size = rng.randint(2, min(3 if n > 30 else 5, n))
            candidate = frozenset(rng.sample(range(n), size))
            cover, adj = copy.deepcopy(state.cover), list(state.adj)
            before = _closes_c4(state, sorted(candidate), -1)
            assert state.cover == cover and state.adj == adj
            hid = state.push(candidate)
            assert before == incremental_c4_check(state, hid)
            assert before == (not bf.is_berge_c4_free(state.to_hypergraph()))
            if before:
                state.pop()
        largest = max(largest, len(state.hyperedges))
    assert largest > 64


def _pair_bits(verts, n):
    return sum(1 << (a * n + b) for a, b in combinations(sorted(verts), 2))


def _vertex_masks(state):
    return [sum(1 << v for v in h) for h in state.hyperedges]


def _spreads(masks, n):
    """Bit a*n for each bit a, per mask: the spreads _closing_pairs takes."""
    return [sum(1 << (a * n) for a in range(n) if mask >> a & 1) for mask in masks]


def _closing(masks, n):
    return _closing_pairs(masks, _spreads(masks, n), n)


def _assert_closing_pairs_agree(state, candidates):
    """The closing-pair mask, folded over the state's prefixes as a caller
    keeps it (each step ORs _closing_pairs into the mask it had before the
    last hyperedge), answers _closes_c4 for every ordered pair (bits
    a*n + b and b*n + a alike, no bit a*n + a) and for every candidate.
    On states of up to 8 hyperedges the last step holds exactly the pairs
    that some triple through the last hyperedge closes."""
    n = state.n
    masks = _vertex_masks(state)
    last = len(masks) - 1
    parent = 0
    for i in range(last):
        parent |= _closing(masks[:i + 1], n)
    step = _closing(masks, n)
    closing = parent | step
    assert closing < 1 << (n * n)
    triples = [1 << last | 1 << i | 1 << j for i, j in combinations(range(last), 2)]
    for a in range(n):
        for b in range(n):
            pair = sorted((a, b))
            expected = a != b and _closes_c4(state, pair, -1)
            assert bool(closing >> (a * n + b) & 1) == expected
            if last < 8:
                through = a != b and any(_closes_c4(state, pair, keep) for keep in triples)
                assert bool(step >> (a * n + b) & 1) == through
    for cand in candidates:
        verts = sorted(cand)
        assert bool(_pair_bits(verts, n) & closing) == _closes_c4(state, verts, -1)


def test_closing_pairs_matches_closes_c4():
    """The running mask the exact search and the greedy generator test
    candidates against is the oracle's predicate, on states grown by random
    pushes that keep them free; each state is checked after every push.
    The second family pushes only 2- and 3-sets, so a new hyperedge often
    misses pairs that earlier ones close."""
    for seed, largest in ((20261019, None), (20261020, 3)):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randint(4, 9)
            candidates = candidate_universe(n)
            state = SearchState(n)
            for _ in range(rng.randint(1, 8)):
                size = rng.randint(2, largest or n)
                hid = state.push(frozenset(rng.sample(range(n), size)))
                if incremental_c4_check(state, hid):
                    state.pop()
                    continue
                _assert_closing_pairs_agree(state, candidates)


def test_closing_pairs_every_three_hyperedges_on_five_vertices():
    """Every ordered triple of vertex subsets of size >= 2 on 5 vertices
    (three hyperedges never hold a Berge-C4 themselves, and every triple of
    them uses the last), pair by pair against _closes_c4."""
    n = 5
    subsets = [frozenset(c) for size in range(2, n + 1) for c in combinations(range(n), size)]
    pairs = list(combinations(range(n), 2))
    assert len(subsets) == 26
    for triple in product(subsets, repeat=3):
        state = SearchState(n)
        for h in triple:
            state.push(h)
        closing = _closing(_vertex_masks(state), n)
        for a, b in pairs:
            expected = _closes_c4(state, (a, b), -1)
            assert bool(closing >> (a * n + b) & 1) == expected
            assert bool(closing >> (b * n + a) & 1) == expected


def test_closing_pairs_past_one_machine_word():
    """The pair matrix passes one machine word (n = 20, 400 bits) on a
    state of 100 hyperedges: 64 copies of star edges (a star has no path
    of three edges, so they close nothing), then small hyperedges that
    keep the state free."""
    rng = random.Random(7)
    n = 20
    state = SearchState(n)
    for i in range(64):
        state.push((0, 1 + i % 16))
    assert _closing(_vertex_masks(state), n) == 0
    while len(state.hyperedges) < 100:
        candidate = sorted(rng.sample(range(n), rng.randint(2, 3)))
        if not _closes_c4(state, candidate, -1):
            state.push(candidate)
    samples = [rng.sample(range(n), rng.randint(2, 6)) for _ in range(300)]
    _assert_closing_pairs_agree(state, samples)
    assert _closing(_vertex_masks(state), n) >> 64


def test_closing_pairs_matches_vertex_loop_on_seeded_masks():
    """The class products set exactly the bits the per-vertex loop sets, on
    seeded lists of 0-7 masks of any size (the empty mask too) at n = 2..14."""
    rng = random.Random(20261018)
    for _ in range(6000):
        n = rng.randint(2, 14)
        masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 7))]
        assert _closing(masks, n) == closing_pairs_by_vertex_loop(masks, n), (n, masks)


def test_closing_pairs_matches_vertex_loop_past_one_machine_word():
    """Every prefix of an n = 20 state grown to 100 hyperedges, whose pair
    matrix and spreads (400 bits) pass one machine word."""
    rng = random.Random(11)
    n = 20
    state = SearchState(n)
    while len(state.hyperedges) < 100:
        candidate = sorted(rng.sample(range(n), rng.randint(2, 5)))
        if not _closes_c4(state, candidate, -1):
            state.push(candidate)
    masks = _vertex_masks(state)
    for i in range(1, len(masks) + 1):
        assert _closing(masks[:i], n) == closing_pairs_by_vertex_loop(masks[:i], n)
    assert _closing(masks, n) >> 64


def test_closing_pairs_matches_vertex_loop_at_class_boundaries():
    """Triples (X, Y, Z) with |P|, |Q| in {1, 2, 3} and |P | Q| in
    {1, .., 4} (P = X & Y, Q = Y & Z), built from vertices in every region
    of X, Y and Z, so an end vertex a lies in P and Q, in P alone, in Q
    alone or in neither; each in all six orders, so each of X, Y and Z is
    the last mask, and with a fourth mask beside them."""
    checked = 0
    for both, p_only, q_only in product(range(4), repeat=3):
        size_p, size_q = both + p_only, both + q_only
        if not (1 <= size_p <= 3 and 1 <= size_q <= 3 and both + p_only + q_only <= 4):
            continue
        for x_and_z, x_only, z_only, y_only in product(range(2), range(3), range(3), range(2)):
            regions = [both, p_only, q_only, x_and_z, x_only, z_only, y_only]
            n = sum(regions)
            vertices = iter(range(n))
            both_m, p_m, q_m, xz_m, x_m, z_m, y_m = (
                sum(1 << next(vertices) for _ in range(count)) for count in regions)
            triple = (both_m | p_m | xz_m | x_m, both_m | p_m | q_m | y_m,
                      both_m | q_m | xz_m | z_m)
            for order in permutations(triple):
                for masks in (list(order), [x_m | z_m | y_m, *order], [*order, both_m | z_m]):
                    assert _closing(masks, n) == closing_pairs_by_vertex_loop(masks, n), masks
                    checked += 1
    assert checked > 1000


def test_closing_pairs_matches_vertex_loop_on_repeated_masks():
    """Multisets that repeat a mask, as the exact search's max_mult 2 and
    3 paths build them: two and three copies of one set, the last mask
    equal to an earlier one, and all three equal, alone and beside other
    masks, at n = 4..9."""
    rng = random.Random(20261020)
    for n in range(4, 10):
        for _ in range(60):
            a, b, c = (sum(1 << v for v in rng.sample(range(n), rng.randint(2, n)))
                       for _ in range(3))
            for masks in ([a, a, a], [a, a, b], [a, b, a], [b, a, a], [a, a, a, b],
                          [b, a, a, a], [a, b, a, a], [a, a, b, b], [a, b, b, a],
                          [c, a, b, a], [a, a, b, c, a], [a, b, c, a, a, a]):
                assert _closing(masks, n) == closing_pairs_by_vertex_loop(masks, n), (n, masks)


def _closing_of_three(masks, n):
    spreads = _spreads(masks, n)
    return closing_pairs_of_three(masks[0], spreads[0], masks[1], spreads[1],
                                  masks[2], spreads[2], ~_diagonal(n))


@pytest.mark.parametrize("n", range(4, 7))
def test_closing_pairs_of_three_on_every_candidate_triple(n):
    """The three-hyperedge kernel equals _closing_pairs on every ordered
    triple of search candidates, repeats included (22^3 triples at n = 6)."""
    masks = [sum(1 << v for v in c) for c in candidate_universe(n)]
    for triple in product(masks, repeat=3):
        assert _closing_of_three(triple, n) == _closing(triple, n), (n, triple)


def test_closing_pairs_of_three_on_seeded_triples():
    """Seeded triples at n = 7..10 (from n = 9 the pair matrix passes one
    machine word): candidates of the search's universe, and masks of any
    size, the empty one too, so that some pairs of them do not meet; a
    third of the triples repeat a mask."""
    rng = random.Random(20261018)
    for n in range(7, 11):
        cands = [sum(1 << v for v in c) for c in candidate_universe(n)]
        for _ in range(1500):
            if rng.random() < 0.5:
                triple = [rng.choice(cands) for _ in range(3)]
            else:
                triple = [rng.getrandbits(n) for _ in range(3)]
            if rng.random() < 1 / 3:
                triple[rng.randrange(3)] = triple[rng.randrange(3)]
            assert _closing_of_three(triple, n) == _closing(triple, n), (n, triple)


def _pairs_by_hall(mask_x, mask_y, mask_z, n):
    """Bits a*n + b and b*n + a of the pairs a in Z, b in X, a != b, that
    leave room for v3 in X & Y and v4 in Y & Z, distinct and outside
    {a, b}: Hall's condition on the two slots, tested pair by pair."""
    pairs = 0
    for a in iter_bits(mask_z):
        for b in iter_bits(mask_x):
            keep = ~(1 << a | 1 << b)
            p = mask_x & mask_y & keep
            q = mask_y & mask_z & keep
            if a != b and p and q and (p | q).bit_count() >= 2:
                pairs |= 1 << (a * n + b) | 1 << (b * n + a)
    return pairs


def _check_rich_triples(triples, n):
    """For each triple with |X & Y| >= 3, |Y & Z| >= 3 and
    |(X | Z) & Y| >= 4, _triple_pairs and the product of the two ends
    agree off the diagonal, and both hold exactly the pairs Hall's
    condition admits.
    Read as three hyperedges, each triple's wide part (the pairs of its
    rich triples, each of the three the middle once) lies inside its
    closing mask, and equals it when no triple is narrow: the premise of
    the search's wide-middle and end leaves.  Returns the number of rich
    triples."""
    off_diagonal = ~_diagonal(n)
    rich = 0
    for triple in triples:
        wide, narrow = wide_pairs(triple, n)
        closing = _closing(triple, n)
        assert not wide & ~closing, (n, triple)
        assert narrow or wide == closing, (n, triple)
        mask_x, mask_y, mask_z = triple
        p_all = mask_x & mask_y
        q_all = mask_y & mask_z
        if p_all.bit_count() < 3 or q_all.bit_count() < 3 or (p_all | q_all).bit_count() < 4:
            continue
        rich += 1
        spread_x, spread_y, spread_z = _spreads((mask_x, mask_y, mask_z), n)
        ends = (spread_z * mask_x | spread_x * mask_z) & off_diagonal
        pairs = _triple_pairs(mask_x, spread_x, mask_y, spread_y, mask_z, spread_z)
        assert pairs & off_diagonal == ends, (n, mask_x, mask_y, mask_z)
        assert ends == _pairs_by_hall(mask_x, mask_y, mask_z, n), (n, mask_x, mask_y, mask_z)
    return rich


def test_rich_triple_pairs_are_the_product_of_the_ends_on_five_vertices():
    """Every ordered triple of non-empty masks at n = 5."""
    assert _check_rich_triples(product(range(1, 1 << 5), repeat=3), 5) > 0


@pytest.mark.parametrize("n", (7, 9, 16))
def test_rich_triple_pairs_are_the_product_of_the_ends_on_seeded_triples(n):
    """Seeded triples of dense masks (about three bits in four set), so
    that most of them are rich; from n = 9 the pair matrix passes one
    machine word.  A third of the triples repeat a mask."""
    rng = random.Random(20261019 + n)
    triples = []
    for _ in range(1500):
        triple = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(3)]
        if rng.random() < 1 / 3:
            triple[rng.randrange(3)] = triple[rng.randrange(3)]
        triples.append(triple)
    assert _check_rich_triples(triples, n) > 500

def test_exact_value_n4(tmp_path):
    result = bf.max_weight_exact(4)
    assert result.best_weight == 3
    assert result.witness.hyperedges == ((0, 1, 2, 3),) * 3
    assert bf.is_berge_c4_free(result.witness)
    assert result.best_weight == max_weight_by_multisets(4)
    # the search is exhaustive by construction; berge search still says so
    out = tmp_path / "n4.jsonl"
    assert main(["search", "--n", "4", "-o", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["exhaustive"] is True
    assert record["witness"] == result.witness.to_json_dict()


def test_exact_value_n4_multiplicity_one():
    result = bf.max_weight_exact(4, max_mult=1)
    assert result.best_weight == 1
    assert result.witness.hyperedges == ((0, 1, 2, 3),)


def test_exact_value_n5_pruned_equals_unpruned_equals_oracle():
    pruned = bf.max_weight_exact(5)
    unpruned = bf.max_weight_exact(5, pruned=False)
    assert pruned.best_weight == unpruned.best_weight
    assert pruned.witness == unpruned.witness
    assert pruned.best_weight == max_weight_by_multisets(5)
    assert bf.is_berge_c4_free(pruned.witness)
    assert bf.naive_berge_oracle(pruned.witness, 4) is None
    assert pruned.nodes_explored <= unpruned.nodes_explored


def test_trivial_small_n():
    for n in range(4):
        result = bf.max_weight_exact(n)
        assert result.best_weight == 0
        assert result.witness.hyperedges == ()


def test_guard_and_override():
    with pytest.raises(ValueError, match="guard"):
        bf.max_weight_exact(8)
    with pytest.raises(ValueError):
        bf.max_weight_exact(-1)
    with pytest.raises(ValueError):
        bf.max_weight_exact(4, max_mult=0)


def test_size_check_words_the_override_as_asked():
    with pytest.raises(ValueError, match="; pass --allow-large to override"):
        check_size(8, False, "--allow-large")
    with pytest.raises(ValueError, match="; pass allow_large=True to override"):
        check_size(8, False)
    with pytest.raises(ValueError, match="ceiling"):
        check_size(CEILING_MAX_N + 1, True, "--allow-large")
    for n in (0, 7):
        check_size(n, False)
    check_size(CEILING_MAX_N, True)


def test_monotone_in_n():
    values = [bf.max_weight_exact(n).best_weight for n in (4, 5)]
    assert values == sorted(values)


def test_deterministic_across_runs():
    a = bf.max_weight_exact(5)
    b = bf.max_weight_exact(5)
    assert a == b


def test_first_level_orbit_reps_preserves_value():
    plain = bf.max_weight_exact(5)
    pruned = bf.max_weight_exact(5, first_level_orbit_reps=True)
    assert plain.best_weight == pruned.best_weight
    assert pruned.nodes_explored <= plain.nodes_explored


# (n, max_mult, pruned) -> (best_weight, nodes_explored, witness); the node
# counts pin the search order, not only its result.
PINNED_SEARCHES = {
    (5, 1, True): (4, 13, ((0, 1, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 4))),
    (5, 1, False): (4, 41, ((0, 1, 2, 3, 4), (0, 1, 2, 3), (0, 1, 2, 4))),
    (5, 2, True): (5, 43, ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3))),
    (5, 2, False): (5, 77, ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4), (0, 1, 2, 3))),
    (5, 3, True): (6, 53, ((0, 1, 2, 3, 4),) * 3),
    (5, 3, False): (6, 83, ((0, 1, 2, 3, 4),) * 3),
    (6, 1, True): (7, 952, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4), (0, 1, 2, 3, 5))),
    (6, 1, False): (7, 1793, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4), (0, 1, 2, 3, 5))),
    (6, 2, True): (8, 1639, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4))),
    (6, 2, False): (8, 2277, ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4))),
    (6, 3, True): (9, 1808, ((0, 1, 2, 3, 4, 5),) * 3),
    (6, 3, False): (9, 2299, ((0, 1, 2, 3, 4, 5),) * 3),
}


def _summary(result):
    witness = tuple(tuple(sorted(h)) for h in result.witness.hyperedges)
    return result.best_weight, result.nodes_explored, witness


@pytest.mark.parametrize("n,max_mult,pruned", sorted(PINNED_SEARCHES))
def test_search_pinned_results(n, max_mult, pruned):
    result = bf.max_weight_exact(n, max_mult=max_mult, pruned=pruned)
    assert _summary(result) == PINNED_SEARCHES[n, max_mult, pruned]


# (max_mult, first_level_orbit_reps) -> (best_weight, nodes_explored,
# witness) at n = 7; the orbit-rep rows are the search workload's n = 7 jobs.
PINNED_N7_SEARCHES = {
    (1, True): (10, 4926, ((0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 6))),
    (2, True): (11, 5859, ((0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5))),
    (3, True): (12, 6058, ((0, 1, 2, 3, 4, 5, 6),) * 3),
    (3, False): (12, 42735, ((0, 1, 2, 3, 4, 5, 6),) * 3),
}


def test_search_pinned_n7_orbit_reps():
    result = bf.max_weight_exact(7, max_mult=3, first_level_orbit_reps=True)
    assert _summary(result) == PINNED_N7_SEARCHES[3, True]


@pytest.mark.parametrize("max_mult,orbit_reps", [(1, True), (2, True), (3, False)])
def test_search_pinned_n7(max_mult, orbit_reps):
    result = bf.max_weight_exact(7, max_mult=max_mult, first_level_orbit_reps=orbit_reps)
    assert _summary(result) == PINNED_N7_SEARCHES[max_mult, orbit_reps]


# (n, max_mult, pruned, first_level_orbit_reps) -> (closing_masks, expanded,
# distinct_closings, wide_leaves): the work counters pin which nodes are
# entered, which masks are computed and which children the pairs of a wide
# triple decide, not only the nodes counted.
PINNED_SEARCH_COUNTS = {
    (5, 1, True, False): (7, 7, 2, 7),
    (5, 1, False, False): (10, 16, 2, 10),
    (5, 2, True, False): (28, 16, 2, 28),
    (5, 2, False, False): (45, 27, 2, 45),
    (5, 3, True, False): (35, 19, 5, 35),
    (5, 3, False, False): (55, 28, 7, 55),
    (6, 1, True, False): (809, 144, 38, 769),
    (6, 1, False, False): (1330, 232, 68, 1158),
    (6, 2, True, False): (1431, 209, 74, 1279),
    (6, 2, False, False): (1981, 275, 88, 1682),
    (6, 3, True, False): (1580, 229, 89, 1381),
    (6, 3, False, False): (2023, 276, 103, 1718),
    (7, 1, True, True): (4738, 193, 148, 4381),
    (7, 2, True, True): (5653, 213, 186, 5090),
    (7, 3, True, True): (5847, 227, 194, 5236),
    (7, 3, True, False): (40784, 2294, 1034, 30942),
    (8, 3, True, True): (48725, 2037, 1551, 25668),
}


def _counts(result):
    return result.closing_masks, result.expanded, result.distinct_closings, result.wide_leaves


def _oracle_counts(counts):
    return (counts["closing_masks"], counts["expanded"], counts["distinct_closings"],
            counts["wide_leaves"])


@pytest.mark.parametrize("n,max_mult,pruned,orbit_reps", sorted(PINNED_SEARCH_COUNTS))
def test_search_pinned_counters(n, max_mult, pruned, orbit_reps):
    result = bf.max_weight_exact(n, max_mult=max_mult, pruned=pruned,
                                 first_level_orbit_reps=orbit_reps, allow_large=True)
    assert _counts(result) == PINNED_SEARCH_COUNTS[n, max_mult, pruned, orbit_reps]
    assert result.expanded <= result.nodes_explored + 1
    assert result.wide_leaves <= result.closing_masks <= result.nodes_explored


def test_bulk_leaves_have_no_survivor_of_their_whole_mask():
    """A node decides in bulk, without their whole masks, the children C
    that are the middle of a wide triple (X, C, Z) of chosen hyperedges
    whose pairs, ORed into its mask, no open candidate misses, and those
    with a narrow (X, C, Z) whose wide part K(Z, C) or K(X, C) no open
    candidate misses.  On every PINNED_SEARCH_COUNTS configuration, the
    index scan derives those children at every depth from its own walk
    with the pinned counters, and no open candidate of any of them misses
    its whole mask, folded over its prefixes, each built one row per end
    vertex (closing_pairs_by_vertex_loop).  The deepest have four or more
    chosen hyperedges."""
    for key in sorted(PINNED_SEARCH_COUNTS):
        counts = {}
        max_weight_by_index_scan(*key, counts)
        assert _oracle_counts(counts) == PINNED_SEARCH_COUNTS[key], key
        assert counts["bulk_leaves"], key
        n = key[0]
        pair_bits = candidate_pair_bits(n)
        masks = [sum(1 << v for v in c) for c in candidate_universe(n)]
        for chosen, open_ in set(counts["bulk_leaves"]):
            whole = 0
            for depth in range(3, len(chosen) + 1):
                whole |= closing_pairs_by_vertex_loop([masks[j] for j in chosen[:depth]], n)
            assert not survivors_by_candidate_scan(pair_bits, whole) & open_, (key, chosen)
    assert max(len(chosen) for chosen, _ in counts["bulk_leaves"]) > 3


def test_survivors_match_the_candidate_scan(monkeypatch):
    """The survivors cache, read off the per-pair masks, holds what the
    every-candidate scan gives on each mask that the searches of
    PINNED_SEARCH_COUNTS look up (the cache is kept from each search by a
    subclass patched in), and on seeded symmetric masks at n = 9..12, the
    diagonal set or not, from the empty mask to nearly full ones, at
    n = 4..12: up to n = 7 each row of pairs is one chunk of the tables,
    and n = 8 is the first n whose rows span two."""
    caches = []

    class Kept(bergefree.search._Survivors):
        def __init__(self, *args):
            super().__init__(*args)
            caches.append(self)

    monkeypatch.setattr(bergefree.search, "_Survivors", Kept)
    for n, max_mult, pruned, orbit_reps in sorted(PINNED_SEARCH_COUNTS):
        result = bf.max_weight_exact(n, max_mult=max_mult, pruned=pruned,
                                     first_level_orbit_reps=orbit_reps, allow_large=True)
        (cache,) = caches
        caches.clear()
        assert len(cache) == result.distinct_closings
        pair_bits = candidate_pair_bits(n)
        for closing, survivors in cache.items():
            assert survivors == survivors_by_candidate_scan(pair_bits, closing), (n, closing)
    rng = random.Random(20261021)
    for n in range(4, 13):
        cache = bergefree.search._Survivors(candidate_universe(n), n)
        pair_bits = candidate_pair_bits(n)
        for k in range(40):
            closing = _diagonal(n) if k % 2 else 0
            for a, b in combinations(range(n), 2):
                if rng.random() < k / 200:
                    closing |= 1 << (a * n + b) | 1 << (b * n + a)
            assert cache[closing] == survivors_by_candidate_scan(pair_bits, closing), (n, k)


def test_survivors_set_up_at_the_ceiling_stays_in_tens_of_mb():
    """The per-row tables of the survivors cache, cut into chunks of at
    most six later vertices, peak at about 15 MB at n = CEILING_MAX_N.
    Chunks of eight would peak at about 28 MB, and tables over whole rows
    would take about half a GB."""
    cands = candidate_universe(CEILING_MAX_N)
    tracemalloc.start()
    try:
        cache = bergefree.search._Survivors(cands, CEILING_MAX_N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak
    assert cache[0] == cache.every == (1 << len(cands)) - 1


@pytest.mark.parametrize("n", range(6, 10))
def test_end_leaves_leave_no_candidate_open(n):
    """The third-level children that _Holding.end_leaves marks, at seeded
    nodes of chosen A and B (|A & B| >= 3) and seeded children from B's
    index on, each have a wide (C, X, Y) for (X, Y) = (A, B) or (B, A),
    and no candidate from C on misses the pairs of Y and C (the
    every-candidate scan).  From n = 8 on, some children fail only the
    n - 3 size prefix."""
    rng = random.Random(20261020 + n)
    cands = candidate_universe(n)
    masks = [sum(1 << v for v in c) for c in cands]
    m = len(cands)
    pair_bits = candidate_pair_bits(n)
    holding = bergefree.search._Holding(bergefree.search._Survivors(cands, n).has, masks)
    nodes = marked = 0
    while nodes < 150:
        a, b = sorted(rng.choices(range(m), k=2))
        if (masks[a] & masks[b]).bit_count() < 3:
            continue
        nodes += 1
        low = rng.randrange(b, m)
        children = sum(1 << j for j in range(low, m) if rng.random() < 0.8) | 1 << low
        for x, y in ((masks[a], masks[b]), (masks[b], masks[a])):
            ends = holding.end_leaves(x, y, children)
            assert not ends & ~children, (n, a, b)
            for c in iter_bits(ends):
                marked += 1
                assert is_wide(masks[c], x, y), (n, a, b, c)
                missing = survivors_by_candidate_scan(pair_bits, end_pairs(y, masks[c], n))
                assert not missing >> c, (n, a, b, c)
    assert marked >= 50, marked
    assert all(key.bit_count() >= 4 for key in holding), n


def test_holding_at_n10_keeps_one_entry_per_candidate():
    """_Holding keeps at most one entry per candidate's vertex mask (the
    search looks up candidates and unions of two), four m-bit masks each,
    so about m^2/2 bytes of masks.  At n = 10 (m = 848), filled for every
    candidate and asked for the end leaves of seeded nodes, whose smaller
    sets (A - B, D - B) it does not keep, it holds m entries and peaks
    near 0.57 MB, under m^2 bytes."""
    n = 10
    cands = candidate_universe(n)
    masks = [sum(1 << v for v in c) for c in cands]
    m = len(cands)
    has = bergefree.search._Survivors(cands, n).has
    rng = random.Random(20261020)
    tracemalloc.start()
    try:
        holding = bergefree.search._Holding(has, masks)
        for mask in masks:
            holding[mask]
        nodes = 0
        while nodes < 300:
            a, b = sorted(rng.choices(range(m), k=2))
            if (masks[a] & masks[b]).bit_count() >= 3:
                nodes += 1
                holding.end_leaves(masks[a], masks[b], holding.every)
                holding.end_leaves(masks[b], masks[a], holding.every)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(holding) == m
    assert peak < m * m, peak


class _Raised(Exception):
    pass


def test_a_search_leaves_nothing_for_the_cycle_collector(monkeypatch):
    """With the cycle collector off, a search frees everything it built,
    its survivors cache among them, by reference counting alone: no
    closure of the walk is left holding itself, for several n, max_mult
    and modes, and also when the walk raises at the third level or
    below it (a _triple_pairs call for a node of three or more chosen
    hyperedges, which hands its child two or more pairs)."""
    gc.collect()
    gc.disable()
    try:
        for n, max_mult, pruned, orbit_reps in [
                (0, 3, True, False), (4, 3, True, False), (5, 1, False, False),
                (5, 3, True, True), (6, 2, True, False), (6, 3, False, True),
                (7, 1, True, True), (7, 3, True, True), (8, 3, True, True)]:
            bf.max_weight_exact(n, max_mult=max_mult, pruned=pruned,
                                first_level_orbit_reps=orbit_reps, allow_large=True)
            assert gc.collect() == 0, (n, max_mult, pruned, orbit_reps)
        for least_pairs in (1, 2):
            with monkeypatch.context() as patch:
                def raise_(*args):
                    if len(sys._getframe(1).f_locals["pairs"]) >= least_pairs:
                        raise _Raised(least_pairs)
                    return _triple_pairs(*args)
                patch.setattr(bergefree.search, "_triple_pairs", raise_)
                try:
                    bf.max_weight_exact(7, first_level_orbit_reps=True)
                except _Raised:
                    pass
                else:
                    raise AssertionError(f"no _triple_pairs call at {least_pairs} pairs")
            assert gc.collect() == 0, least_pairs
    finally:
        gc.enable()


def test_search_pinned_n8_orbit_reps():
    result = bf.max_weight_exact(8, first_level_orbit_reps=True, allow_large=True)
    assert _summary(result) == (15, 49387, (tuple(range(8)),) * 3)


# max_mult -> (best_weight, nodes_explored, witness, closing_masks,
# expanded, wide_leaves) at n = 8 with orbit reps; distinct_closings is left
# out, as it counts a cache whose lookups a change of rule may move.
PINNED_N8_ORBIT_REPS = {
    1: (13, 43324, ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 3, 4, 5, 7)),
        42699, 749, 23582),
    2: (14, 48021, ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6)),
        47367, 1638, 25120),
}


@pytest.mark.parametrize("max_mult", sorted(PINNED_N8_ORBIT_REPS))
def test_search_pinned_n8_orbit_reps_below_max_mult_3(max_mult):
    """n = 8 with orbit reps at max_mult 1 and 2, where nodes of three or
    more chosen hyperedges decide children in the one masked loop; the
    n <= 7 pins reach few of them."""
    result = bf.max_weight_exact(8, max_mult=max_mult, first_level_orbit_reps=True,
                                 allow_large=True)
    assert (*_summary(result), result.closing_masks, result.expanded,
            result.wide_leaves) == PINNED_N8_ORBIT_REPS[max_mult]


def test_search_pinned_n9_orbit_reps():
    """n = 9 with orbit reps, where the wide middles of nodes with three or
    more chosen hyperedges decide 26,934 children (6 at n = 7), along with
    the bulk leaves of nodes with two: no n <= 7 pin shows those rules at
    work.  The index scan is too slow here, so the counters are pinned,
    not checked against it."""
    result = bf.max_weight_exact(9, first_level_orbit_reps=True, allow_large=True)
    assert _summary(result) == (18, 383384, (tuple(range(9)),) * 3)
    assert _counts(result) == (381556, 46009, 12757, 146943)


def _count_triple_pairs_calls(monkeypatch):
    """Patch the search's _triple_pairs, which builds every child's mask,
    to count its calls in the list returned: a child decided in bulk makes
    none."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _triple_pairs(*args)

    monkeypatch.setattr(bergefree.search, "_triple_pairs", counted)
    return calls


@pytest.mark.parametrize("n", range(7))
def test_bitset_walk_matches_index_scan_oracle(n, monkeypatch):
    """The walk over candidate bits reaches the nodes the index scan
    reaches, in the same order: the same best weight, node count and
    witness for every max_mult, with and without the bound and the
    first-level orbit reps.  n < 4 has an empty universe and n = 4 one
    candidate, so the last chosen index is the universe's last."""
    calls = _count_triple_pairs_calls(monkeypatch)
    for max_mult, pruned, orbit_reps in product((1, 2, 3), (True, False), (False, True)):
        calls.clear()
        result = bf.max_weight_exact(n, max_mult=max_mult, pruned=pruned,
                                     first_level_orbit_reps=orbit_reps)
        counts = {}
        assert _summary(result) == max_weight_by_index_scan(
            n, max_mult, pruned, orbit_reps, counts), (n, max_mult, pruned, orbit_reps)
        assert _counts(result) == _oracle_counts(counts), (n, max_mult, pruned, orbit_reps)
        assert len(calls) == counts["triple_calls"], (n, max_mult, pruned, orbit_reps)


@pytest.mark.parametrize("max_mult", (1, 2, 3))
def test_bitset_walk_matches_index_scan_oracle_n7_orbit_reps(max_mult, monkeypatch):
    calls = _count_triple_pairs_calls(monkeypatch)
    result = bf.max_weight_exact(7, max_mult=max_mult, first_level_orbit_reps=True)
    counts = {}
    expected = max_weight_by_index_scan(7, max_mult, True, True, counts)
    assert _summary(result) == expected == PINNED_N7_SEARCHES[max_mult, True]
    assert _counts(result) == _oracle_counts(counts)
    assert len(calls) == counts["triple_calls"]


@pytest.mark.parametrize("max_mult", (1, 2, 3))
def test_bitset_walk_matches_index_scan_oracle_n7_canonical_root(max_mult, monkeypatch):
    """At n = 7 from the canonical root, where best rises inside many
    third-level subtrees, so the third level takes its counted, tested and
    wide-middle leaf sets again after many entered children, the walk
    matches the index scan's summary, counters and _triple_pairs calls."""
    calls = _count_triple_pairs_calls(monkeypatch)
    result = bf.max_weight_exact(7, max_mult=max_mult)
    counts = {}
    assert _summary(result) == max_weight_by_index_scan(7, max_mult, True, False, counts)
    assert _counts(result) == _oracle_counts(counts)
    assert len(calls) == counts["triple_calls"]


@pytest.mark.parametrize("max_mult", (1, 2, 3))
def test_bitset_walk_matches_index_scan_oracle_when_best_rises_deeper(max_mult, monkeypatch):
    """The search's own universes reach their optimum at the first
    third-level child, so best never rises after it.  On the 4-sets alone
    at n = 7 the optimum takes four or more hyperedges: best rises inside
    an entered third-level child, and the third level must take its
    counted, tested and wide-middle leaf sets again for the children after
    it.  The walk matches the index scan on that universe too."""
    def four_sets(n):
        return list(combinations(range(n), 4))

    monkeypatch.setattr(bergefree.search, "candidate_universe", four_sets)
    monkeypatch.setattr(oracles, "candidate_universe", four_sets)
    calls = _count_triple_pairs_calls(monkeypatch)
    result = bf.max_weight_exact(7, max_mult=max_mult)
    counts = {}
    assert _summary(result) == max_weight_by_index_scan(7, max_mult, True, False, counts)
    assert _counts(result) == _oracle_counts(counts)
    assert len(calls) == counts["triple_calls"]
    assert len(result.witness.hyperedges) > 3


def test_ceiling_checked_before_the_universe(monkeypatch):
    """n above CEILING_MAX_N raises ValueError, allow_large or not, before
    the universe is built; n at the ceiling reaches it.  The universe is
    patched to raise, so no large size is ever allocated."""
    class UniverseBuilt(Exception):
        pass

    def refuse(n):
        raise UniverseBuilt(n)

    monkeypatch.setattr(bergefree.search, "candidate_universe", refuse)
    for n in (CEILING_MAX_N + 1, 30, 10**18):
        for allow_large in (True, False):
            with pytest.raises(ValueError, match="ceiling n <= 16"):
                bf.max_weight_exact(n, allow_large=allow_large)
    with pytest.raises(UniverseBuilt):
        bf.max_weight_exact(CEILING_MAX_N, allow_large=True)


@pytest.mark.parametrize("seed", range(20))
def test_greedy_generator_matches_full_recheck_oracle(seed):
    n = 8 + 2 * seed
    size_range = (2, 4) if seed % 2 else (3, 6)
    expected = greedy_by_full_recheck(n, size_range, 60, random.Random(seed))
    assert bf.random_greedy_hypergraph(n, size_range, trials=60, rng=seed) == expected


@pytest.mark.parametrize("n, seeds", [(None, range(48)), (30, range(500))],
                         ids=["corpus", "acceptance"])
def test_greedy_generator_matches_search_state_oracle(n, seeds):
    """The generator's running closing-pair mask keeps exactly what the
    path walk on a SearchState keeps, byte for byte, with the parameters
    the benchmark corpus (n = 20..60) and the acceptance suite (n = 30)
    draw with: sizes 4..8, 150 trials."""
    for seed in seeds:
        size = 20 + (seed * 17) % 41 if n is None else n
        expected = greedy_by_search_state(size, (4, 8), 150, random.Random(seed))
        got = bf.random_greedy_hypergraph(size, (4, 8), trials=150, rng=seed)
        assert got == expected, (size, seed)
        assert got.to_json_dict() == expected.to_json_dict()


def test_small_hyperedges_never_help():
    """Sets of size <= 3 carry nonpositive weight and dropping hyperedges
    never creates a cycle, so excluding them from the universe is safe."""
    for size in (1, 2, 3):
        assert bf.weight(bf.Hypergraph(4, (frozenset(range(size)),))) <= 0
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(4, 8)
        hyperedges = tuple(frozenset(rng.sample(range(n), rng.randint(2, n)))
                           for _ in range(rng.randint(1, 6)))
        h = bf.Hypergraph(n, hyperedges)
        if bf.is_berge_c4_free(h):
            kept = tuple(e for e in hyperedges if len(e) >= 4)
            assert bf.is_berge_c4_free(bf.Hypergraph(n, kept))
            assert bf.weight(bf.Hypergraph(n, kept)) >= bf.weight(h)

