"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets (wall clock, generous CI hardware): criterion 1 under 5 minutes,
criterion 2 under 1 minute, criterion 3 under 2 minutes, criterion 4 under
10 minutes, criterion 6 seconds.  All tolerances are exact integer/boolean
checks except the construction ratio, compared at 1e-6.
"""

import json
import math
import random
import time
from itertools import combinations, combinations_with_replacement

import bergefree as bf
from bergefree.cli import main
from oracles import (
    degree_stats,
    has_c4_by_common_neighbors,
    max_weight_by_multisets,
    observation1_by_incidence,
)

LISTED_PRIMES = (2, 3, 5, 7, 11, 13)


def test_criterion_1_detector_oracle_equivalence():
    """Exhaustive agreement of find_berge_cycle and naive_berge_oracle."""
    start = time.perf_counter()
    instances = 0
    for n in (2, 3, 4, 5):
        universe = [frozenset(c)
                    for size in range(2, min(5, n) + 1)
                    for c in combinations(range(n), size)]
        for count in range(5):
            for combo in combinations_with_replacement(range(len(universe)), count):
                h = bf.Hypergraph(n, tuple(universe[i] for i in combo))
                instances += 1
                for k in (2, 3, 4, 5):
                    fast = bf.find_berge_cycle(h, k)
                    slow = bf.naive_berge_oracle(h, k)
                    assert (fast is None) == (slow is None), (
                        f"disagree on n={n}, k={k}, "
                        f"hyperedges={[sorted(e) for e in h.hyperedges]}"
                    )
                    if fast is not None:
                        bf.validate_witness(h, fast)
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"[criterion 1] PASS: detector == oracle on {instances} exhaustive "
          f"instances, k in 2..5 ({elapsed:.1f}s)")


def test_criterion_2_construction_identities():
    start = time.perf_counter()
    for q in LISTED_PRIMES:
        count = q * q + q + 1
        plane = bf.projective_plane_incidence(q)
        g = plane.graph()
        assert len(plane.points) == len(plane.lines) == count
        assert len(g.edges) == count * (q + 1)
        degrees, _ = degree_stats(g)
        assert set(degrees) == {q + 1}
        assert bf.find_c4_in_graph(g) is None  # 2-path scan over every vertex
        if q <= 3:  # independent cubic-time oracle where affordable
            assert not has_c4_by_common_neighbors(g)
        blown = bf.blow_up(g, 3)
        assert bf.weight(blown) == 3 * count * (q + 1)
        ratio = bf.weight(blown) / blown.n ** 1.5
        assert ratio - 0.204 > 1e-6
        assert ratio - 1 / (2 * math.sqrt(6)) > 1e-6
    built = bf.lower_bound_construction(798)
    assert built.q == 11 and built.hypergraph.n == 798 and built.weight == 4788
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"[criterion 2] PASS: identities, regularity, C4-freeness, and "
          f"ratios for q in {LISTED_PRIMES} ({elapsed:.1f}s)")


def test_criterion_3_blowups_berge_free():
    start = time.perf_counter()
    verdicts = {}
    for q in LISTED_PRIMES:
        g = bf.projective_plane_incidence(q).graph()
        certificate = bf.certify_blowup_free(g)
        assert certificate.certified, f"q={q} not certified: {certificate}"
        verdicts[q] = True
    for q in (2, 3):
        g = bf.projective_plane_incidence(q).graph()
        free = bf.is_berge_c4_free(bf.blow_up(g, 3))
        assert free == verdicts[q]  # detector and certificate agree
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"[criterion 3] PASS: certificates for q in {LISTED_PRIMES}, direct "
          f"detector agreement for q in (2, 3) ({elapsed:.1f}s)")


def test_criterion_4_lemma_suite_zero_violations():
    start = time.perf_counter()
    for q in (2, 3):
        blown = bf.blow_up(bf.projective_plane_incidence(q).graph(), 3)
        suite = bf.verify_lemma_suite(blown)
        observation = observation1_by_incidence(bf.build_embedded_graph(blown))
        assert suite.ok and suite.violations == ()
        assert observation.ok
    checked = 0
    for seed in range(500):
        h = bf.random_greedy_hypergraph(30, (4, 8), trials=150, rng=seed)
        observation = observation1_by_incidence(bf.build_embedded_graph(h))
        assert observation.ok, f"seed {seed}: {observation.violations}"
        suite = bf.verify_lemma_suite(h)
        assert suite.ok, f"seed {seed}: {suite.violations}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(f"[criterion 4] PASS: zero violations on q=2,3 blow-ups and "
          f"{checked} random greedy instances ({elapsed:.1f}s)")


def test_criterion_5_exact_extremal_values():
    start = time.perf_counter()
    four = bf.max_weight_exact(4)
    assert four.best_weight == 3
    assert four.witness.hyperedges == ((0, 1, 2, 3),) * 3
    assert four.best_weight == max_weight_by_multisets(4)

    values = {4: four.best_weight}
    for n in (5, 6):
        pruned = bf.max_weight_exact(n)
        unpruned = bf.max_weight_exact(n, pruned=False)
        assert pruned.best_weight == unpruned.best_weight, f"n={n}"
        assert pruned.witness == unpruned.witness
        values[n] = pruned.best_weight
        for result in (pruned, unpruned):
            assert bf.is_berge_c4_free(result.witness)
            if len(result.witness) <= 12 and result.n <= 12:
                assert bf.naive_berge_oracle(result.witness, 4) is None
    assert values[4] <= values[5] <= values[6]

    # determinism across repeated runs
    results = []
    for _ in range(2):
        results.append(bf.max_weight_exact(6))
    assert results[0] == results[1]
    elapsed = time.perf_counter() - start
    print(f"[criterion 5] PASS: exact values {values}, pruned == unpruned, "
          f"witnesses revalidated ({elapsed:.1f}s)")


def test_criterion_6_multiplicity_cap():
    start = time.perf_counter()
    rng = random.Random(20250808)
    for _ in range(200):
        size = rng.randint(4, 8)
        base = frozenset(rng.sample(range(12), size))
        three = bf.Hypergraph(12, (base,) * 3)
        four = bf.Hypergraph(12, (base,) * 4)
        assert bf.find_berge_cycle(three, 4) is None
        witness = bf.find_berge_cycle(four, 4)
        assert witness is not None
        bf.validate_witness(four, witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"[criterion 6] PASS: 200 random sets, four copies trigger, "
          f"three do not ({elapsed:.1f}s)")


def test_criterion_7_round_trip_and_determinism(tmp_path, capsys):
    start = time.perf_counter()
    # construct -> write -> read -> verify, byte-stable
    first = tmp_path / "c.json"
    assert main(["construct", "--q", "2", "-o", str(first)]) == 0
    second = tmp_path / "c2.json"
    bf.save_hypergraph(bf.load_hypergraph(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert main(["verify", "-i", str(first)]) == 0
    capsys.readouterr()

    # seeded lemma reports: identical across executions
    outputs = []
    for _ in range(3):
        assert main(["lemmas", "-i", str(first), "--sample", "10", "--seed", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]

    # search runs reproduce identical records (wall time aside)
    results = tmp_path / "results.jsonl"
    assert main(["search", "--n", "5", "-o", str(results)]) == 0
    assert main(["search", "--n", "5", "-o", str(results)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in results.read_text().splitlines()]
    for record in records:
        record.pop("wall_time_s")
    assert records[0] == records[1]
    elapsed = time.perf_counter() - start
    print(f"[criterion 7] PASS: byte-stable round trip, seeded reports "
          f"identical across three runs ({elapsed:.1f}s)")
