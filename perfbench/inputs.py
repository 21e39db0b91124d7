"""Seeded benchmark inputs, built without the package under test.

Planes and blow-ups are generated here from their definitions, so a later
change to `bergefree.constructions` cannot change what the benchmark feeds
the program.  A hypergraph is a pair (n, hyperedges) with each hyperedge a
sorted list of vertices; the list position is the hyperedge id.
"""

from __future__ import annotations

import json
import random


def plane_edges(q: int) -> tuple[int, list[tuple[int, int]]]:
    """Point-line incidence graph of PG(2, q), q prime: (vertex count, edges).

    Point i is vertex i and line j is vertex N + j, N = q^2 + q + 1.
    """
    reps = [(1, a, b) for a in range(q) for b in range(q)]
    reps += [(0, 1, b) for b in range(q)] + [(0, 0, 1)]
    count = len(reps)
    edges = [
        (i, count + j)
        for i, p in enumerate(reps)
        for j, line in enumerate(reps)
        if (p[0] * line[0] + p[1] * line[1] + p[2] * line[2]) % q == 0
    ]
    return 2 * count, edges


def blow_up(q: int) -> tuple[int, list[list[int]]]:
    """3-fold blow-up of the PG(2, q) incidence graph: n = 6(q^2+q+1).

    Its 3 copies per vertex and girth-6 base make it Berge-C4-free and
    Berge-C5-free, and both properties pass to every hyperedge subset.
    """
    n_base, edges = plane_edges(q)
    hyperedges = [sorted({3 * u, 3 * u + 1, 3 * u + 2, 3 * v, 3 * v + 1, 3 * v + 2})
                  for u, v in edges]
    return 3 * n_base, hyperedges


def relabel(n: int, hyperedges: list[list[int]], rng: random.Random,
            n_total: int | None = None) -> tuple[int, list[list[int]]]:
    """Map the vertices into a random injection of range(n_total) and shuffle
    the hyperedge order; vertices left over are isolated."""
    n_total = n if n_total is None else n_total
    image = rng.sample(range(n_total), n)
    out = [sorted(image[v] for v in h) for h in hyperedges]
    rng.shuffle(out)
    return n_total, out


def plant_cycle(n: int, hyperedges: list[list[int]], k: int,
                rng: random.Random) -> list[list[int]]:
    """Add a Berge-Ck: k hyperedges, the i-th holding the cycle pair
    (c_i, c_{i+1}) plus 0-3 random extra vertices, at random positions."""
    cycle = rng.sample(range(n), k)
    out = [list(h) for h in hyperedges]
    for i in range(k):
        pair = {cycle[i], cycle[(i + 1) % k]}
        extra = rng.sample([v for v in range(n) if v not in pair], rng.randint(0, 3))
        out.insert(rng.randint(0, len(out)), sorted(pair | set(extra)))
    return out


def hypergraph_json(n: int, hyperedges: list[list[int]]) -> str:
    return json.dumps({"n": n, "hyperedges": hyperedges}, separators=(",", ":")) + "\n"
