"""Independent brute-force recomputations used to cross-check the library.

Everything here is deliberately naive: breadth-first distance classes,
quadratic pair scans, full subset/permutation enumeration, and multiset
enumeration.  What is shared with the library is named where it is used:
the data types, distinct_representatives (which test_berge checks against
_hall4 on every mask 4-tuple), and, in greedy_by_full_recheck, the
detector's vertex-level Berge-C4 scan, which neither the twin-class
quotient nor the search's candidate scan uses.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, compress, permutations, product

from bergefree import (
    BergeCycleWitness,
    Digraph,
    Graph,
    Hypergraph,
    Pattern,
    weight,
)
from bergefree.berge import _first_c4_minimum, _shadow_masks, distinct_representatives


def bfs_neighborhoods(graph: Graph, v: int) -> tuple[frozenset[int], frozenset[int]]:
    """Distance classes 1 and 2 from v by breadth-first search."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for y in range(graph.n):
            key = (min(x, y), max(x, y))
            if x != y and key in graph.edges and y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    n1 = frozenset(u for u, d in dist.items() if d == 1)
    n2 = frozenset(u for u, d in dist.items() if d == 2)
    return n1, n2


def shadow_by_scan(hypergraph: Hypergraph) -> set[tuple[int, int]]:
    """All covered pairs by a quadratic vertex-pair scan."""
    out = set()
    for x in range(hypergraph.n):
        for y in range(x + 1, hypergraph.n):
            if any(x in h and y in h for h in hypergraph.hyperedges):
                out.add((x, y))
    return out


def has_kst_by_enumeration(graph: Graph, s: int, t: int) -> bool:
    """K_{s,t} containment by enumerating every (S, T) subset pair."""
    vertices = range(graph.n)
    edges = graph.edges
    for s_side in combinations(vertices, s):
        rest = [v for v in vertices if v not in s_side]
        for t_side in combinations(rest, t):
            if all((min(a, b), max(a, b)) in edges
                   for a in s_side for b in t_side):
                return True
    return False


def has_pattern_by_enumeration(digraph: Digraph, pattern: Pattern) -> bool:
    """Pattern containment by scanning all injective label maps."""
    k = len(pattern.vertices)
    for image in permutations(range(digraph.n), k):
        assign = dict(zip(pattern.vertices, image))
        if all((assign[a], assign[b]) in digraph.arcs for a, b in pattern.arcs):
            return True
    return False


def has_c4_by_common_neighbors(graph: Graph) -> bool:
    """C4 containment: some vertex pair with two common neighbors."""
    for x in range(graph.n):
        for y in range(x + 1, graph.n):
            common = 0
            for z in range(graph.n):
                if z in (x, y):
                    continue
                if (min(x, z), max(x, z)) in graph.edges and \
                   (min(y, z), max(y, z)) in graph.edges:
                    common += 1
            if common >= 2:
                return True
    return False


def c4_by_pair_scan(graph: Graph):
    """First C4 (x, a, y, b) of a pair scan, or None: the least pair x < y
    with two common neighbors, and its two least common neighbors a < b."""
    nbrs = _neighbor_sets(graph)
    for x in range(graph.n):
        for y in range(x + 1, graph.n):
            common = sorted(nbrs[x] & nbrs[y])
            if len(common) >= 2:
                return (x, common[0], y, common[1])
    return None


def triangle_by_sorted_edges(graph: Graph):
    """First triangle (u, v, w) over the sorted edge list, or None: w is
    the least common neighbor of the first edge u < v that has one."""
    nbrs = _neighbor_sets(graph)
    for u, v in sorted(graph.edges):
        common = nbrs[u] & nbrs[v]
        if common:
            return (u, v, min(common))
    return None


def _neighbor_sets(graph: Graph) -> list[set[int]]:
    nbrs = [set() for _ in range(graph.n)]
    for u, v in graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def aux_sets_by_definition(projection: Graph, v: int) -> dict[str, set]:
    """G, G_aux, B, B' around v straight from their definitions."""
    n1 = {x for x in range(projection.n)
          if (min(v, x), max(v, x)) in projection.edges}
    n2 = set()
    for x in n1:
        for y in range(projection.n):
            if y != v and y not in n1 and (min(x, y), max(x, y)) in projection.edges:
                n2.add(y)
    g = {(x, y) for x, y in combinations(sorted(n1), 2)
         if (x, y) in projection.edges}
    g_aux = set()
    for x, y in combinations(sorted(n1), 2):
        for w in n2:
            if (min(x, w), max(x, w)) in projection.edges and \
               (min(y, w), max(y, w)) in projection.edges:
                g_aux.add((x, y))
                break
    b = {(x, y) for x in n1 for y in n2
         if (min(x, y), max(x, y)) in projection.edges}
    b_prime = {(x, y) for x, y in b
               if any(z != x and (z, y) in b for z in n1)}
    return {"n1": n1, "n2": n2, "g": g, "g_aux": g_aux,
            "g_aux_prime": g_aux - g, "b": b, "b_prime": b_prime}


def max_weight_by_multisets(n: int, max_mult: int = 3) -> int:
    """Best Berge-C4-free weight by enumerating every multiplicity vector
    over the size >= 4 subsets, each decided by canonical_c4_by_enumeration;
    feasible only for n <= 5."""
    cands = [frozenset(c) for size in range(4, n + 1)
             for c in combinations(range(n), size)]
    best = 0
    for mults in product(range(max_mult + 1), repeat=len(cands)):
        hyperedges = []
        for cand, mult in zip(cands, mults):
            hyperedges.extend([cand] * mult)
        candidate = Hypergraph(n, tuple(hyperedges))
        if canonical_c4_by_enumeration(candidate) is None:
            best = max(best, weight(candidate))
    return best


def canonical_c4_by_enumeration(hypergraph: Hypergraph):
    """First Berge-C4 in canonical order, or None; see
    canonical_cycle_by_enumeration."""
    return canonical_cycle_by_enumeration(hypergraph, 4)


def canonical_cycle_by_enumeration(hypergraph: Hypergraph, k: int):
    """First Berge-Ck in canonical order, or None, by trying every k-tuple.

    Tuples (v1, ..., vk) come in lexicographic order with v1 the minimum
    and v2 < vk when k > 2; each slot lists the hyperedges holding its
    pair, in id order, and distinct_representatives picks the hyperedges
    in slot order.
    """
    n = hypergraph.n
    for v1 in range(n):
        for rest in permutations(range(v1 + 1, n), k - 1):
            if k > 2 and rest[0] > rest[-1]:
                continue
            cycle = (v1,) + rest
            slots = [[hid for hid, h in enumerate(hypergraph.hyperedges)
                      if cycle[i] in h and cycle[(i + 1) % k] in h]
                     for i in range(k)]
            chosen = distinct_representatives(slots)
            if chosen is not None:
                return BergeCycleWitness(cycle, tuple(chosen))
    return None


def plane_incidence_by_dot_products(q: int) -> frozenset[tuple[int, int]]:
    """Incidence edges of PG(2, q): point i meets line j iff their
    normalized coordinate triples have dot product 0 mod q."""
    triples = [(1, a, b) for a in range(q) for b in range(q)]
    triples.extend((0, 1, b) for b in range(q))
    triples.append((0, 0, 1))
    count = len(triples)
    return frozenset(
        (i, count + j)
        for i, p in enumerate(triples)
        for j, line in enumerate(triples)
        if (p[0] * line[0] + p[1] * line[1] + p[2] * line[2]) % q == 0
    )


def prime_sieve(limit: int) -> bytearray:
    """sieve[q] == 1 iff q is prime, for 0 <= q <= limit (Eratosthenes)."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = 0
    if limit >= 1:
        sieve[1] = 0
    for f in range(2, limit + 1):
        if f * f > limit:
            break
        if sieve[f]:
            sieve[f * f::f] = bytes(len(range(f * f, limit + 1, f)))
    return sieve


def largest_fitting_prime_upward(n: int, start: int = 2):
    """Largest prime q >= start with 6(q^2+q+1) <= n, or None, by walking
    every q upward from start and reading primality off a sieve of
    Eratosthenes over [start, limit] (segmented by the primes up to
    sqrt(limit) when start > 2)."""
    limit = int((max(n, 0) / 6) ** 0.5) + 2  # above any fitting q
    start = max(start, 2)
    if start > limit:
        return None
    window = bytearray([1]) * (limit - start + 1)  # window[i]: is start + i prime
    for f in primes_up_to(int(limit ** 0.5) + 1):
        first = max(f * f, -(-start // f) * f)
        window[first - start::f] = bytes(len(range(first, limit + 1, f)))
    best = None
    q = start
    while 6 * (q * q + q + 1) <= n:
        if window[q - start]:
            best = q
        q += 1
    return best


def primes_up_to(limit: int) -> list[int]:
    return list(compress(range(limit + 1), prime_sieve(limit)))


def is_prime_by_trial_division(q: int, primes: list[int]) -> bool:
    """Primality of q by division by every prime up to sqrt(q); primes must
    list, in ascending order, every prime up to sqrt(q)."""
    if q < 2:
        return False
    for f in primes:
        if f * f > q:
            break
        if q % f == 0:
            return False
    return True


def greedy_by_full_recheck(n: int, size_range: tuple[int, int], trials: int, rng) -> Hypergraph:
    """The greedy generator's draws, keeping each candidate only when the
    whole hypergraph with it added passes a full Berge-C4 check by the
    detector's vertex-level scan."""
    kept: tuple[frozenset[int], ...] = ()
    for _ in range(trials):
        size = rng.randint(*size_range)
        candidate = frozenset(rng.sample(range(n), size))
        if _first_c4_minimum(*_shadow_masks(Hypergraph(n, kept + (candidate,)))) is None:
            kept += (candidate,)
    return Hypergraph(n, kept)
