"""Berge cycle detection with verifiable witnesses.

A Berge cycle of length k alternates k distinct vertices and k distinct
hyperedges v1,h1,v2,h2,...,vk,hk with {v_i, v_{i+1}} inside h_i and
{v_k, v_1} inside h_k.  Detection enumerates candidate vertex cycles on the
shadow graph, one representative per dihedral class (v1 is the minimum
vertex, oriented so v2 < vk), and then asks whether the k pair-slots admit
k distinct covering hyperedges -- a system of distinct representatives over
the slot-to-hyperedge bipartite graph, decided by backtracking.

For k = 4 detection runs in two phases.  A 2-path scan (the C4 case of
Alon, Yuster and Zwick, "Finding and counting given length cycles") first
finds the smallest vertex a that is the minimum of some Berge-C4: every
pair of Berge 2-paths a-b-c and a-d-c through vertices above a is tested
with Hall's condition on its four slot masks, so a free hypergraph is
decided without a single SDR call.  Only when such an a exists does the
canonical enumerator run, from v1 = a alone, which yields the same witness
as enumerating from every v1 in ascending order.

Every witness a search returns is re-validated against the definition
before it is handed out, independently of how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional, Sequence

from .core import Graph, Hypergraph, iter_bits


@dataclass(frozen=True)
class BergeCycleWitness:
    """Alternating vertex/hyperedge sequence certifying a Berge-Ck."""

    vertices: tuple[int, ...]
    hyperedges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "hyperedges", tuple(self.hyperedges))
        if len(self.vertices) != len(self.hyperedges):
            raise ValueError("witness needs as many hyperedges as vertices")

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "hyperedges": list(self.hyperedges)}


def validate_witness(hypergraph: Hypergraph, witness: BergeCycleWitness) -> None:
    """Check a witness against the Berge-cycle definition; raise if invalid."""
    k = len(witness.vertices)
    if k < 2:
        raise ValueError("a Berge cycle has length at least 2")
    if len(set(witness.vertices)) != k:
        raise ValueError(f"vertices not distinct: {witness.vertices}")
    if len(set(witness.hyperedges)) != k:
        raise ValueError(f"hyperedges not distinct: {witness.hyperedges}")
    for i in range(k):
        u = witness.vertices[i]
        v = witness.vertices[(i + 1) % k]
        hid = witness.hyperedges[i]
        if not 0 <= hid < len(hypergraph.hyperedges):
            raise ValueError(f"hyperedge id {hid} out of range")
        h = hypergraph.hyperedges[hid]
        if u not in h or v not in h:
            raise ValueError(f"pair ({u},{v}) not inside hyperedge {hid}")


def distinct_representatives(slot_candidates: Sequence[Sequence[int]]) -> Optional[list[int]]:
    """Pick one id per slot, all distinct; smallest-domain-first backtracking.

    Returns the chosen ids indexed by slot, or None when no system of
    distinct representatives exists.  Deterministic for fixed input.
    """
    k = len(slot_candidates)
    order = sorted(range(k), key=lambda i: (len(slot_candidates[i]), i))
    chosen: list[int] = [-1] * k
    used: set[int] = set()

    def place(pos: int) -> bool:
        if pos == k:
            return True
        slot = order[pos]
        for hid in slot_candidates[slot]:
            if hid not in used:
                used.add(hid)
                chosen[slot] = hid
                if place(pos + 1):
                    return True
                used.remove(hid)
        return False

    return chosen if place(0) else None


def find_berge_cycle(hypergraph: Hypergraph, k: int) -> Optional[BergeCycleWitness]:
    """First Berge-Ck of the hypergraph in canonical order, or None.

    Canonical order: cycles are keyed by their vertex sequence with the
    minimum vertex first and v2 < vk; sequences are generated
    lexicographically, so the returned witness is deterministic.
    """
    if k < 2:
        raise ValueError(f"Berge cycle length must be >= 2, got {k}")
    n = hypergraph.n
    m = len(hypergraph.hyperedges)
    if k > n or k > m:
        return None

    # cover_masks[u][v]: bitmask of the hyperedges holding both u and v
    cover = hypergraph.pair_cover
    cover_masks: list[dict[int, int]] = [{} for _ in range(n)]
    adj = [0] * n
    for (u, v), ids in cover.items():
        cover_masks[u][v] = cover_masks[v][u] = _ids_mask(ids)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    first = range(n)
    if k == 4:
        a = _first_c4_minimum(adj, cover_masks)
        if a is None:
            return None
        first = (a,)

    path = [0] * k

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def extend(depth: int, used_mask: int, allowed: int, union_mask: int) -> Optional[BergeCycleWitness]:
        # path[0..depth-1] fixed; union_mask covers the depth-1 slots so far.
        last = path[depth - 1]
        if depth == k:
            v1 = path[0]
            if not (adj[last] >> v1) & 1:
                return None
            if k > 2 and path[1] > last:
                return None  # orientation: keep only v2 < vk
            if (union_mask | cover_masks[last][v1]).bit_count() < k:
                return None
            slots = [key(path[i], path[(i + 1) % k]) for i in range(k)]
            assignment = distinct_representatives([cover[s] for s in slots])
            if assignment is None:
                return None
            witness = BergeCycleWitness(tuple(path), tuple(assignment))
            validate_witness(hypergraph, witness)
            return witness
        for w in iter_bits(adj[last] & allowed & ~used_mask):
            new_union = union_mask | cover_masks[last][w]
            if new_union.bit_count() < depth:
                continue  # fewer distinct hyperedges than slots: dead prefix
            path[depth] = w
            found = extend(depth + 1, used_mask | (1 << w), allowed, new_union)
            if found is not None:
                return found
        return None

    for v1 in first:
        allowed = ~((1 << (v1 + 1)) - 1)  # cycle vertices other than v1 exceed it
        path[0] = v1
        found = extend(1, 1 << v1, allowed, 0)
        if found is not None:
            return found
    return None


def _first_c4_minimum(adj: Sequence[int], cover_masks: Sequence[dict[int, int]]) -> Optional[int]:
    """Smallest vertex that is the minimum of some Berge-C4, or None.

    A Berge-C4 a,b,c,d with minimum a is a pair of Berge 2-paths a-b-c and
    a-d-c through middles b != d, all above a, whose four slots
    ab, bc, cd, da admit distinct hyperedges.  For each a the scan groups
    the middles by their far end c, drops a middle whose two slots hold a
    single hyperedge between them (no Berge 2-path runs through it), and
    tests each pair of middles with Hall's condition.
    """
    for a in range(len(adj)):
        above = ~((1 << (a + 1)) - 1)
        middles: dict[int, list[tuple[int, int, int]]] = {}
        for b in iter_bits(adj[a] & above):
            ab = cover_masks[a][b]
            at_b = cover_masks[b]
            for c in iter_bits(adj[b] & above):
                bc = at_b[c]
                both = ab | bc
                if both.bit_count() < 2:
                    continue
                paths = middles.setdefault(c, [])
                for da, cd, other in paths:
                    # the union test alone rejects most pairs, and cheaply
                    if (both | other).bit_count() >= 4 and _hall4(ab, bc, cd, da):
                        return a
                paths.append((ab, bc, both))
    return None


def _hall4(m0: int, m1: int, m2: int, m3: int) -> bool:
    """True iff four slots with these hyperedge masks admit distinct
    representatives.  By Hall's theorem that holds iff every set of j slots
    covers at least j hyperedges, checked here for j = 1, 2, 3, 4."""
    if not (m0 and m1 and m2 and m3):
        return False
    if min((m0 | m1).bit_count(), (m0 | m2).bit_count(), (m0 | m3).bit_count(),
           (m1 | m2).bit_count(), (m1 | m3).bit_count(), (m2 | m3).bit_count()) < 2:
        return False
    return (min((m0 | m1 | m2).bit_count(), (m0 | m1 | m3).bit_count(),
                (m0 | m2 | m3).bit_count(), (m1 | m2 | m3).bit_count()) >= 3
            and (m0 | m1 | m2 | m3).bit_count() >= 4)


def _ids_mask(ids: Sequence[int]) -> int:
    mask = 0
    for hid in ids:
        mask |= 1 << hid
    return mask


def is_berge_c4_free(hypergraph: Hypergraph) -> bool:
    """True iff the hypergraph contains no Berge-C4."""
    return find_berge_cycle(hypergraph, 4) is None


def naive_berge_oracle(
    hypergraph: Hypergraph,
    k: int,
    max_vertices: int = 12,
    max_hyperedges: int = 12,
) -> Optional[BergeCycleWitness]:
    """Brute-force Berge-Ck search used as a cross-validation oracle.

    Enumerates every ordered k-tuple of distinct vertices and, per tuple,
    the ordered k-tuples of distinct hyperedges position by position
    (a slot prefix is abandoned as soon as its pair escapes the candidate
    hyperedge, which never changes the verdict).  Intended for tiny
    instances only; the size guard is there to keep misuse loud.
    """
    if k < 2:
        raise ValueError(f"Berge cycle length must be >= 2, got {k}")
    n = hypergraph.n
    m = len(hypergraph.hyperedges)
    if n > max_vertices or m > max_hyperedges:
        raise ValueError(
            f"instance too large for the naive oracle (n={n}, m={m}, "
            f"guard n<={max_vertices}, m<={max_hyperedges})"
        )
    if k > n or k > m:
        return None

    hyperedges = hypergraph.hyperedges
    chosen = [0] * k

    def assign(pos: int, pairs: list[tuple[int, int]], used: int) -> bool:
        if pos == k:
            return True
        u, v = pairs[pos]
        for hid in range(m):
            if used >> hid & 1:
                continue
            h = hyperedges[hid]
            if u in h and v in h:
                chosen[pos] = hid
                if assign(pos + 1, pairs, used | (1 << hid)):
                    return True
        return False

    for vt in permutations(range(n), k):
        pairs = [(vt[i], vt[(i + 1) % k]) for i in range(k)]
        if assign(0, pairs, 0):
            witness = BergeCycleWitness(vt, tuple(chosen))
            validate_witness(hypergraph, witness)
            return witness
    return None


def find_c4_in_graph(graph: Graph) -> Optional[tuple[int, int, int, int]]:
    """A 4-cycle (x, a, y, b) of a simple graph, or None.

    x is the least vertex that has a partner y > x with two common
    neighbors, y the least such partner, and a < b the two least common
    neighbors.  A pair x < y closes a C4 exactly when two 2-paths x-a-y and
    x-b-y share both ends, so one pass over the neighbors of x collects the
    far ends above x seen once (seen) and twice (dup), shifted down by
    x + 1: 2|E| mask operations in all, not n^2/2 vertex-pair tests.
    """
    masks = graph.adjacency_masks
    for x in range(graph.n):
        seen = dup = 0
        for a in iter_bits(masks[x]):
            ends = masks[a] >> (x + 1)
            dup |= seen & ends
            seen |= ends
        if dup:
            y = x + (dup & -dup).bit_length()
            it = iter_bits(masks[x] & masks[y])
            a = next(it)
            b = next(it)
            return (x, a, y, b)
    return None


def find_triangle(graph: Graph) -> Optional[tuple[int, int, int]]:
    """A triangle (u, v, w) of a simple graph, or None.

    Edges u < v are tried in sorted order (u ascending, then v), and w is
    the least common neighbor of the first edge that has one.
    """
    masks = graph.adjacency_masks
    for u in range(graph.n):
        for offset in iter_bits(masks[u] >> (u + 1)):
            v = u + 1 + offset
            common = masks[u] & masks[v]
            if common:
                w = next(iter_bits(common))
                return (u, v, w)
    return None
