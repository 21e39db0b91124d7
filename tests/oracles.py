"""Independent recomputations used to cross-check the library.

Most of this is deliberately naive: breadth-first distance classes (and
distances over the twin classes for the gate's hyperedge masks,
walk_masks_by_distance), quadratic pair scans, full subset/permutation
enumeration, and multiset enumeration.  It also owns the path-walk
Berge-C4 state (SearchState, _closes_c4, _pair_closes,
incremental_c4_check), the oracle for the
library's closing-pair mask and greedy generator, the generator's draw
test before it read per-vertex rows, one product of the draw's spread
against one n^2-bit closing mask (greedy_by_spread_product), the same
mask built one shifted row per end vertex a (closing_pairs_by_vertex_loop, which the
library's class products must equal bit for bit), the exact search's
mask of three hyperedges as three calls of _triple_pairs
(closing_pairs_of_three),
the pairs of its wide triples set pair by pair (wide_pairs), the count
of its calls (meeting_triples), the scan of
every candidate's pair bits that built its survivors before they were read
off per-pair masks (survivors_by_candidate_scan), and the directed
patterns F1 and F2 of the K_{5,5} argument's endgame with the arc
container they are matched in.  The lemma suite's per-vertex checks
before they ran on adjacency rows are kept here as edge sets
(aux_bundle_by_pair_scan, vertex_checks_on_bundle), with a set-based
first K_{s,t} (first_kst_by_neighbor_sets) in place of the row engine;
the bundle (AuxBundle, build_aux_bundle) and the whole rows it is read
off (_VertexRows, _vertex_rows, _upper_edges), which the suite built for
every vertex before it counted them in one pass, left the package for
here, and so did the whole-graph pair-color index that ColoredGraph kept
before the suite read only its checked vertices' spokes (pair_colors,
colors_of).  The whole-graph phase before its linear passes is kept too: the builder that decomposes every hyperedge
(embedded_graph_by_decomposition), observation 1 on every color
(observation1_by_incidence, now the one checker of it: the library
reports it by construction) and the K_{s,t} row engine that tries every
s-subset of the candidates (kst_by_subset_enumeration).  So are the
per-edge loops that normalised Graph and ColoredGraph input
(graph_edges_by_loop, colored_edges_by_loop), and the detector's vertex
search by path extension before its witness became a closed walk on one
class per vertex (first_vertex_cycle_by_path_extension), the plane's
line lists solved line by line before they were read off slope families
(points_on), and the smallest-domain-first backtracking SDR on id lists
(distinct_representatives_by_backtracking) that the library's Hall-guided
distinct_representatives replaced: test_berge requires the same verdict
as _hall and the same assignment as the library on every k-tuple of masks
over four ids for k up to 4, and on seeded tuples up to k = 8.
What is shared with the library is named where it is used: the data
types, in first_cycle_by_vertex_classes, for k != 4, the detector's walk
gate, run on one class per vertex instead of the twin classes (for k = 4
it runs c4_class_by_path_pairs, the detector's gate before its seen/dup
fold), in greedy_by_full_recheck, the full detector, which the
closing-pair mask does not use, and, in max_weight_by_index_scan (the
exact search's walk before its candidates became bits, which must reach
the same nodes in the same order), the candidate universe and the
closing-pair mask engine; embedded_graph_by_decomposition calls
decompose_hyperedge, and kst_by_subset_enumeration checks its witness
with the library's _check_kst_witness.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, compress, permutations, product
from typing import Iterable, Mapping, NamedTuple, Sequence

from bergefree import (
    BergeCycleWitness,
    ColoredGraph,
    Graph,
    Hypergraph,
    is_berge_c4_free,
    validate_witness,
    weight,
)
from bergefree.berge import (
    _closing_pairs,
    _hall,
    _triple_pairs,
    distinct_representatives,
)
from bergefree.core import iter_bits
from bergefree.embedding import (
    ObservationReport,
    decompose_hyperedge,
)
from bergefree.patterns import _check_kst_witness
from bergefree.search import candidate_universe


def bfs_neighborhoods(graph: Graph, v: int) -> tuple[frozenset[int], frozenset[int]]:
    """Distance classes 1 and 2 from v by breadth-first search."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        if dist[x] == 2:
            break  # the queue holds no vertex nearer than x
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


def degree_stats(graph: Graph) -> tuple[list[int], float]:
    """Degree sequence from the adjacency masks and average degree 2|E|/n."""
    degrees = [mask.bit_count() for mask in graph.adjacency_masks]
    return degrees, 2 * len(graph.edges) / graph.n


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


class Arcs(NamedTuple):
    """Directed graph on vertices 0..n-1 given by its arcs (u, v)."""

    n: int
    arcs: frozenset[tuple[int, int]]


class Pattern(NamedTuple):
    """A small directed pattern on abstract vertex labels."""

    name: str
    vertices: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]


# The two patterns forbidden in the membership digraph between two triples
# of colored neighbours of a vertex, non-induced, on distinct vertices.
F1 = Pattern("F1", ("x", "y", "z", "w"),
             (("y", "x"), ("z", "x"), ("w", "z")))
F2 = Pattern("F2", ("x", "y", "z", "w", "u"),
             (("y", "x"), ("z", "x"), ("z", "w"), ("u", "w")))


def has_pattern_by_enumeration(digraph: Arcs, pattern: Pattern) -> bool:
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


def first_kst_by_neighbor_sets(graph: Graph, s: int, t: int):
    """The first K_{s,t} in lexicographic order: the first s-subset S, in
    combinations order, with t common neighbours, and T the t smallest of
    them; None when there is none.  A vertex of S has degree >= t, so only
    those vertices are enumerated."""
    nbrs = _neighbor_sets(graph)
    heavy = [v for v in range(graph.n) if len(nbrs[v]) >= t]
    for s_side in combinations(heavy, s):
        common = set.intersection(*(nbrs[v] for v in s_side))
        if len(common) >= t:
            return s_side, tuple(sorted(common)[:t])
    return None


def _upper_edges(rows: dict[int, int]):
    """Edges (x, y), x < y, of symmetric rows, in ascending order."""
    for x, row in rows.items():
        for y in iter_bits(row & -(2 << x)):
            yield x, y


class _VertexRows(NamedTuple):
    """The proof objects around v as adjacency rows of the simple projection.

    For x in N1(v), in ascending order, g[x], aux[x] and gap[x] are x's full
    rows (neighbours below and above x) in G, G_aux and G'_aux.  For y in
    N2(v), in ascending order, sides[y] = N(y) & N1(v) is y's row in B; its
    edges are in B' when it has two bits or more.
    """

    g: dict[int, int]
    aux: dict[int, int]
    gap: dict[int, int]
    sides: dict[int, int]


def _vertex_rows(rows: Mapping[int, int], v: int) -> _VertexRows:
    """G, G_aux, G'_aux, B and B' around v as whole rows, every row built
    for every vertex: the rows the lemma suite's per-vertex checks read
    before embedding._vertex_checks counted them on the N1(v) rows,
    building the G_aux rows only when some side has two bits.  rows[x] is x's neighbour mask; a vertex missing from rows has
    none.

    N1(v) is v's row and N2(v) the union of the rows of N1(v) outside N1(v)
    and v.  G_aux is gathered from the N2 side: the N1 neighbours of each y
    in N2(v) are pairwise joined.
    """
    n1_mask = rows.get(v, 0)
    n2_mask = 0
    for x in iter_bits(n1_mask):
        n2_mask |= rows[x]
    n2_mask &= ~n1_mask
    if n2_mask >> v & 1:
        n2_mask ^= 1 << v
    shared = dict.fromkeys(iter_bits(n1_mask), 0)
    sides = {}
    for y in iter_bits(n2_mask):
        side = sides[y] = rows[y] & n1_mask
        if side & (side - 1):
            for x in iter_bits(side):
                shared[x] |= side
    aux = {x: row & ~(1 << x) for x, row in shared.items()}
    g = {x: rows[x] & n1_mask for x in aux}
    gap = {x: row & ~rows[x] for x, row in aux.items()}
    return _VertexRows(g, aux, gap, sides)


@dataclass(frozen=True)
class AuxBundle:
    """The proof objects around one vertex v as edge sets: G, G_aux and
    G'_aux as graphs on the colored graph's vertex labels, B and B' as sets
    of (x, y) pairs, x in N1(v) and y in N2(v)."""

    v: int
    n1: tuple[int, ...]
    n2: tuple[int, ...]
    g: Graph
    g_aux: Graph
    g_aux_prime: Graph
    b: frozenset[tuple[int, int]]
    b_prime: frozenset[tuple[int, int]]


def build_aux_bundle(colored_graph: ColoredGraph, v: int) -> AuxBundle:
    """The bundle read off whole rows (_vertex_rows).  Raises ValueError
    for a vertex outside 0..n-1."""
    proj = colored_graph.simple_projection
    if not 0 <= v < proj.n:
        raise ValueError(f"vertex {v} out of range for n={proj.n}")
    rows = _vertex_rows(dict(enumerate(proj.adjacency_masks)), v)
    b_edges = frozenset((x, y) for y, side in rows.sides.items() for x in iter_bits(side))
    return AuxBundle(
        v=v, n1=tuple(rows.g), n2=tuple(rows.sides),
        g=Graph(proj.n, frozenset(_upper_edges(rows.g))),
        g_aux=Graph(proj.n, frozenset(_upper_edges(rows.aux))),
        g_aux_prime=Graph(proj.n, frozenset(_upper_edges(rows.gap))),
        b=b_edges,
        b_prime=frozenset((x, y) for x, y in b_edges if rows.sides[y] & ~(1 << x)),
    )


def aux_bundle_by_pair_scan(colored_graph: ColoredGraph, v: int) -> AuxBundle:
    """G, G_aux, G'_aux, B, B' around v as edge sets, on N1(v) and N2(v)
    from bfs_neighborhoods: G and G_aux by a scan of the N1(v) pairs, B by
    the N1-N2 adjacencies, B' by testing each B edge's N2 end for a second
    N1 neighbour."""
    proj = colored_graph.simple_projection
    n1, n2 = map(tuple, map(sorted, bfs_neighborhoods(proj, v)))
    n1_mask = sum(1 << x for x in n1)
    n2_mask = sum(1 << y for y in n2)
    masks = proj.adjacency_masks

    g_edges = set()
    g_aux_edges = set()
    for x, y in combinations(n1, 2):
        if masks[x] >> y & 1:
            g_edges.add((x, y))
        if masks[x] & masks[y] & n2_mask:
            g_aux_edges.add((x, y))
    g = Graph(proj.n, frozenset(g_edges))
    g_aux = Graph(proj.n, frozenset(g_aux_edges))
    g_aux_prime = Graph(proj.n, frozenset(g_aux_edges - g_edges))

    b_edges = set()
    for x in n1:
        for y in iter_bits(masks[x] & n2_mask):
            b_edges.add((x, y))
    b_prime_edges = {
        (x, y) for x, y in b_edges
        if masks[y] & n1_mask & ~(1 << x)
    }
    return AuxBundle(v=v, n1=n1, n2=n2, g=g, g_aux=g_aux, g_aux_prime=g_aux_prime,
                     b=frozenset(b_edges), b_prime=frozenset(b_prime_edges))


def pair_colors(colored_graph: ColoredGraph) -> dict[tuple[int, int], tuple[int, ...]]:
    """Every colored pair (u, v), u < v, with its colors in ascending order:
    the whole-graph index ColoredGraph kept before the lemma suite read the
    colors of checked vertices' spokes only."""
    out: dict[tuple[int, int], list[int]] = {}
    for u, v, color in colored_graph.colored_edges:
        out.setdefault((u, v), []).append(color)
    return {pair: tuple(sorted(cs)) for pair, cs in out.items()}


def colors_of(colored_graph: ColoredGraph, u: int, v: int) -> tuple[int, ...]:
    """Colors carried by the pair uv (empty if not an edge), from pair_colors."""
    return pair_colors(colored_graph).get((u, v) if u < v else (v, u), ())


def vertex_checks_on_bundle(
    hypergraph: Hypergraph,
    colored_graph: ColoredGraph,
    proj_masks: tuple[int, ...],
    v: int,
) -> tuple[dict, list[dict]]:
    """One checked vertex's row and violations, as the lemma suite reports
    them, read off aux_bundle_by_pair_scan's edge sets, with the K_{5,5}
    witness from first_kst_by_neighbor_sets and each spoke's colors from
    pair_colors."""
    bundle = aux_bundle_by_pair_scan(colored_graph, v)
    colors = pair_colors(colored_graph)
    d = len(bundle.n1)
    violations: list[dict] = []
    checks: dict[str, bool] = {}

    g_count = len(bundle.g.edges)
    checks["g_size_vs_degree"] = g_count <= 3 * d
    if not checks["g_size_vs_degree"]:
        violations.append({"check": "g_size_vs_degree", "v": v,
                           "g_edges": g_count, "bound": 3 * d})

    gap_count = len(bundle.g_aux_prime.edges)
    k55 = first_kst_by_neighbor_sets(bundle.g_aux_prime, 5, 5)
    checks["k55_freeness"] = k55 is None
    if k55 is not None:
        violations.append({"check": "k55_freeness", "v": v,
                           "parts": [list(k55[0]), list(k55[1])]})
    checks["g_aux_prime_bound"] = d < 1 or gap_count < math.pow(d, 9 / 5)
    if not checks["g_aux_prime_bound"]:
        violations.append({"check": "g_aux_prime_bound", "v": v,
                           "g_aux_prime_edges": gap_count,
                           "bound": math.pow(d, 9 / 5)})

    checks["inclusion"] = True
    for x, y in sorted(bundle.g_aux_prime.edges):
        cx = colors[min(v, x), max(v, x)]
        cy = colors[min(v, y), max(v, y)]
        admissible = [(hx, hy) for hx in cx for hy in cy if hx != hy]
        if not admissible:
            checks["inclusion"] = False
            violations.append({"check": "inclusion_no_distinct_colors", "v": v,
                               "edge": [x, y], "colors_x": list(cx),
                               "colors_y": list(cy)})
        elif not any(x in hypergraph.hyperedges[hy] or y in hypergraph.hyperedges[hx]
                     for hx, hy in admissible):
            checks["inclusion"] = False
            violations.append({"check": "inclusion", "v": v, "edge": [x, y],
                               "colors_x": list(cx), "colors_y": list(cy)})

    loose = {}
    for x, y in bundle.b - bundle.b_prime:
        loose[y] = loose.get(y, 0) + 1
    checks["b_minus_bprime_degree"] = True
    for y, count in sorted(loose.items()):
        if count > 1:
            checks["b_minus_bprime_degree"] = False
            violations.append({"check": "b_minus_bprime_degree", "v": v,
                               "n2_vertex": y, "incident": count})

    two_paths = sum(proj_masks[x].bit_count() - 1 for x in bundle.n1)
    checks["two_path_count"] = len(bundle.b) + 2 * g_count == two_paths
    if not checks["two_path_count"]:
        violations.append({"check": "two_path_count", "v": v,
                           "b_edges": len(bundle.b), "g_edges": g_count,
                           "two_paths": two_paths})

    row = {
        "v": v,
        "d": d,
        "g_edges": g_count,
        "g_aux_edges": len(bundle.g_aux.edges),
        "g_aux_prime_edges": gap_count,
        "b_edges": len(bundle.b),
        "b_prime_edges": len(bundle.b_prime),
        "checks": checks,
        "ok": not violations,
    }
    return row, violations


def _loop_pair(edge, n: int, what: str) -> tuple[int, int]:
    u, v = edge
    if u == v:
        raise ValueError(f"{what} ({u},{v}) is a loop")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"{what} ({u},{v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


def graph_edges_by_loop(n: int, edges) -> frozenset:
    """The edges Graph(n, edges) stores, normalised edge by edge as Graph
    did before it kept normal input as it stands; raises the same error on
    the first bad edge."""
    return frozenset(_loop_pair(e, n, "edge") for e in edges)


def colored_edges_by_loop(n: int, edges) -> tuple:
    """The edges ColoredGraph(n, edges) stores, normalised edge by edge as
    ColoredGraph did before it kept normal input as it stands; raises the
    same error on the first bad edge."""
    norm = []
    seen = set()
    for u, v, color in edges:
        u, v = _loop_pair((u, v), n, "colored edge")
        if color < 0:
            raise ValueError(f"colored edge ({u},{v}) has negative color {color}")
        if (u, v, color) in seen:
            raise ValueError(f"duplicate colored edge ({u},{v}) with color {color}")
        seen.add((u, v, color))
        norm.append((u, v, color))
    return tuple(norm)


def embedded_graph_by_decomposition(hypergraph: Hypergraph) -> ColoredGraph:
    """The colored graph with every hyperedge decomposed (and validated) on
    its own vertices, as the builder did before it cached one placement per
    hyperedge size."""
    colored: list[tuple[int, int, int]] = []
    for hid, h in enumerate(hypergraph.hyperedges):
        for u, v in decompose_hyperedge(h).edges():
            colored.append((u, v, hid))
    return ColoredGraph(hypergraph.n, tuple(colored))


def observation1_by_incidence(colored_graph: ColoredGraph) -> ObservationReport:
    """Observation 1 with every (vertex, color) pair checked, matching
    colors included: at most two incident edges per color, and two
    same-colored edges xy, xz force yz in that color."""
    incident: dict[tuple[int, int], list[int]] = {}
    present = set()
    for u, v, color in colored_graph.colored_edges:
        incident.setdefault((u, color), []).append(v)
        incident.setdefault((v, color), []).append(u)
        present.add((u, v, color))
    violations: list[dict] = []
    for (x, color), others in sorted(incident.items()):
        if len(others) > 2:
            violations.append({
                "check": "color_multiplicity",
                "vertex": x,
                "color": color,
                "incident_count": len(others),
            })
        for y, z in combinations(sorted(others), 2):
            if (min(y, z), max(y, z), color) not in present:
                violations.append({
                    "check": "triangle_closure",
                    "vertex": x,
                    "color": color,
                    "missing_edge": [min(y, z), max(y, z)],
                })
    return ObservationReport(
        n=colored_graph.n,
        colored_edge_count=len(colored_graph.colored_edges),
        violations=tuple(violations),
    )


def kst_by_subset_enumeration(rows, edge_count: int, s: int, t: int):
    """The first K_{s,t} of rows (rows[v] is v's neighbour mask, keys
    ascending) by trying every s-subset of the vertices of degree >= t in
    combinations order, intersecting rows with an early cut, and taking the
    t smallest common neighbours outside the subset; None when there is
    none.  This is the row engine before its 2-path ladder."""
    if edge_count < s * t:
        return None
    candidates = [(v, row) for v, row in rows.items() if row.bit_count() >= t]
    if len(candidates) < s:
        return None
    for subset in combinations(candidates, s):
        common = subset[0][1]
        for _, row in subset[1:]:
            common &= row
            if common.bit_count() < t:
                break
        else:
            for v, _ in subset:
                common &= ~(1 << v)
            if common.bit_count() >= t:
                t_side = []
                for v in iter_bits(common):
                    t_side.append(v)
                    if len(t_side) == t:
                        break
                witness = (tuple(v for v, _ in subset), tuple(t_side))
                _check_kst_witness(rows, witness)
                return witness
    return None


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


def max_weight_by_index_scan(n: int, max_mult: int = 3, pruned: bool = True,
                             first_level_orbit_reps: bool = False, counts=None):
    """(best_weight, nodes_explored, witness) of max_weight_exact's search,
    walked as it was before its candidates became bits: each node scans the
    candidate indices from its last chosen one up, one by one, with the
    bound, multiplicity and orbit tests, and tests each candidate's pair
    bits against the node's closing mask with one AND.  The closing mask is
    berge._closing_pairs, computed lazily at the first candidate that
    passes the other tests.  The witness is a tuple of sorted vertex
    tuples.
    A dict passed as counts receives the search's work counters as this
    walk sees them: closing_masks, the nodes of three or more hyperedges
    that compute a mask; expanded, the nodes that compute one and have an
    open candidate, bound or not, that misses it; bulk_leaves, the nodes
    (chosen indices, open candidates as bits) of three or more hyperedges
    that their parent decides in bulk, and wide_leaves their count.  The
    last, C, is a bulk leaf when, for two earlier ones X and Z, it is the
    middle of a wide (X, C, Z) (is_wide) and no open candidate misses the
    parent's mask ORed with the pairs of X and Z (end_pairs), or when
    (X, C, Z) is narrow and C is an end leaf (is_end_leaf) of the parent's
    first child.  triple_calls counts, for each node of three or more
    hyperedges that is not a bulk leaf, its triples through C whose middle
    meets both ends (meeting_triples), one berge._triple_pairs call each
    in the search.  distinct_closings counts the distinct masks whose
    survivors the search builds: every computed mask but those of the bulk
    leaves, and at each node of two or more hyperedges that has a live
    candidate (open, missing its mask) whose least passes the bound, its
    mask ORed with the pairs of each two chosen X and Z of which a live
    candidate is a wide middle."""
    cands = candidate_universe(n)
    pair_bits = candidate_pair_bits(n)
    vertex_masks = [sum(1 << v for v in c) for c in cands]
    spreads = [sum(1 << (v * n) for v in c) for c in cands]
    weights = [len(c) - 3 for c in cands]
    m = len(cands)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max_mult * weights[i]
    is_rep = [frozenset(c) == frozenset(range(len(c))) for c in cands]

    used = [0] * m
    chosen: list[int] = []
    chosen_masks: list[int] = []
    chosen_spreads: list[int] = []
    best = {"weight": 0, "multiset": ()}
    nodes = 0
    tally = {"closing_masks": 0, "expanded": 0, "wide_leaves": 0, "triple_calls": 0}
    bulk_leaves = []
    masks_seen = set()

    def is_open(j: int) -> bool:
        return used[j] < max_mult and not (first_level_orbit_reps and not chosen
                                           and not is_rep[j])

    def is_bulk_leaf(parent: int, first: int, open_: list[int]) -> bool:
        *ends, c = chosen
        mask_c = vertex_masks[c]
        for x, z in combinations(ends, 2):
            mask_x, mask_z = vertex_masks[x], vertex_masks[z]
            if is_wide(mask_x, mask_c, mask_z):
                middle = parent | end_pairs(mask_x, mask_z, n)
                if not any(not pair_bits[i] & middle for i in open_):
                    return True
            elif is_end_leaf(cands, n, x, z, c, first):
                return True
        return False

    def walk(min_idx: int, current_weight: int, parent: int, first: int) -> None:
        # first: the parent's least live candidate
        nonlocal nodes
        closing = None
        for j in range(min_idx, m):
            if pruned and current_weight + suffix[j] <= best["weight"]:
                break
            if not is_open(j):
                continue
            if closing is None:
                closing = parent | _closing_pairs(chosen_masks, chosen_spreads, n)
                open_ = [i for i in range(min_idx, m) if is_open(i)]
                live = [i for i in open_ if not pair_bits[i] & closing]
                tally["closing_masks"] += len(chosen) >= 3
                tally["expanded"] += bool(live)
                if len(chosen) >= 3 and is_bulk_leaf(parent, first, open_):
                    bulk_leaves.append((tuple(chosen), sum(1 << i for i in open_)))
                    tally["wide_leaves"] += 1  # the search builds no survivors of closing
                else:
                    masks_seen.add(closing)
                    if len(chosen) >= 3:
                        tally["triple_calls"] += meeting_triples(chosen_masks)
                if len(chosen) >= 2 and live and not (
                        pruned and current_weight + suffix[live[0]] <= best["weight"]):
                    for mask_x, mask_z in combinations(chosen_masks, 2):
                        if any(is_wide(mask_x, vertex_masks[i], mask_z) for i in live):
                            masks_seen.add(closing | end_pairs(mask_x, mask_z, n))
            if pair_bits[j] & closing:
                continue
            nodes += 1
            used[j] += 1
            chosen.append(j)
            chosen_masks.append(vertex_masks[j])
            chosen_spreads.append(spreads[j])
            new_weight = current_weight + weights[j]
            if new_weight > best["weight"]:
                best["weight"] = new_weight
                best["multiset"] = tuple(chosen)
            walk(j, new_weight, closing, live[0] if live else m)
            chosen_spreads.pop()
            chosen_masks.pop()
            chosen.pop()
            used[j] -= 1

    walk(0, 0, 0, m)
    if counts is not None:
        counts.update(tally, distinct_closings=len(masks_seen), bulk_leaves=bulk_leaves)
    return best["weight"], nodes, tuple(tuple(sorted(cands[j])) for j in best["multiset"])


def is_wide(x: int, y: int, z: int) -> bool:
    """Whether the triple (X, Y, Z) of vertex masks is wide: its middle Y
    meets each end in 3 or more vertices and the two ends together in 4 or
    more."""
    p, q = x & y, y & z
    return p.bit_count() >= 3 and q.bit_count() >= 3 and (p | q).bit_count() >= 4


def is_end_leaf(cands: Sequence[Sequence[int]], n: int, a: int, b: int, c: int,
                first: int) -> bool:
    """Whether the child c of a node with a and b among its chosen
    hyperedges (candidate indices), whose first child is first, is one the
    search decides in bulk by the pair (a, b): (A, C, B) is narrow, and for (X, Y) = (A, B)
    or (B, A) the triple (C, X, Y) is wide, every candidate from C on
    meets Y, C has n - 3 or more vertices, and C meets D - Y for every
    candidate D from first on that meets Y in one vertex.  Then no
    candidate from C on misses the pairs of Y and C, a part of C's
    closing mask, so C is a leaf."""
    mask_a, mask_b, mask_c = (sum(1 << v for v in cands[i]) for i in (a, b, c))
    if not (mask_a & mask_c and mask_c & mask_b) or is_wide(mask_a, mask_c, mask_b):
        return False
    set_c = set(cands[c])
    if len(set_c) < n - 3:
        return False
    for x, y in ((mask_a, mask_b), (mask_b, mask_a)):
        set_y = set(iter_bits(y))
        if (is_wide(mask_c, x, y)
                and all(set_y & set(d) for d in cands[c:])
                and all(set_c & (set(d) - set_y) for d in cands[first:]
                        if len(set_y & set(d)) == 1)):
            return True
    return False


def end_pairs(x: int, z: int, n: int) -> int:
    """Bits a*n + b and b*n + a (a != b) for a in X and b in Z, set pair by
    pair: the pairs of a wide triple with ends X and Z."""
    pairs = 0
    for a, b in product(iter_bits(x), iter_bits(z)):
        if a != b:
            pairs |= 1 << (a * n + b) | 1 << (b * n + a)
    return pairs


def wide_pairs(masks: Sequence[int], n: int) -> tuple[int, int]:
    """(wide, narrow) for three hyperedges: wide is the OR of end_pairs of
    each wide triple (is_wide); narrow counts the other triples whose
    middle meets both of its ends.  Each of the three is the middle once."""
    wide = 0
    narrow = 0
    for mid in range(3):
        y = masks[mid]
        x, z = (masks[i] for i in range(3) if i != mid)
        if not (x & y and y & z):
            continue
        if is_wide(x, y, z):
            wide |= end_pairs(x, z, n)
        else:
            narrow += 1
    return wide, narrow


def meeting_triples(masks: Sequence[int]) -> int:
    """The triples through the last hyperedge C whose middle meets both of
    its ends: per two earlier X and Z, (X, C, Z), (C, X, Z) and (C, Z, X),
    the triples berge._closing_pairs visits.  These are the _triple_pairs
    calls the exact search makes for a child it does not decide in bulk."""
    *ends, c = masks
    count = 0
    for x, z in combinations(ends, 2):
        count += bool(x & c and c & z) + bool(c & x and x & z) + bool(c & z and z & x)
    return count


def candidate_pair_bits(n: int) -> list[int]:
    """Each candidate of candidate_universe(n) as the bits a*n + b of its
    pairs a < b."""
    return [sum(1 << (a * n + b) for a, b in combinations(sorted(c), 2))
            for c in candidate_universe(n)]


def survivors_by_candidate_scan(pair_bits: Sequence[int], closing: int) -> int:
    """The candidates, as bits over the universe, that hold no pair of a
    closing mask: each candidate's pair bits (candidate_pair_bits) tested
    against the mask with one AND, as the exact search built its survivors
    before it read them off per-pair masks."""
    return sum(1 << i for i, bits in enumerate(pair_bits) if not bits & closing)


def distinct_representatives_by_backtracking(slot_candidates: Sequence[Sequence[int]]):
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


def canonical_c4_by_enumeration(hypergraph: Hypergraph):
    """First Berge-C4 in canonical order, or None; see
    canonical_cycle_by_enumeration."""
    return canonical_cycle_by_enumeration(hypergraph, 4)


def canonical_cycle_by_enumeration(hypergraph: Hypergraph, k: int):
    """First Berge-Ck in canonical order, or None, by trying every k-tuple.

    Tuples (v1, ..., vk) come in lexicographic order with v1 the minimum
    and v2 < vk when k > 2; each slot lists the hyperedges holding its
    pair, in id order, and distinct_representatives_by_backtracking picks
    the hyperedges in slot order.
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
            chosen = distinct_representatives_by_backtracking(slots)
            if chosen is not None:
                return BergeCycleWitness(cycle, tuple(chosen))
    return None


def first_cycle_by_vertex_classes(hypergraph: Hypergraph, k: int):
    """First Berge-Ck in canonical order, or None: a class gate on one class
    per vertex, whatever its twins (c4_class_by_path_pairs for k = 4, the
    detector's walk gate otherwise), then the vertex search the detector
    ran before its witness became a closed walk
    (first_vertex_cycle_by_path_extension), from the vertex the gate
    reports.  The walk gate is the mask gate's (closed_walk_on_masks), so
    the library's gate on id lists runs nowhere in the reference.  Incidence and adjacency masks are built here from the
    hyperedge lists; a vertex in no hyperedge is a class with no
    neighbours, so class i is vertex i."""
    n = hypergraph.n
    incidence = [0] * n
    adj = [0] * n
    for hid, h in enumerate(hypergraph.hyperedges):
        for v in h:
            incidence[v] |= 1 << hid
            for w in h:
                if w != v:
                    adj[v] |= 1 << w
    sizes = [1] * n
    if k == 4:
        first = c4_class_by_path_pairs(incidence, sizes, adj)
    else:
        first = quotient_class_by_masks(incidence, sizes, adj, k)
    if first is None:
        return None
    return first_vertex_cycle_by_path_extension(hypergraph, k, incidence, adj, first)


def first_vertex_cycle_by_path_extension(hypergraph: Hypergraph, k: int,
                                         incidence: Sequence[int], adj: Sequence[int],
                                         first: int):
    """First Berge-Ck in canonical order whose minimum is first, or None,
    by extending vertex paths from first through larger vertices, in
    ascending order, and closing them at depth k.

    The slot of u and v holds the hyperedges of incidence[u] & incidence[v],
    in id order.  A path whose slots cover fewer hyperedges than it has
    slots is cut; a closed path is kept when v2 < vk, its k slots cover k
    hyperedges and distinct_representatives_by_backtracking finds them
    distinct hyperedges.
    """
    path = [0] * k

    def extend(depth: int, used_mask: int, allowed: int, union_mask: int):
        # path[0..depth-1] fixed; union_mask covers the depth-1 slots so far.
        last = path[depth - 1]
        if depth == k:
            v1 = path[0]
            if not (adj[last] >> v1) & 1:
                return None
            if k > 2 and path[1] > last:
                return None  # orientation: keep only v2 < vk
            if (union_mask | (incidence[last] & incidence[v1])).bit_count() < k:
                return None
            slots = [list(iter_bits(incidence[path[i]] & incidence[path[(i + 1) % k]]))
                     for i in range(k)]
            assignment = distinct_representatives_by_backtracking(slots)
            if assignment is None:
                return None
            witness = BergeCycleWitness(tuple(path), tuple(assignment))
            validate_witness(hypergraph, witness)
            return witness
        at_last = incidence[last]
        for w in iter_bits(adj[last] & allowed & ~used_mask):
            new_union = union_mask | (at_last & incidence[w])
            if new_union.bit_count() < depth:
                continue  # fewer distinct hyperedges than slots: dead prefix
            path[depth] = w
            found = extend(depth + 1, used_mask | (1 << w), allowed, new_union)
            if found is not None:
                return found
        return None

    path[0] = first
    # cycle vertices other than v1 exceed it
    return extend(1, 1 << first, ~((1 << (first + 1)) - 1), 0)


# ---------------------------------------------------------------------------
# the Berge-Ck gate on full-width incidence masks, before it read id lists
# ---------------------------------------------------------------------------

def find_berge_cycle_by_masks(hypergraph: Hypergraph, k: int):
    """find_berge_cycle as it ran on one full-width incidence mask per
    vertex (bit h of incidence[v] set when v lies in hyperedge h): the twin
    classes keyed by those masks, the mask gate, and the vertex walk on
    the incidence masks and the whole shadow adjacency."""
    if k < 2:
        raise ValueError(f"Berge cycle length must be >= 2, got {k}")
    if k > hypergraph.n or k > len(hypergraph.hyperedges):
        return None
    incidence = incidence_masks(hypergraph)
    masks, sizes, adj, firsts = twin_classes_by_masks(hypergraph, incidence)
    a = quotient_class_by_masks(masks, sizes, adj, k)
    if a is None:
        return None
    first = firsts[a]
    cycle = closed_walk_on_masks(incidence, [1] * hypergraph.n,
                                 shadow_adjacency_by_masks(hypergraph), k,
                                 range(first, first + 1))
    slots = [incidence[u] & incidence[v] for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    witness = BergeCycleWitness(cycle, tuple(distinct_representatives(slots)))
    validate_witness(hypergraph, witness)
    return witness


def incidence_masks(hypergraph: Hypergraph) -> list[int]:
    """Per-vertex incidence masks: bit h of entry v is set when v lies in
    hyperedge h."""
    incidence = [0] * hypergraph.n
    for hid, h in enumerate(hypergraph.hyperedges):
        bit = 1 << hid
        for v in h:
            incidence[v] |= bit
    return incidence


def shadow_adjacency_by_masks(hypergraph: Hypergraph) -> list[int]:
    """Shadow adjacency masks: bit v of entry u is set when u != v lie in a
    common hyperedge."""
    adj = [0] * hypergraph.n
    for h in hypergraph.hyperedges:
        mask = 0
        for v in h:
            mask |= 1 << v
        for v in h:
            adj[v] |= mask
    for v in range(hypergraph.n):
        adj[v] &= ~(1 << v)
    return adj


def twin_classes_by_masks(hypergraph: Hypergraph, incidence: Sequence[int]):
    """Twin classes as (masks, sizes, adj, firsts), keyed by the incidence
    masks: masks[i] is the mask shared by the members of class i, sizes[i]
    their number and firsts[i] the smallest; classes in the order of their
    smallest members, none for a vertex in no hyperedge.  adj[i] has bit j
    set when classes i != j share a hyperedge, and bit i when class i has
    two members."""
    classes: dict[int, list[int]] = {}
    for v, mask in enumerate(incidence):
        if mask:
            classes.setdefault(mask, []).append(v)
    sizes = [len(members) for members in classes.values()]
    of_vertex = [0] * hypergraph.n
    for i, members in enumerate(classes.values()):
        for v in members:
            of_vertex[v] = i
    adj = [0] * len(sizes)
    for h in hypergraph.hyperedges:
        touched = 0
        for v in h:
            touched |= 1 << of_vertex[v]
        for i in iter_bits(touched):
            adj[i] |= touched
    for i, size in enumerate(sizes):
        if size < 2:
            adj[i] &= ~(1 << i)
    firsts = [members[0] for members in classes.values()]
    return list(classes), sizes, adj, firsts


def quotient_class_by_masks(masks: Sequence[int], sizes: Sequence[int], adj: Sequence[int],
                            k: int):
    """The least class with a Berge-Ck, or None: the mask fold for k = 4
    (c4_class_by_mask_fold), the mask walk from every class otherwise."""
    if k == 4:
        return c4_class_by_mask_fold(masks, sizes, adj)
    walk = closed_walk_on_masks(masks, sizes, adj, k, range(len(masks)))
    return None if walk is None else walk[0]


def closed_walk_on_masks(masks: Sequence[int], sizes: Sequence[int], adj: Sequence[int], k: int,
                         starts: Iterable[int]):
    """The first closed k-walk that lifts to a Berge-Ck, from the first
    start that has one, or None, on full-width class masks: the library's
    walk before its masks covered only the hyperedges near the starts."""
    walk = [0] * k
    slots = [0] * k
    count = [0] * len(masks)

    def extend(depth: int, not_below: int, union: int) -> bool:
        last = walk[depth - 1]
        mask_last = masks[last]
        candidates = adj[last] & not_below
        if depth == k - 1:
            a = walk[0]
            candidates &= adj[a]
            if k > 2:
                candidates &= -1 << walk[1]
            mask_a = masks[a]
            for c in iter_bits(candidates):
                if count[c] == sizes[c]:
                    continue
                slot = mask_last & masks[c]
                closing = masks[c] & mask_a
                if (union | slot | closing).bit_count() < k:
                    continue
                slots[depth - 1] = slot
                slots[depth] = closing
                if _hall(slots):
                    walk[depth] = c
                    return True
            return False
        for c in iter_bits(candidates):
            if count[c] == sizes[c]:
                continue
            slot = mask_last & masks[c]
            new_union = union | slot
            if new_union.bit_count() < depth:
                continue
            walk[depth] = c
            slots[depth - 1] = slot
            count[c] += 1
            found = extend(depth + 1, not_below, new_union)
            count[c] -= 1
            if found:
                return True
        return False

    for a in starts:
        walk[0] = a
        count[a] = 1
        if extend(1, -1 << a, 0):
            return tuple(walk)
        count[a] = 0
    return None


def c4_class_by_mask_fold(masks: Sequence[int], sizes: Sequence[int], adj: Sequence[int]):
    """The least class of a Berge-C4, or None: the mask walk up to the last
    trigger (last_trigger_by_masks), then the seen/dup fold with Hall's test
    on the full-width slot masks of the pairs of middles of a dup end."""
    free = [row & ~(1 << i) for i, row in enumerate(adj)]
    last = last_trigger_by_masks(masks, sizes, free)
    walk = closed_walk_on_masks(masks, sizes, adj, 4, range(last + 1))
    if walk is not None:
        return walk[0]
    for a in range(last + 1, len(masks)):
        above = a + 1
        dup = dup_ends_by_masks(free, a)
        mask_a = masks[a]
        for c in iter_bits(dup):
            c += above
            mask_c = masks[c]
            middles = [masks[above + b] for b in iter_bits((free[a] & free[c]) >> above)]
            for mask_b, mask_d in combinations(middles, 2):
                if _hall((mask_a & mask_b, mask_b & mask_c, mask_c & mask_d, mask_d & mask_a)):
                    return a
    return None


def dup_ends_by_masks(free: Sequence[int], u: int) -> int:
    """The ends above class u seen twice by the seen/dup fold over the
    neighbours of u above u, shifted down by u + 1; free holds the class
    rows without their loop bits."""
    above = u + 1
    seen = dup = 0
    for b in iter_bits(free[u] >> above):
        ends = free[above + b] >> above
        dup |= seen & ends
        seen |= ends
    return dup


def last_trigger_by_masks(masks: Sequence[int], sizes: Sequence[int], free: Sequence[int]) -> int:
    """The largest least class of a trigger, or -1."""
    for u in range(len(masks) - 1, -1, -1):
        if has_trigger_by_masks(masks, sizes, free, u):
            return u
    return -1


def has_trigger_by_masks(masks: Sequence[int], sizes: Sequence[int], free: Sequence[int],
                         u: int) -> bool:
    """Whether class u is the least class of a trigger, with the shared
    hyperedges of each class edge counted by a full-width AND; a class of
    four or more members is one when it lies in four or more hyperedges."""
    if sizes[u] >= 4 and masks[u].bit_count() >= 4:
        return True
    above = free[u] >> (u + 1) << (u + 1)
    twinned = sizes[u] >= 2
    mask_u = masks[u]
    for v in iter_bits(above):
        if (mask_u & masks[v]).bit_count() >= 2:
            return True
        if (twinned or sizes[v] >= 2) and free[v] & above:
            return True
    return False


def c4_class_by_path_pairs(masks: Sequence[int], sizes: Sequence[int],
                           adj: Sequence[int]):
    """The least class a of a Berge-C4 on these twin classes (as
    berge._twin_classes gives them), or None, by pairing every class
    2-path: the detector's k = 4 gate before its seen/dup fold.

    For each a in ascending order, the walk a, b, c, d is a pair of
    2-paths a-b-c and a-d-c through classes not below a, each 2-path also
    paired with itself (the middles may be one class); it must use no class
    more often than it has members, and its four slot masks must pass
    Hall's condition, checked here on every subset of slots.
    """
    for a in range(len(masks)):
        not_below = -1 << a
        mask_a = masks[a]
        middles: dict[int, list[tuple[int, int, int, int]]] = {}
        for b in iter_bits(adj[a] & not_below):
            mask_b = masks[b]
            ab = mask_a & mask_b
            for c in iter_bits(adj[b] & not_below):
                bc = mask_b & masks[c]
                both = ab | bc
                if both.bit_count() < 2:
                    continue
                paths = middles.setdefault(c, [])
                paths.append((b, ab, bc, both))
                for d, da, cd, other in paths:
                    walk = (a, b, c, d)
                    if ((both | other).bit_count() >= 4
                            and all(walk.count(i) <= sizes[i] for i in walk)
                            and _slots_pass_hall((ab, bc, cd, da))):
                        return a
    return None


def walk_masks_by_distance(classes, a: int, k: int) -> tuple[list[int], list[int]]:
    """berge._walk_masks from breadth-first distances to class a over the
    class rows (classes.adj) taken as sets: near is the sorted ids in the
    keys of the classes within (k - 1) // 2 of a, and each class within
    (k - 1) // 2 + 1 gets bit i for each near[i] in its key; every other
    class gets 0."""
    radius = (k - 1) // 2
    neighbours = [set(iter_bits(row)) for row in classes.adj]
    distance = {a: 0}
    queue = deque([a])
    while queue:
        c = queue.popleft()
        for d in neighbours[c] - distance.keys():
            distance[d] = distance[c] + 1
            queue.append(d)
    near = sorted({hid for c, dist in distance.items() if dist <= radius
                   for hid in classes.keys[c]})
    masks = [0] * len(classes.keys)
    for c, dist in distance.items():
        if dist <= radius + 1:
            masks[c] = sum(1 << i for i, hid in enumerate(near) if hid in classes.keys[c])
    return masks, near


def _slots_pass_hall(slots: Sequence[int]) -> bool:
    """True iff every set of j slot masks covers at least j hyperedges."""
    for j in range(1, len(slots) + 1):
        for subset in combinations(slots, j):
            union = 0
            for mask in subset:
                union |= mask
            if union.bit_count() < j:
                return False
    return True


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


def points_on(line: tuple[int, int, int], q: int) -> list[int]:
    """Ascending indices, in the order (1, a, b), (0, 1, b), (0, 0, 1), of
    the q+1 points P with P . line = 0 mod q, found by solving the line
    equation for the last free coordinate of each point form with one
    modular inverse.  By duality, passing a point gives the lines through
    it: the line lists projective_plane_incidence built this way before
    its rows were read off slope families."""
    l0, l1, l2 = line
    square = q * q
    if l2:
        inv = pow(l2, -1, q)
        points = [a * q + (-(l0 + a * l1) * inv) % q for a in range(q)]
        points.append(square + (-l1 * inv) % q)
    elif l1:
        a = (-l0 * pow(l1, -1, q)) % q
        points = [a * q + b for b in range(q)]
        points.append(square + q)
    else:
        points = [square + b for b in range(q + 1)]
    return points


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
    detector.  It draws with rng.randint and rng.sample, which the
    generator's getrandbits draws must equal call for call."""
    kept: tuple[frozenset[int], ...] = ()
    for _ in range(trials):
        size = rng.randint(*size_range)
        candidate = frozenset(rng.sample(range(n), size))
        if is_berge_c4_free(Hypergraph(n, kept + (candidate,))):
            kept += (candidate,)
    return Hypergraph(n, kept)


def greedy_by_spread_product(n: int, size_range: tuple[int, int], trials: int, rng) -> Hypergraph:
    """The greedy generator's draws, each tested with one product against
    one running closing-pair mask, as the generator did before it held
    the mask as per-vertex rows: spread * mask sets bit a*n + b for every
    a and b of the draw (a = b too, but the mask's diagonal is clear), and
    each keep ORs in _closing_pairs of the kept masks and spreads.  It
    draws with rng.randint and rng.sample, which the generator's
    getrandbits draws must equal call for call."""
    bit = [1 << v for v in range(n)]
    kept: list[list[int]] = []
    masks: list[int] = []
    spreads: list[int] = []
    closing = 0
    for _ in range(trials):
        size = rng.randint(*size_range)
        candidate = rng.sample(range(n), size)
        mask = sum(map(bit.__getitem__, candidate))
        spread = sum(1 << (v * n) for v in candidate)
        if spread * mask & closing:
            continue
        kept.append(candidate)
        masks.append(mask)
        spreads.append(spread)
        closing |= _closing_pairs(masks, spreads, n)
    return Hypergraph(n, kept)


class SearchState:
    """Mutable multiset of hyperedges with a pair-coverage bitmask index.

    cover[u][v] == cover[v][u] is the bitmask of the ids of the hyperedges
    holding both u and v, and adj[u] the bitmask of u's shadow neighbours.
    Ids are positions in the current hyperedge list, exactly as in
    Hypergraph, so pop (always of the last hyperedge) clears one bit.
    """

    def __init__(self, n: int):
        self.n = n
        self.hyperedges: list[frozenset[int]] = []
        self.cover: list[list[int]] = [[0] * n for _ in range(n)]
        self.adj: list[int] = [0] * n

    def push(self, hyperedge: Iterable[int]) -> int:
        h = frozenset(hyperedge)
        hid = len(self.hyperedges)
        self.hyperedges.append(h)
        bit = 1 << hid
        cover, adj = self.cover, self.adj
        for a, b in combinations(sorted(h), 2):
            mask = cover[a][b] | bit
            cover[a][b] = cover[b][a] = mask
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return hid

    def pop(self) -> frozenset[int]:
        h = self.hyperedges.pop()
        keep = ~(1 << len(self.hyperedges))
        cover, adj = self.cover, self.adj
        for a, b in combinations(sorted(h), 2):
            mask = cover[a][b] & keep
            cover[a][b] = cover[b][a] = mask
            if not mask:
                adj[a] &= ~(1 << b)
                adj[b] &= ~(1 << a)
        return h

    def to_hypergraph(self) -> Hypergraph:
        return Hypergraph(self.n, tuple(self.hyperedges))


def incremental_c4_check(state: SearchState, new_hyperedge_id: int) -> bool:
    """True iff some Berge-C4 of the state uses the given hyperedge.

    Assumes the state without that hyperedge is Berge-C4-free, so this is
    equivalent to a full Berge-C4 search on the whole state.
    """
    return _closes_c4(state, sorted(state.hyperedges[new_hyperedge_id]),
                      ~(1 << new_hyperedge_id))


def _closes_c4(state: SearchState, hyperedge: Sequence[int], keep_mask: int) -> bool:
    """True iff the hyperedge (vertices ascending) on one slot and three
    distinct state hyperedges among keep_mask close a Berge-C4.

    Reads the state and never changes it.  Any Berge-C4 through the
    hyperedge rotates to a path b - v3 - v4 - a of the shadow closed by a
    pair {a, b} of the hyperedge (see _pair_closes).
    """
    adj = state.adj
    cover = state.cover
    for a, b in combinations(hyperedge, 2):
        if _pair_closes(cover, adj, a, b, keep_mask):
            return True
    return False


def _pair_closes(cover: Sequence[Sequence[int]], adj: Sequence[int], a: int, b: int,
                 keep_mask: int) -> bool:
    """True iff some path b - v3 - v4 - a of the shadow has three slot
    masks (restricted to keep_mask) with a system of distinct
    representatives, so a hyperedge holding a and b closes a Berge-C4.
    Hall's condition for three sets is that each is non-empty, each union
    of two has 2 bits and the union of all three has 3."""
    excl = (1 << a) | (1 << b)
    row_a = cover[a]
    row_b = cover[b]
    adj_a = adj[a] & ~excl
    rest3 = adj[b] & ~excl
    while rest3:
        low3 = rest3 & -rest3
        rest3 ^= low3
        v3 = low3.bit_length() - 1
        c1 = row_b[v3] & keep_mask
        if not c1:
            continue
        row_3 = cover[v3]
        rest4 = adj[v3] & adj_a  # adj[v3] never holds v3 itself
        while rest4:
            low4 = rest4 & -rest4
            rest4 ^= low4
            v4 = low4.bit_length() - 1
            c2 = row_3[v4] & keep_mask
            if not c2:
                continue
            c3 = row_a[v4] & keep_mask
            if not c3:
                continue
            pair = c1 | c2
            if not pair & (pair - 1):
                continue
            pair = c1 | c3
            if not pair & (pair - 1):
                continue
            pair = c2 | c3
            if not pair & (pair - 1):
                continue
            union = c1 | c2 | c3
            union &= union - 1
            if union & (union - 1):
                return True
    return False


def closing_pairs_by_vertex_loop(masks: Sequence[int], n: int) -> int:
    """Bitmask of the vertex pairs that close a Berge-C4 with three
    distinct hyperedges, one of them the last, of a multiset given by their
    vertex masks: bits a*n + b and b*n + a (a != b) are set iff a hyperedge
    holding a and b closes one.  ORed into the pairs the earlier masks
    close alone, it gives every closing pair, and a candidate is tested
    with one AND of its pairs (a < b) against that.

    A Berge-C4 a - h - b - X - v3 - Y - v4 - Z - a through a new hyperedge
    h is an ordered triple (X, Y, Z) of distinct hyperedges with b in X,
    a in Z and v3 in P = X & Y, v4 in Q = Y & Z picked distinct and
    outside {a, b}.  Hall's condition for those two slots is that P and Q
    minus {a, b} are non-empty and their union minus {a, b} has 2 bits,
    so for one a every b of X - {a} qualifies except at most three forced
    exclusions: the member of P - {a} or of Q - {a} when it is alone, and
    both members of (P | Q) - {a} when there are two.  None is forced for
    any a when P and Q have 3 bits and P | Q has 4; those X are ORed
    together and spread over the a of Z in one pass.  Every ordered triple
    that uses the last mask is walked, so the mask is symmetric.
    """
    last = len(masks) - 1
    if last < 2:
        return 0  # fewer than three hyperedges close nothing
    closing = 0
    for y, mask_y in enumerate(masks):
        every = last == 2 or y == last  # then every triple uses the last mask
        if not (every or mask_y & masks[last]):
            continue  # the last mask is X or Z, so it meets Y
        meets = [(mask, mask & mask_y, i) for i, mask in enumerate(masks)
                 if i != y and mask & mask_y]
        for mask_z, q_all, z in meets:
            q_wide = q_all.bit_count() >= 3
            wide = 0
            # unless Y or Z is the last mask, X is: the last entry of meets
            for mask_x, p_all, x in (meets if every or z == last else meets[-1:]):
                if x == z:
                    continue
                u_all = p_all | q_all
                if q_wide and p_all.bit_count() >= 3 and u_all.bit_count() >= 4:
                    wide |= mask_x
                    continue
                if not u_all & (u_all - 1):
                    continue
                rest = mask_z
                while rest:
                    low = rest & -rest
                    rest ^= low
                    p = p_all & ~low
                    q = q_all & ~low
                    if not (p and q):
                        continue
                    u = u_all & ~low
                    pair = u & (u - 1)
                    if not pair:
                        continue
                    allowed = mask_x & ~low
                    if not p & (p - 1):
                        allowed &= ~p
                    if not q & (q - 1):
                        allowed &= ~q
                    if not pair & (pair - 1):
                        allowed &= ~u
                    closing |= allowed << ((low.bit_length() - 1) * n)
            if wide:
                rest = mask_z
                while rest:
                    low = rest & -rest
                    rest ^= low
                    closing |= (wide & ~low) << ((low.bit_length() - 1) * n)
    return closing


def closing_pairs_of_three(mask_a: int, spread_a: int, mask_b: int, spread_b: int,
                           mask_c: int, spread_c: int, off_diagonal: int) -> int:
    """_closing_pairs of exactly three masks A, B, C (C the last), with
    off_diagonal = ~_diagonal(n) passed in.  The two index loops there
    reduce to three triples: C as the middle with ends A and B, and A or B
    as the middle with C and the other as ends, each when its middle meets
    both ends.  The exact search makes the same three guarded calls per
    pair of chosen hyperedges.
    """
    closing = 0
    meet_ab = mask_a & mask_b
    if mask_c & mask_a:
        if mask_c & mask_b:
            closing = _triple_pairs(mask_a, spread_a, mask_c, spread_c, mask_b, spread_b)
        if meet_ab:
            closing |= _triple_pairs(mask_c, spread_c, mask_a, spread_a, mask_b, spread_b)
    if meet_ab and mask_c & mask_b:
        closing |= _triple_pairs(mask_c, spread_c, mask_b, spread_b, mask_a, spread_a)
    return closing & off_diagonal


def greedy_by_search_state(n: int, size_range: tuple[int, int], trials: int, rng) -> Hypergraph:
    """The greedy generator's draws, keeping each candidate that no pair
    of its closes with three kept hyperedges by the path walk of
    _closes_c4 on a SearchState.  It draws with rng.randint and rng.sample,
    which the generator's getrandbits draws must equal call for call."""
    state = SearchState(n)
    for _ in range(trials):
        size = rng.randint(*size_range)
        candidate = frozenset(rng.sample(range(n), size))
        if not _closes_c4(state, sorted(candidate), -1):
            state.push(candidate)
    return state.to_hypergraph()
