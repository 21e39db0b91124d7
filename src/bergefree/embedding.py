"""Edge embedding and the per-vertex auxiliary graphs it supports.

For each hyperedge h we place |h|-3 edges on h's vertices as pairwise
vertex-disjoint triangles and single edges, tagging every placed edge with
the id of its hyperedge (its color).  The union over all hyperedges is a
colored multigraph whose edge count equals the hypergraph weight whenever
all hyperedges have at least 3 vertices.  The placement depends only on
|h| (by position in the sorted hyperedge), so it is derived and validated
once per size and each hyperedge maps its sorted vertices through it.

Around a fixed vertex v the module derives the proof objects used to bound
that multigraph:

    G        simple projection induced on N1(v)
    G_aux    x,y in N1(v) joined when some w in N2(v) sees both
    G'_aux   G_aux minus G
    B, B'    the 2-path bipartite graph between N1(v) and N2(v), and its
             subgraph of edges whose N2 endpoint has a second N1 neighbor

as adjacency rows of the simple projection, plus verifiers that replay,
on concrete instances, every structural statement the objects are
supposed to satisfy.  The whole-graph checks are linear passes:
observation 1 looks only at the colors whose edges share a vertex, and
K_{2,7} runs the 2-path ladder of the patterns module.  All freeness and
counting checks run on the simple projection; parallel colored edges on a
pair are legal and only multiplicity-blind statements are asserted about
them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .berge import BergeCycleWitness, find_berge_cycle
from .core import ColoredGraph, Graph, Hypergraph, iter_bits, neighborhood_masks
from .patterns import _kst_in_rows, contains_kst


class NotBergeC4FreeError(ValueError):
    """Input to a lemma verifier contains a Berge-C4; carries the witness."""

    def __init__(self, witness: BergeCycleWitness):
        super().__init__(f"input is not Berge-C4-free: {witness.to_json_dict()}")
        self.witness = witness


# ---------------------------------------------------------------------------
# hyperedge decomposition and the colored graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Vertex-disjoint triangles and single edges placed inside one hyperedge."""

    triangles: tuple[tuple[int, int, int], ...]
    single_edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "triangles", tuple(tuple(t) for t in self.triangles))
        object.__setattr__(self, "single_edges", tuple(tuple(e) for e in self.single_edges))
        seen: set[int] = set()
        for part in (*self.triangles, *self.single_edges):
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} reused across triangles/edges")
                seen.add(v)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All placed edges: three per triangle, then the single edges."""
        out: list[tuple[int, int]] = []
        for a, b, c in self.triangles:
            out.extend(((a, b), (a, c), (b, c)))
        out.extend(self.single_edges)
        return tuple(out)


def validate_decomposition(hyperedge: Iterable[int], dec: Decomposition) -> None:
    """Raise unless dec is a legal decomposition of the given hyperedge."""
    h = frozenset(hyperedge)
    used = [v for part in (*dec.triangles, *dec.single_edges) for v in part]
    for v in used:
        if v not in h:
            raise ValueError(f"vertex {v} not in the hyperedge")
    t, m = len(dec.triangles), len(dec.single_edges)
    want = max(0, len(h) - 3)
    if 3 * t + m != want:
        raise ValueError(f"decomposition places {3 * t + m} edges, expected {want}")
    if 3 * t + 2 * m > len(h):
        raise ValueError("decomposition uses more vertices than the hyperedge has")


def decompose_hyperedge(hyperedge: Iterable[int]) -> Decomposition:
    """Deterministic decomposition of one hyperedge into triangles and edges.

    With s = |h| >= 4 it uses t = max(0, ceil((s-6)/3)) triangles and
    m = s-3-3t single edges, assigning vertices in ascending order: the
    first 3t form consecutive triples, the next 2m consecutive pairs.
    Hyperedges with s <= 3 embed nothing.
    """
    verts = sorted(set(hyperedge))
    s = len(verts)
    if s <= 3:
        return Decomposition((), ())
    t = max(0, -(-(s - 6) // 3))
    m = s - 3 - 3 * t
    triangles = tuple(
        (verts[3 * i], verts[3 * i + 1], verts[3 * i + 2]) for i in range(t)
    )
    base = 3 * t
    singles = tuple(
        (verts[base + 2 * i], verts[base + 2 * i + 1]) for i in range(m)
    )
    dec = Decomposition(triangles, singles)
    validate_decomposition(verts, dec)
    return dec


@lru_cache(maxsize=None)
def _placement(s: int) -> tuple[tuple[int, int], ...]:
    """The edges decompose_hyperedge places on the positions 0..s-1 of a
    sorted hyperedge of size s, derived and validated once per size."""
    return decompose_hyperedge(range(s)).edges()


def build_embedded_graph(hypergraph: Hypergraph) -> ColoredGraph:
    """Embed every hyperedge and color each placed edge by its hyperedge id.

    decompose_hyperedge places edges by position in the sorted hyperedge,
    as Hypergraph stores it, so each hyperedge maps its vertices through
    the placement of its size (_placement) instead of being decomposed and
    validated anew.  The edges come out in hyperedge-id order, each
    hyperedge's as decompose_hyperedge(h).edges() lists them, u < v.
    """
    colored: list[tuple[int, int, int]] = []
    append = colored.append
    for hid, h in enumerate(hypergraph.hyperedges):
        if len(h) > 3:
            for a, b in _placement(len(h)):
                append((h[a], h[b], hid))
    return ColoredGraph(hypergraph.n, tuple(colored))


# ---------------------------------------------------------------------------
# observation check: at most 2 same-colored edges per vertex, closed to a triangle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservationReport:
    """Outcome of the same-color degree/closure check on a colored graph."""

    n: int
    colored_edge_count: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "colored_edges": self.colored_edge_count,
            "ok": self.ok,
            "violations": list(self.violations),
        }


def verify_observation1(colored_graph: ColoredGraph) -> ObservationReport:
    """Check per vertex x and color h: at most two incident edges carry h,
    and two same-colored edges xy, xz force the same-colored edge yz.

    Both rules are about two edges of one color at one vertex, so a color
    whose edges form a matching can break neither.  One count of the
    (vertex, color) ends finds the colors with a shared vertex, and only
    their edges enter the per-vertex check.  The skipped (vertex, color)
    pairs add no violation, so the report is the same, in the same sorted
    order, as a check of every color.
    """
    edges = colored_graph.colored_edges
    ends = Counter(zip(map(itemgetter(0), edges), map(itemgetter(2), edges)))
    ends.update(zip(map(itemgetter(1), edges), map(itemgetter(2), edges)))
    shared = {color for (_, color), count in ends.items() if count > 1}
    incident: dict[tuple[int, int], list[int]] = {}
    present = set()
    for u, v, color in edges:
        if color in shared:
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


# ---------------------------------------------------------------------------
# the proof objects around one vertex
# ---------------------------------------------------------------------------

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


def _vertex_rows(projection: Graph, v: int) -> _VertexRows:
    """The one owner of the G, G_aux, G'_aux, B and B' definitions.

    N1(v) and N2(v) come from core.neighborhood_masks, which raises
    ValueError for a vertex outside 0..n-1.  G_aux is gathered from the N2
    side: the N1 neighbours of each y in N2(v) are pairwise joined.
    """
    n1_mask, n2_mask = neighborhood_masks(projection, v)
    masks = projection.adjacency_masks
    shared = dict.fromkeys(iter_bits(n1_mask), 0)
    sides = {}
    for y in iter_bits(n2_mask):
        side = sides[y] = masks[y] & n1_mask
        if side & (side - 1):
            for x in iter_bits(side):
                shared[x] |= side
    aux = {x: row & ~(1 << x) for x, row in shared.items()}
    g = {x: masks[x] & n1_mask for x in aux}
    gap = {x: row & ~masks[x] for x, row in aux.items()}
    return _VertexRows(g, aux, gap, sides)


def _upper_edges(rows: dict[int, int]):
    """Edges (x, y), x < y, of symmetric rows, in ascending order."""
    for x, row in rows.items():
        for y in iter_bits(row & -(2 << x)):
            yield x, y


# ---------------------------------------------------------------------------
# the lemma suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaSuiteReport:
    """Per-vertex counts plus any violated structural assertion.

    observation1 is the same-color check on the colored graph the suite
    built; it has its own verdict and is left out of ok and to_json_dict.
    """

    n: int
    checked_vertices: tuple[int, ...]
    k27_free: bool
    k27_witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]]
    rows: tuple[dict, ...]
    observation1: ObservationReport
    violations: tuple[dict, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.k27_free and not self.violations

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "checked_vertices": list(self.checked_vertices),
            "k27_free": self.k27_free,
            "k27_witness": (None if self.k27_witness is None
                            else [list(self.k27_witness[0]), list(self.k27_witness[1])]),
            "ok": self.ok,
            "rows": list(self.rows),
            "violations": list(self.violations),
        }


def _spoke_colors(colored_graph: ColoredGraph,
                  checked: Iterable[int]) -> dict[int, dict[int, list[int]]]:
    """The colors of every spoke (v, x) of each checked vertex v, as
    spokes[v][x], from one pass over the colored edges.  build_embedded_graph
    emits its edges in hyperedge-id order, so each list ascends."""
    spokes: dict[int, dict[int, list[int]]] = {v: {} for v in checked}
    for u, w, color in colored_graph.colored_edges:
        if u in spokes:
            spokes[u].setdefault(w, []).append(color)
        if w in spokes:
            spokes[w].setdefault(u, []).append(color)
    return spokes


def _vertex_checks(
    hypergraph: Hypergraph,
    projection: Graph,
    proj_masks: tuple[int, ...],
    v: int,
    spokes: dict[int, list[int]],
) -> tuple[dict, list[dict]]:
    """v's row and violations; spokes[x] lists the colors of the spoke
    (v, x) in ascending order (_spoke_colors)."""
    rows = _vertex_rows(projection, v)
    d = len(rows.g)
    violations: list[dict] = []
    checks: dict[str, bool] = {}

    g_count = sum(map(int.bit_count, rows.g.values())) // 2
    checks["g_size_vs_degree"] = g_count <= 3 * d
    if not checks["g_size_vs_degree"]:
        violations.append({"check": "g_size_vs_degree", "v": v,
                           "g_edges": g_count, "bound": 3 * d})

    gap_count = sum(map(int.bit_count, rows.gap.values())) // 2
    k55 = _kst_in_rows(rows.gap, gap_count, 5, 5)
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
    for x, y in _upper_edges(rows.gap):
        cx = spokes[x]
        cy = spokes[y]
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

    b_count = b_prime_count = 0
    checks["b_minus_bprime_degree"] = True
    for y, side in rows.sides.items():
        incident = side.bit_count()
        in_b_prime = incident if incident > 1 else 0
        b_count += incident
        b_prime_count += in_b_prime
        if incident - in_b_prime > 1:
            checks["b_minus_bprime_degree"] = False
            violations.append({"check": "b_minus_bprime_degree", "v": v,
                               "n2_vertex": y, "incident": incident - in_b_prime})
    two_paths = sum(proj_masks[x].bit_count() - 1 for x in rows.g)
    checks["two_path_count"] = b_count + 2 * g_count == two_paths
    if not checks["two_path_count"]:
        violations.append({"check": "two_path_count", "v": v,
                           "b_edges": b_count, "g_edges": g_count,
                           "two_paths": two_paths})

    row = {
        "v": v,
        "d": d,
        "g_edges": g_count,
        "g_aux_edges": sum(map(int.bit_count, rows.aux.values())) // 2,
        "g_aux_prime_edges": gap_count,
        "b_edges": b_count,
        "b_prime_edges": b_prime_count,
        "checks": checks,
        "ok": not violations,
    }
    return row, violations


def verify_lemma_suite(
    hypergraph: Hypergraph,
    vertices: Optional[Iterable[int]] = None,
) -> LemmaSuiteReport:
    """Replay the structural lemma assertions on a Berge-C4-free hypergraph.

    Raises NotBergeC4FreeError (with the witness) if the input has a
    Berge-C4.  Otherwise builds the colored graph once, runs observation 1
    on it, and asserts, globally, K_{2,7}-freeness of its simple
    projection, and per checked vertex v:
    |G| <= 3 d(v), K_{5,5}-freeness of G'_aux, |G'_aux| < d(v)^{9/5},
    the color-inclusion rule on G'_aux edges, the one-loose-edge rule on
    N2(v), and the 2-path count identity |B| + 2|G| = sum over x in N1(v)
    of (d(x) - 1).  A checked vertex outside 0..n-1 raises ValueError.

    Each vertex is checked on adjacency rows (_vertex_rows), with no Graph
    built for it, and on its spokes' colors (_spoke_colors, one pass over
    the colored edges for every checked vertex).  The last two rules hold
    by the definitions of B and B' (two_path_count and b_minus_bprime_degree).
    They stay as cross-checks: |G| is counted on the N1(v) rows, |B| and
    |B'| from the N2(v) side, and the identity ties the two to the degrees.
    """
    cycle = find_berge_cycle(hypergraph, 4)
    if cycle is not None:
        raise NotBergeC4FreeError(cycle)
    colored_graph = build_embedded_graph(hypergraph)
    proj = colored_graph.simple_projection
    masks = proj.adjacency_masks

    checked = tuple(sorted(set(range(proj.n) if vertices is None else vertices)))

    k27 = contains_kst(proj, 2, 7)
    violations: list[dict] = []
    if k27 is not None:
        violations.append({"check": "k27_freeness",
                           "parts": [list(k27[0]), list(k27[1])]})

    spokes = _spoke_colors(colored_graph, checked)
    rows = []
    for v in checked:
        row, vertex_violations = _vertex_checks(hypergraph, proj, masks, v, spokes[v])
        rows.append(row)
        violations.extend(vertex_violations)
    return LemmaSuiteReport(
        n=hypergraph.n,
        checked_vertices=checked,
        k27_free=k27 is None,
        k27_witness=k27,
        rows=tuple(rows),
        observation1=verify_observation1(colored_graph),
        violations=tuple(violations),
    )
