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

as counts on the adjacency rows of the simple projection, plus verifiers
that replay, on concrete instances, every structural statement the
objects are supposed to satisfy, each vertex in one fold over the rows
of N1(v), with N2(v) read only where a vertex of it sees two of N1(v)
(_vertex_checks).  The lemma suite reads the projection's
rows straight off the hyperedges through the placements (_projection),
for the vertices on a placed edge only, with no colored graph;
build_embedded_graph keeps the colored graph for the embed command and
the tests.  Observation 1 holds by construction, since a color's edges
are vertex-disjoint triangles and single edges (decompose_hyperedge), so
the suite reports it without a check and the library has no checker for
it.  K_{2,7} runs the 2-path ladder of the patterns module on the rows.
All freeness and counting checks run on the simple projection; parallel
colored edges on a pair are legal and only multiplicity-blind statements
are asserted about them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Optional

from .berge import BergeCycleWitness, find_berge_cycle
from .core import ColoredGraph, Hypergraph, _mask, iter_bits
from .patterns import _kst_in_rows


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

    The parts are vertex-disjoint (Decomposition checks it), so a vertex
    of the hyperedge lies on at most one of them: on no placed edge, on
    one single edge, or on two edges of one triangle, whose third edge
    closes them.  So every placement, taken as one color, keeps
    Observation 1.
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
# the lemma suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservationReport:
    """Observation 1 on a colored graph: per vertex and color at most two
    incident edges, and two of them, xy and xz, closed by yz in that color.
    The lemma suite's report, with its placed edges, has no violation."""

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


@dataclass(frozen=True)
class LemmaSuiteReport:
    """Per-vertex counts plus any violated structural assertion.

    observation1 reports Observation 1 on the embedded graph without a
    check: its placed edges and no violation.  Each color's edges are one
    hyperedge's placement mapped through its distinct vertices, and both
    rules of Observation 1 concern the edges of one color at one vertex,
    so they hold because they hold for every placement
    (decompose_hyperedge).  It is left out of ok and to_json_dict.
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


def _projection(hypergraph: Hypergraph,
                checked: Iterable[int]) -> tuple[dict[int, int], dict, int]:
    """The simple projection of the embedded graph, read straight off the
    hyperedges, with no colored graph built.

    One pass maps each hyperedge's sorted vertices through the placement of
    its size (_placement), in id order, as build_embedded_graph does.  It
    gives the adjacency rows of the projection, keyed ascending by the
    vertices that lie on a placed edge, each placed edge in the rows of
    both its ends, each row set in one pass over its neighbours
    (core._mask); the colors of every spoke (v, x) of each
    checked vertex v, as spokes[v][x], ascending since hyperedges come in
    id order; and the number of placed edges, parallel ones included.
    """
    neighbours: dict[int, list[int]] = {}
    spokes: dict[int, dict[int, list[int]]] = {v: {} for v in checked}
    placed = 0
    for hid, h in enumerate(hypergraph.hyperedges):
        if len(h) > 3:
            placement = _placement(len(h))
            placed += len(placement)
            for a, b in placement:
                u, w = h[a], h[b]
                neighbours.setdefault(u, []).append(w)
                neighbours.setdefault(w, []).append(u)
                if u in spokes:
                    spokes[u].setdefault(w, []).append(hid)
                if w in spokes:
                    spokes[w].setdefault(u, []).append(hid)
    width = max(neighbours, default=0) // 8 + 1
    rows = {v: _mask(neighbours[v], width) for v in sorted(neighbours)}
    return rows, spokes, placed


def _vertex_checks(
    hypergraph: Hypergraph,
    proj_rows: Mapping[int, int],
    v: int,
    spokes: dict[int, list[int]],
) -> tuple[dict, list[dict]]:
    """v's row and violations on the projection's rows (proj_rows[x] is x's
    neighbour mask, none when missing) and on the colors of v's spokes
    (spokes[x] ascending, _projection): the one owner of the G, G_aux,
    G'_aux, B and B' definitions.  One seen/dup fold of the N1(v) rows,
    each cut to the vertices outside N1(v) and v, counts twice |G|, the
    2-path sum of the degrees and |B| (on _projection's symmetric rows),
    and marks the N2 vertices hit twice or more.  Only their rows are read:
    each side N(y) & N1(v) counts into |B'| and joins its vertices in
    G_aux, whose rows, with the K_{5,5} and inclusion checks on G'_aux,
    wait for one.  A vertex hit once has its one B edge outside B', so
    b_minus_bprime_degree holds by the definition of B'.
    """
    n1_mask = proj_rows.get(v, 0)
    n1 = list(iter_bits(n1_mask))
    d = len(n1)
    g_twice = two_paths = b_count = seen = dup = 0
    if n1:  # v lies on an edge, so 1 << v is no wider than the rows
        outside = ~(n1_mask | 1 << v)
        for x in n1:
            row = proj_rows[x]
            g_twice += (row & n1_mask).bit_count()
            two_paths += row.bit_count() - 1
            row &= outside
            b_count += row.bit_count()
            dup |= seen & row
            seen |= row
    g_count = g_twice // 2

    b_prime_count = 0
    joining_sides: list[int] = []
    for y in iter_bits(dup):
        side = proj_rows[y] & n1_mask
        b_prime_count += side.bit_count()
        joining_sides.append(side)

    aux_count = gap_count = 0
    k55 = None
    unincluded: list[dict] = []
    if joining_sides:
        shared = dict.fromkeys(n1, 0)
        for side in joining_sides:
            for x in iter_bits(side):
                shared[x] |= side
        gap = {}
        for x, row in shared.items():
            row &= ~(1 << x)
            aux_count += row.bit_count()
            gap[x] = row = row & ~proj_rows[x]
            gap_count += row.bit_count()
        aux_count //= 2
        gap_count //= 2
        k55 = _kst_in_rows(gap, gap_count, 5, 5)
        for x, row in gap.items():  # each G'_aux edge (x, y), x < y, ascending
            for y in iter_bits(row & -(2 << x)):
                cx, cy = spokes[x], spokes[y]
                admissible = [(hx, hy) for hx in cx for hy in cy if hx != hy]
                if not any(x in hypergraph.hyperedges[hy] or y in hypergraph.hyperedges[hx]
                           for hx, hy in admissible):
                    unincluded.append({
                        "check": "inclusion" if admissible else "inclusion_no_distinct_colors",
                        "v": v, "edge": [x, y], "colors_x": list(cx), "colors_y": list(cy)})

    checks = {
        "g_size_vs_degree": g_count <= 3 * d,
        "k55_freeness": k55 is None,
        "g_aux_prime_bound": d < 1 or gap_count < math.pow(d, 9 / 5),
        "inclusion": not unincluded,
        "b_minus_bprime_degree": True,
        "two_path_count": b_count + 2 * g_count == two_paths,
    }
    violations: list[dict] = []
    if not checks["g_size_vs_degree"]:
        violations.append({"check": "g_size_vs_degree", "v": v,
                           "g_edges": g_count, "bound": 3 * d})
    if k55 is not None:
        violations.append({"check": "k55_freeness", "v": v,
                           "parts": [list(k55[0]), list(k55[1])]})
    if not checks["g_aux_prime_bound"]:
        violations.append({"check": "g_aux_prime_bound", "v": v,
                           "g_aux_prime_edges": gap_count,
                           "bound": math.pow(d, 9 / 5)})
    violations += unincluded
    if not checks["two_path_count"]:
        violations.append({"check": "two_path_count", "v": v,
                           "b_edges": b_count, "g_edges": g_count,
                           "two_paths": two_paths})

    row = {
        "v": v,
        "d": d,
        "g_edges": g_count,
        "g_aux_edges": aux_count,
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
    Berge-C4.  Otherwise reads the simple projection of the embedded graph
    straight off the hyperedges (_projection), with no colored graph, and
    asserts, globally, K_{2,7}-freeness of the projection, and per checked
    vertex v:
    |G| <= 3 d(v), K_{5,5}-freeness of G'_aux, |G'_aux| < d(v)^{9/5},
    the color-inclusion rule on G'_aux edges, and the 2-path count
    identity |B| + 2|G| = sum over x in N1(v) of (d(x) - 1).  A checked
    vertex outside 0..n-1 raises ValueError.  Observation 1 holds by
    construction (LemmaSuiteReport), so its report is the projection's
    count of placed edges with no violation; the one-loose-edge rule on
    N2(v) (b_minus_bprime_degree) holds by the definition of B', so it is
    reported true without a check.

    The projection's rows are sized by the vertices that lie on a placed
    edge, not by the declared n.  Each vertex is checked on those rows in
    one fold over N1(v) (_vertex_checks), with no Graph built for it, and
    on its spokes' colors, gathered in the same pass for every checked
    vertex.  The 2-path identity holds by the definition of B; it stays as
    a cross-check of the N1(v) rows, and fails when one of them misses v.
    """
    cycle = find_berge_cycle(hypergraph, 4)
    if cycle is not None:
        raise NotBergeC4FreeError(cycle)
    n = hypergraph.n
    checked = tuple(sorted(set(range(n) if vertices is None else vertices)))
    for v in checked:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
    rows, spokes, placed = _projection(hypergraph, checked)

    k27 = _kst_in_rows(rows, sum(map(int.bit_count, rows.values())) // 2, 2, 7)
    violations: list[dict] = []
    if k27 is not None:
        violations.append({"check": "k27_freeness",
                           "parts": [list(k27[0]), list(k27[1])]})

    report_rows = []
    for v in checked:
        row, vertex_violations = _vertex_checks(hypergraph, rows, v, spokes[v])
        report_rows.append(row)
        violations.extend(vertex_violations)
    return LemmaSuiteReport(
        n=n,
        checked_vertices=checked,
        k27_free=k27 is None,
        k27_witness=k27,
        rows=tuple(report_rows),
        observation1=ObservationReport(n, placed, ()),
        violations=tuple(violations),
    )
