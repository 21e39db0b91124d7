"""Dense Berge-C4-free constructions and the asymptotic comparators.

The lower-bound family starts from the point-line incidence graph of the
projective plane of prime order q: a bipartite, (q+1)-regular, C4-free
graph on 2(q^2+q+1) vertices with (q^2+q+1)(q+1) edges (girth 6).  Blowing
every vertex up into 3 identical copies turns each edge into a 6-vertex
hyperedge; the resulting 6-uniform hypergraph is Berge-C4-free whenever the
base graph has neither a C3 nor a C4, and its weight is 3 |E(G)|.

Points and lines share one list of normalized triples, and P . L = 0 is
symmetric, so the points on line j are, by index, the lines through point
j.  projective_plane_incidence keeps these per-point line lists, ascending,
and builds them in C: the lines of one slope are the shifts of one pattern,
so each family is q list slices transposed by zip, and the other lines are
ranges.  Everything downstream reads the lists: plane_blow_up_rows walks
them, points ascending, to emit the blow-up's hyperedges as sorted rows in
blow_up's order without building a graph, a set or a sort;
plane_blow_up_json walks them the same way to yield the blow-up's
canonical JSON text, one piece per point, from one "3u,3u+1,3u+2" string
per plane vertex, with no row tuple and no JSON encoder; and
certify_plane_blowup_free transposes them into per-line point masks and
tests each point with one OR-reduce over its lines' masks; a plane that
fails goes to certify_blowup_free on its graph.  The plane's Graph is
built from the lists only when asked for (PlaneIncidence.graph()).
blow_up and certify_blowup_free stay the general builder and certificate
for any graph, and the oracles for the plane's fast paths.

Only prime orders are generated; prime-power fields are out of scope and
primes already realize the asymptotic edge density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import lt, or_
from typing import Iterator, NamedTuple, Optional

from .berge import find_c4_in_graph, find_triangle
from .core import Graph, Hypergraph, weight


# The strong probable-prime test to the 13 prime bases 2..41 has no
# pseudoprime below this bound (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", Math. Comp. 86 (2017)).
PRIME_TEST_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin primality for q < PRIME_TEST_LIMIT.

    Raises ValueError at or above the limit, where these bases are no
    longer proven to decide primality.
    """
    if q < 2:
        return False
    if q >= PRIME_TEST_LIMIT:
        raise ValueError(f"primality of {q} is beyond the proven range q < {PRIME_TEST_LIMIT}")
    for p in _PRIME_BASES:
        if q % p == 0:
            return q == p
    d, s = q - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PlaneIncidence:
    """Point-line incidence of the projective plane of prime order q.

    Points and lines are nonzero coordinate triples over the q-element
    field, normalized so the first nonzero coordinate is 1.  In the
    incidence graph, point i is vertex i and line j is vertex N + j with
    N = q^2 + q + 1.  lines_through[i] lists the lines through point i in
    strictly ascending order, each in range(len(lines)); construction
    checks this in one pass over the lists and raises ValueError
    otherwise.  graph() derives the incidence edges from the lists;
    construct never asks for them.
    """

    q: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, int, int], ...]
    lines_through: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.lines_through) != len(self.points):
            raise ValueError(f"lines_through lists {len(self.lines_through)} points, "
                             f"the plane has {len(self.points)}")
        count = len(self.lines)
        for i, lines in enumerate(self.lines_through):
            if not lines:
                continue
            if lines[0] < 0 or lines[-1] >= count:
                raise ValueError(f"point {i}: line index out of range(0, {count}) in {lines}")
            if not all(map(lt, lines, lines[1:])):
                raise ValueError(f"point {i}: line indices must strictly ascend, got {lines}")

    def graph(self) -> Graph:
        """The incidence graph: point i is vertex i, line j is vertex N + j."""
        count = len(self.points)
        return Graph(count + len(self.lines),
                     frozenset((i, count + j)
                               for i, lines in enumerate(self.lines_through) for j in lines))


def _projective_triples(q: int) -> list[tuple[int, int, int]]:
    triples = [(1, a, b) for a in range(q) for b in range(q)]
    triples.extend((0, 1, b) for b in range(q))
    triples.append((0, 0, 1))
    return triples


def projective_plane_incidence(q: int) -> PlaneIncidence:
    """Incidence graph of PG(2, q) for prime q.

    A point P lies on a line L iff P . L = 0 mod q, and points and lines
    share one triple list, so the row of point (l0, l1, l2) lists the
    points on the line l0 + l1 x + l2 y = 0.  Point (1, x, y) has index
    x q + y and (0, 1, y) index q^2 + y, which makes the points at infinity
    a column x = q.  The q lines of slope d, y = c + d x, all pass through
    (0, 1, d), and their points in column x are the doubled column
    x q .. x q + q - 1 read from offset d x mod q: q slices, which zip
    transposes into the q rows.  Line y = c + d x is point (1, d/c, -1/c),
    or (0, 1, -1/d) at c = 0, which is (0, 0, 1) when d = 0 too.  The
    other lines are whole columns with (0, 0, 1): x = -1/a is (1, a, 0),
    x = q is (1, 0, 0) and x = 0 is (0, 1, 0).  So no row takes a dot
    product or a residue per incidence.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime (prime powers unsupported), got {q}")
    reps = tuple(_projective_triples(q))
    square = q * q
    inverse = [0] + [pow(c, -1, q) for c in range(1, q)]
    rows = [None] * (square + q + 1)
    for a in range(q):  # (1, a, 0): the column x = -1/a, or x = q when a = 0
        start = (q - inverse[a]) * q
        rows[a * q] = (*range(start, start + q), square + q)
    rows[square] = (*range(q), square + q)  # (0, 1, 0): the column x = 0
    columns = [[*range(x * q, x * q + q)] * 2 for x in range(q)]
    for d in range(q):  # the lines y = c + d x, c ascending
        shifts = [d * x % q for x in range(q)]
        family = zip(*[column[s:s + q] for column, s in zip(columns, shifts)], repeat(square + d))
        rows[square + q - inverse[d]] = next(family)
        for c, row in zip(range(1, q), family):
            rows[d * inverse[c] % q * q + q - inverse[c]] = row
    return PlaneIncidence(q=q, points=reps, lines=reps, lines_through=tuple(rows))


def blow_up(graph: Graph, r: int) -> Hypergraph:
    """Replace each vertex u by r copies r*u..r*u+r-1; each edge uv becomes
    the 2r-vertex hyperedge copies(u) | copies(v).  Hyperedge order follows
    the sorted edge list of the graph.

    For a plane, plane_blow_up_rows owns the order of the written rows: by
    duality its per-point line lists already list the edges sorted, and
    blow_up(plane.graph(), 3) is the oracle it is tested against."""
    if r < 1:
        raise ValueError(f"blow-up factor must be >= 1, got {r}")
    hyperedges = [(*range(r * u, r * u + r), *range(r * v, r * v + r))
                  for u, v in sorted(graph.edges)]
    return Hypergraph(r * graph.n, hyperedges)


def plane_blow_up_rows(plane: PlaneIncidence) -> list[tuple[int, ...]]:
    """Hyperedges of blow_up(plane.graph(), 3) as sorted vertex tuples, in
    the same order, read straight off plane.lines_through.

    Walking points i ascending and, per point, its lines j ascending lists
    the edges (i, N + j) in sorted order.  As i < N <= N + j, the copies
    3i..3i+2 come before 3(N+j)..3(N+j)+2, so every row is sorted too.
    """
    count = len(plane.points)
    copies = [(3 * u, 3 * u + 1, 3 * u + 2) for u in range(2 * count)]
    return [copies[i] + copies[count + j]
            for i, lines in enumerate(plane.lines_through) for j in lines]


def plane_blow_up_json(plane: PlaneIncidence, n: int) -> Iterator[str]:
    """dumps_canonical({"n": n, "hyperedges": plane_blow_up_rows(plane)}),
    yielded in pieces straight from plane.lines_through: the head, one
    piece per point on a line, and the tail.

    Every row is copies(i) followed by copies(N + j), in the order of
    plane_blow_up_rows, so one "3u,3u+1,3u+2" string per plane vertex and
    one join per point give the same bytes with no row tuple and no JSON
    encoder.  A writer takes the pieces one at a time, so the whole text
    is never held at once.
    """
    count = len(plane.points)
    copies = [f"{3 * u},{3 * u + 1},{3 * u + 2}" for u in range(2 * count)]
    line_copies = copies[count:]
    yield f'{{"n":{n},"hyperedges":['
    opening = "["
    for i, lines in enumerate(plane.lines_through):
        if lines:
            head = copies[i] + ","
            yield opening + head + ("],[" + head).join(map(line_copies.__getitem__, lines)) + "]"
            opening = ",["
    yield "]}\n"


@dataclass(frozen=True)
class BlowupCertificate:
    """Verdict of the triangle/C4 scan that licenses the 3-fold blow-up.

    If the base graph has neither a C3 nor a C4, any Berge-C4 in the
    blow-up would force copies of >= 3 distinct base vertices (giving a C3
    or C4 downstairs) or two equal hyperedges; so certified=True means the
    blow-up is Berge-C4-free.
    """

    certified: bool
    obstruction_kind: Optional[str] = None  # "triangle" | "four_cycle"
    obstruction: Optional[tuple[int, ...]] = None

    def to_json_dict(self) -> dict:
        return {
            "certified": self.certified,
            "obstruction_kind": self.obstruction_kind,
            "obstruction": None if self.obstruction is None else list(self.obstruction),
        }


def certify_blowup_free(graph: Graph) -> BlowupCertificate:
    """Certify that blow_up(graph, 3) is Berge-C4-free, or return the
    offending C3/C4 of the base graph.

    Both scans walk edges rather than vertex pairs: find_triangle meets
    each edge once and find_c4_in_graph each edge from both ends, so a
    graph with m edges costs O(m) mask operations.  The obstruction is the
    first triangle (u < v, by edge order) or the C4 with the least pair
    x < y, as a scan over every edge or vertex pair would report.  A plane
    is certified from its line lists by certify_plane_blowup_free; this
    function is its oracle and names the C4 of a plane that fails it.
    """
    triangle = find_triangle(graph)
    if triangle is not None:
        return BlowupCertificate(False, "triangle", triangle)
    cycle = find_c4_in_graph(graph)
    if cycle is not None:
        return BlowupCertificate(False, "four_cycle", cycle)
    return BlowupCertificate(True)


def certify_plane_blowup_free(plane: PlaneIncidence) -> BlowupCertificate:
    """certify_blowup_free(plane.graph()), read off plane.lines_through
    without building the graph when the plane passes.

    Every incidence edge joins a point i < N to a line N + j, so the graph
    has no triangle, and a C4 has two points and two lines.  One pass,
    points ascending, transposes the line lists into per-line point masks.
    Before point i goes in, the masks of its lines hold the points below i,
    and a point below i lies on two of them exactly when their OR has fewer
    bits than their sizes add up to: one OR-reduce per point, and every C4
    fails it at its larger point.  A plane that fails at some point is
    handed to certify_blowup_free on its graph, which names the C4; a real
    plane never fails, so construct builds no graph.
    """
    points_on = [0] * len(plane.lines)
    sizes = [0] * len(plane.lines)
    for i, lines in enumerate(plane.lines_through):
        if lines and reduce(or_, map(points_on.__getitem__, lines)).bit_count() != \
                sum(map(sizes.__getitem__, lines)):
            return certify_blowup_free(plane.graph())
        bit = 1 << i
        for j in lines:
            points_on[j] |= bit
            sizes[j] += 1
    return BlowupCertificate(True)


class LowerBoundConstruction(NamedTuple):
    hypergraph: Hypergraph
    achieved_ratio: float
    q: int
    weight: int


def largest_fitting_prime(n: int) -> Optional[int]:
    """Largest prime q with 6(q^2+q+1) <= n, or None.

    Starts from the largest q that fits and walks down to the first prime,
    so the cost is one prime gap of primality tests, not a walk from 2.
    Raises ValueError (from is_prime) when that q reaches PRIME_TEST_LIMIT.
    """
    budget = n // 6
    q = math.isqrt(max(budget, 0))
    while q >= 2 and q * q + q + 1 > budget:
        q -= 1
    while q >= 2:
        if is_prime(q):
            return q
        q -= 1
    return None


def lower_bound_construction(n: int) -> LowerBoundConstruction:
    """Best plane blow-up fitting on n vertices, padded with isolated
    vertices; reports weight / n^{3/2} as the achieved ratio."""
    q = largest_fitting_prime(n)
    if q is None:
        raise ValueError(f"need n >= 42 for the smallest plane blow-up, got {n}")
    padded = Hypergraph(n, plane_blow_up_rows(projective_plane_incidence(q)))
    w = weight(padded)
    return LowerBoundConstruction(padded, w / n ** 1.5, q, w)


def theoretical_bounds(n: int) -> tuple[float, float]:
    """Asymptotic comparators (upper, lower) for the extremal weight at n;
    o(1) terms are dropped, so these are labels, not guarantees."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    scale = n ** 1.5
    return 0.5 * scale, scale / (2 * math.sqrt(6))
