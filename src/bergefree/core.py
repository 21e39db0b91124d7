"""Data types and elementary statistics for Berge-C4-free hypergraph work.

Vertices are dense integer indices 0..n-1.  A hypergraph is an ordered list
of hyperedges, each stored as a sorted tuple of distinct vertices; the
position of a hyperedge is its stable id, so multiple copies of the same
vertex set stay distinguishable (Berge cycles require distinct hyperedges,
not distinct sets).  All types are frozen after construction.

JSON interchange formats:

    Hypergraph    {"n": int, "hyperedges": [[int, ...], ...]}
    ColoredGraph  {"n": int, "edges": [[u, v, color], ...]}

Hyperedge order in a file defines the hyperedge id.  Writers emit canonical
documents (vertices sorted inside each hyperedge, as Hypergraph stores
them, fixed key order) so a write/read/write round trip is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import itemgetter, lt
from typing import Iterable


class FormatError(ValueError):
    """A JSON document does not match the interchange schema."""


def iter_bits(mask: int):
    """Yield the set bit positions of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(bits: Iterable[int], width: int) -> int:
    """The int with these bits set, all below 8 * width, set in a
    bytearray, so that it costs one pass, not one wide int per bit."""
    row = bytearray(width)
    for b in bits:
        row[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(row, "little")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypergraph:
    """Multihypergraph on vertices 0..n-1; hyperedge id = position.

    Each hyperedge, any iterable of ints, is stored as the sorted tuple of
    its distinct vertices: it is sorted once, and only a row that repeats a
    vertex is collapsed through a set.  A vertex outside 0..n-1 raises
    ValueError naming the first such vertex in the order the hyperedge was
    given.  Rows given as lists or tuples, in a list or tuple, are sorted
    by one map and tested for repeats and range all at once
    (_ascending_within); the row-by-row loop runs only when that test fails,
    to collapse the repeat or name the error, and for any other rows."""

    n: int
    hyperedges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        raw = self.hyperedges
        if type(raw) in _SEQUENCES and _SEQUENCES.issuperset(map(type, raw)):
            try:
                edges = list(map(tuple, map(sorted, raw)))
                if _ascending_within(edges, n):
                    object.__setattr__(self, "hyperedges", tuple(edges))
                    return
            except TypeError:
                pass  # the loop below raises what it raised for that row
        edges = []
        for i, h in enumerate(raw):
            row = tuple(sorted(h))
            if not all(map(lt, row, row[1:])):
                row = tuple(sorted(set(row)))
            if row and (row[0] < 0 or row[-1] >= n):
                v = next((v for v in h if not 0 <= v < n), row[0] if row[0] < 0 else row[-1])
                raise ValueError(f"hyperedge {i} contains vertex {v}, out of range for n={n}")
            edges.append(row)
        object.__setattr__(self, "hyperedges", tuple(edges))

    def __len__(self) -> int:
        return len(self.hyperedges)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "hyperedges": [list(h) for h in self.hyperedges]}

    @classmethod
    def from_json_dict(cls, doc: object) -> "Hypergraph":
        if not isinstance(doc, dict):
            raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
        if "n" not in doc or "hyperedges" not in doc:
            raise FormatError('hypergraph document needs fields "n" and "hyperedges"')
        n = _as_int(doc["n"], "n")
        raw = doc["hyperedges"]
        if not isinstance(raw, list):
            raise FormatError('field "hyperedges" must be a list of vertex lists')
        # One pass over every entry checks the types; any other input, and
        # any error, goes through _check_rows, which names the first faulty
        # row as a row-by-row scan would.
        if not (_LIST.issuperset(map(type, raw))
                and _INT.issuperset(map(type, chain.from_iterable(raw)))):
            _check_rows(raw)
        try:  # sorted and range-checked once, by __post_init__
            hypergraph = cls(n, raw)
        except ValueError as exc:
            _check_rows(raw)  # a repeated vertex is named before a range error
            raise FormatError(str(exc)) from exc
        if list(map(len, hypergraph.hyperedges)) != list(map(len, raw)):
            _check_rows(raw)  # __post_init__ collapsed a repeated vertex
        return hypergraph


_INT = frozenset({int})
_LIST = frozenset({list})
_SEQUENCES = frozenset({list, tuple})


_TAIL = slice(1, None)


def _ascending_within(rows, top: int) -> bool:
    """True when every row strictly ascends and every entry lies in
    range(top), tested over all rows at once: one map compares each row's
    neighbours, and the least first and largest last entry bound the
    range."""
    ends = list(filter(None, rows))
    return (all(map(all, map(map, repeat(lt), rows, map(itemgetter(_TAIL), rows))))
            and not (ends and (min(map(itemgetter(0), ends)) < 0
                               or max(map(itemgetter(-1), ends)) >= top)))


def _check_rows(raw: list) -> None:
    """Raise FormatError for the first row that is no list, holds an entry
    that is no int, or repeats a vertex; return if every row is sound."""
    for i, item in enumerate(raw):
        if not isinstance(item, list):
            raise FormatError(f"hyperedges[{i}]: expected a list of vertices")
        if not _INT.issuperset(map(type, item)):
            for j, v in enumerate(item):  # names the first entry that is no int
                _as_int(v, f"hyperedges[{i}][{j}]")
        row = sorted(item)
        if not all(map(lt, row, row[1:])):
            raise FormatError(f"hyperedges[{i}]: repeated vertex in {item}")


def _as_int(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _normalize_edge(edge, n: int, what: str) -> tuple[int, int]:
    u, v = edge
    if u == v:
        raise ValueError(f"{what} ({u},{v}) is a loop")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"{what} ({u},{v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


def _normal_colored_edges(edges, n: int) -> bool:
    """True when edges is a tuple of distinct (u, v, color) tuples with
    0 <= u < v < n and color >= 0: what ColoredGraph's per-edge loop would
    store, unchanged."""
    if type(edges) is not tuple or not {tuple}.issuperset(map(type, edges)):
        return False
    try:
        if len(set(edges)) != len(edges):
            return False
        for u, v, color in edges:
            if not (0 <= u < v < n and color >= 0):
                return False
    except (TypeError, ValueError):  # the loop raises what it raised before
        return False
    return True


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 (no loops, no parallels).

    Edges are normalised edge by edge (ends swapped to u < v, stored as a
    frozenset of tuples), which raises on the first loop or out-of-range
    vertex.
    """

    n: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        norm = frozenset(_normalize_edge(e, self.n, "edge") for e in self.edges)
        object.__setattr__(self, "edges", norm)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)


@dataclass(frozen=True)
class ColoredGraph:
    """Multigraph whose edges carry a hyperedge-id color.

    Stored as flat (u, v, color) triples with u < v.  Parallel edges are
    allowed only with distinct colors; the builder in the embedding module
    guarantees that both endpoints of every colored edge lie inside the
    source hyperedge named by the color.

    A tuple of distinct (u, v, color) tuples with 0 <= u < v < n and
    color >= 0, as the builder makes, is kept as it is after one pass that
    checks it.  Any other input is normalised edge by edge, which raises on
    the first loop, out-of-range vertex, negative color or repeat.
    """

    n: int
    colored_edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        if _normal_colored_edges(self.colored_edges, self.n):
            return
        norm = []
        seen = set()
        for u, v, color in self.colored_edges:
            u, v = _normalize_edge((u, v), self.n, "colored edge")
            if color < 0:
                raise ValueError(f"colored edge ({u},{v}) has negative color {color}")
            if (u, v, color) in seen:
                raise ValueError(f"duplicate colored edge ({u},{v}) with color {color}")
            seen.add((u, v, color))
            norm.append((u, v, color))
        object.__setattr__(self, "colored_edges", tuple(norm))

    @cached_property
    def simple_projection(self) -> Graph:
        """The simple graph obtained by forgetting colors and multiplicity."""
        return Graph(self.n, frozenset((u, v) for u, v, _ in self.colored_edges))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[u, v, c] for u, v, c in self.colored_edges]}

    @classmethod
    def from_json_dict(cls, doc: object) -> "ColoredGraph":
        if not isinstance(doc, dict):
            raise FormatError(f"expected a JSON object, got {type(doc).__name__}")
        if "n" not in doc or "edges" not in doc:
            raise FormatError('colored graph document needs fields "n" and "edges"')
        n = _as_int(doc["n"], "n")
        raw = doc["edges"]
        if not isinstance(raw, list):
            raise FormatError('field "edges" must be a list of [u, v, color] triples')
        triples = []
        for i, item in enumerate(raw):
            if not isinstance(item, list) or len(item) != 3:
                raise FormatError(f"edges[{i}]: expected a triple [u, v, color]")
            triples.append(tuple(_as_int(x, f"edges[{i}][{j}]")
                                 for j, x in enumerate(item)))
        try:
            return cls(n, tuple(triples))
        except ValueError as exc:
            raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# elementary statistics
# ---------------------------------------------------------------------------

def weight(hypergraph: Hypergraph) -> int:
    """Sum of (|h| - 3) over all hyperedges; may be negative, never clamped."""
    return sum(len(h) - 3 for h in hypergraph.hyperedges)


# ---------------------------------------------------------------------------
# canonical JSON plumbing
# ---------------------------------------------------------------------------

def dumps_canonical(doc: dict) -> str:
    """Single-line canonical JSON, trailing newline; byte-stable.

    Every document the package encodes is built fresh from dicts, lists,
    strings and numbers and never contains itself, so the encoder skips
    its reference-cycle check (the bytes are the same)."""
    return json.dumps(doc, separators=(",", ":"), check_circular=False) + "\n"


def loads_document(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError("JSON nested too deeply") from exc


def load_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return Hypergraph.from_json_dict(loads_document(text))


def save_hypergraph(hypergraph: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(hypergraph.to_json_dict()))
