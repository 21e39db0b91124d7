"""Complete bipartite K_{s,t} detection backing the lemma verifiers.

The K_{2,7} and K_{5,5} freeness checks ask whether a simple graph
contains a K_{s,t}.  Containment is non-induced: any occurrence violates
the freeness claims, induced or not.  Both checks run one engine over
adjacency rows: the global check on a Graph's adjacency masks, the
per-vertex check on the G'_aux rows the lemma suite computes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Optional

from .core import Graph, iter_bits

Witness = tuple[tuple[int, ...], tuple[int, ...]]


def contains_kst(graph: Graph, s: int, t: int) -> Optional[Witness]:
    """Find a K_{s,t}: disjoint S (|S|=s), T (|T|=t) with all S-T pairs edges.

    Enumerates s-subsets among vertices of degree >= t and intersects their
    neighborhoods; the first witness in lexicographic order is returned,
    with T the t smallest common neighbors.
    """
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    return _kst_in_rows(dict(enumerate(graph.adjacency_masks)), len(graph.edges), s, t)


def _kst_in_rows(rows: Mapping[int, int], edge_count: int, s: int, t: int) -> Optional[Witness]:
    """contains_kst on a simple graph given as rows: rows[v] is v's
    neighbour mask, keys ascending, and edge_count is the graph's edge count.
    A vertex missing from rows has no neighbours.  Needs 1 <= s <= t.
    """
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


def _check_kst_witness(rows: Mapping[int, int], witness: Witness) -> None:
    s_side, t_side = witness
    if set(s_side) & set(t_side):
        raise AssertionError("K_{s,t} parts overlap")
    for a in s_side:
        for b in t_side:
            if not rows.get(a, 0) >> b & 1 or not rows.get(b, 0) >> a & 1:
                raise AssertionError(f"claimed K_st pair ({a},{b}) is not an edge")
