"""Complete bipartite K_{s,t} detection backing the lemma verifiers.

The K_{2,7} and K_{5,5} freeness checks ask whether a simple graph
contains a K_{s,t}.  Containment is non-induced: any occurrence violates
the freeness claims, induced or not.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .core import Graph, iter_bits


def contains_kst(graph: Graph, s: int, t: int) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Find a K_{s,t}: disjoint S (|S|=s), T (|T|=t) with all S-T pairs edges.

    Enumerates s-subsets among vertices of degree >= t and intersects their
    neighborhoods; the first witness in lexicographic order is returned,
    with T the t smallest common neighbors.
    """
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    masks = graph.adjacency_masks
    candidates = [v for v in range(graph.n) if masks[v].bit_count() >= t]
    if len(candidates) < s:
        return None
    for subset in combinations(candidates, s):
        common = masks[subset[0]]
        for v in subset[1:]:
            common &= masks[v]
            if common.bit_count() < t:
                break
        else:
            for v in subset:
                common &= ~(1 << v)
            if common.bit_count() >= t:
                t_side = []
                for v in iter_bits(common):
                    t_side.append(v)
                    if len(t_side) == t:
                        break
                witness = (tuple(subset), tuple(t_side))
                _check_kst_witness(graph, witness)
                return witness
    return None


def _check_kst_witness(graph: Graph, witness: tuple[tuple[int, ...], tuple[int, ...]]) -> None:
    s_side, t_side = witness
    if set(s_side) & set(t_side):
        raise AssertionError("K_{s,t} parts overlap")
    for a in s_side:
        for b in t_side:
            if (min(a, b), max(a, b)) not in graph.edges:
                raise AssertionError(f"claimed K_st pair ({a},{b}) is not an edge")
