"""Complete bipartite K_{s,t} detection backing the lemma verifiers.

The K_{2,7} and K_{5,5} freeness checks ask whether a simple graph
contains a K_{s,t}.  Containment is non-induced: any occurrence violates
the freeness claims, induced or not.  Both checks run one engine over
adjacency rows (_kst_in_rows): the global K_{2,7} check on the
projection's row dict (embedding._projection), the per-vertex K_{5,5}
check on the G'_aux rows the lemma suite computes.  A C4 is a
K_{2,2}, so berge.find_c4_in_graph, the graph scan of the blow-up
certificate, runs the same engine with s = t = 2.

The engine takes the candidates (vertices of degree >= t) in ascending
order.  For each candidate x it folds the rows of x's neighbours into a
ladder of 2-path counts, which names x's partners: the later candidates
with t or more common neighbours with x.  Only (s-1)-subsets of the
partners are intersected, so the work is one pass over the 2-paths plus
the subsets that can still hold a witness, not every s-subset of the
candidates.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Optional

from .core import Graph, iter_bits

Witness = tuple[tuple[int, ...], tuple[int, ...]]


def contains_kst(graph: Graph, s: int, t: int) -> Optional[Witness]:
    """Find a K_{s,t}: disjoint S (|S|=s), T (|T|=t) with all S-T pairs edges.

    Returns the first witness in lexicographic order of S among vertices of
    degree >= t, with T the t smallest common neighbors outside S.
    """
    if not 1 <= s <= t:
        raise ValueError(f"need 1 <= s <= t, got s={s}, t={t}")
    return _kst_in_rows(dict(enumerate(graph.adjacency_masks)), len(graph.edges), s, t)


def _kst_in_rows(rows: Mapping[int, int], edge_count: int, s: int, t: int) -> Optional[Witness]:
    """contains_kst on a simple graph given as rows: rows[v] is v's
    neighbour mask, keys ascending, and edge_count is the graph's edge count.
    A vertex missing from rows has no neighbours.  Needs 1 <= s <= t.

    For each candidate x in ascending order, _partners folds the rows of
    x's neighbours, cut to the candidates above x, into a ladder of 2-path
    counts whose top rung is x's partners: the later candidates with t or
    more common neighbours with x.  A witness whose least vertex is x has t
    common neighbours, so each of its later members shares t neighbours
    with x and is a partner.  Trying the (s-1)-subsets of the partners in
    ascending order therefore skips only subsets that hold no witness, and
    the first witness is the one that the plain enumeration of s-subsets of
    the candidates would return.  With s = 1 the one subset tried is the
    empty one, so the first candidate, which has t neighbours, is the
    witness.  No vertex lies in its own row, so the common neighbours of S
    lie outside S.
    """
    if edge_count < s * t:
        return None
    candidates = [v for v, row in rows.items() if row.bit_count() >= t]
    if len(candidates) < s:
        return None
    cand_mask = 0
    for v in candidates:
        cand_mask |= 1 << v
    for x in candidates:
        row_x = rows[x]
        partners = _partners(rows, row_x, cand_mask & -(2 << x), t)
        for rest in combinations(iter_bits(partners), s - 1):
            common = row_x
            for y in rest:
                common &= rows[y]
                if common.bit_count() < t:
                    break
            else:
                t_side = []
                for v in iter_bits(common):
                    t_side.append(v)
                    if len(t_side) == t:
                        break
                witness = ((x, *rest), tuple(t_side))
                _check_kst_witness(rows, witness)
                return witness
    return None


def _partners(rows: Mapping[int, int], row: int, within: int, t: int) -> int:
    """The vertices of the mask within that have t or more neighbours in
    row, by a ladder of 2-path counts: the rows of row's vertices, cut to
    within, are folded into t masks, rung k holding the vertices seen at
    least k + 1 times.  The top rung is the answer.  With `left` rows still
    to fold, only a vertex on rung top - left or higher can reach the top;
    the rungs are nested, so once that rung is empty the answer is 0."""
    top = t - 1
    ladder = [0] * t
    left = row.bit_count()
    for w in iter_bits(row):
        seen = rows.get(w, 0) & within
        for k in range(top, 0, -1):
            ladder[k] |= ladder[k - 1] & seen
        ladder[0] |= seen
        left -= 1
        if left < t and not ladder[top - left]:
            return 0
    return ladder[top]


def _check_kst_witness(rows: Mapping[int, int], witness: Witness) -> None:
    s_side, t_side = witness
    if set(s_side) & set(t_side):
        raise AssertionError("K_{s,t} parts overlap")
    for a in s_side:
        for b in t_side:
            if not rows.get(a, 0) >> b & 1 or not rows.get(b, 0) >> a & 1:
                raise AssertionError(f"claimed K_st pair ({a},{b}) is not an edge")
