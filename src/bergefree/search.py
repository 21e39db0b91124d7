"""Exact maximum of sum(|h| - 3) over Berge-C4-free multihypergraphs.

The search universe for n vertices is every vertex subset of size >= 4
(smaller sets contribute nothing positive), each usable with multiplicity
at most 3: a fourth copy of any such set always closes a Berge-C4, so the
cap loses no optimum.  Candidates are ordered canonically (larger sets
first, lexicographic within a size); a depth-first search walks multisets
as non-decreasing candidate-index sequences and prunes with the admissible
remaining-weight bound.  A candidate closes a Berge-C4 with three chosen
hyperedges exactly when it holds a vertex pair {a, b} for which some
ordered triple (X, Y, Z) of distinct chosen hyperedges has b in X, a in Z,
and a v3 in X & Y and a v4 in Y & Z that are distinct and outside {a, b}.
That set of closing pairs does not depend on the candidate, so each node
computes it once, as its parent's mask ORed with the pairs closed by
triples through its own hyperedge (berge._closing_pairs).  The candidates
whose pairs all miss a closing mask form one bitmask over the universe,
built once per distinct mask and kept for the call (a search meets far
fewer distinct masks than nodes), and a node walks the set bits of that
bitmask ANDed with its open candidates, in ascending order.  Every
candidate's pair bits, vertex mask and spread (bit a*n for each vertex a,
which _closing_pairs multiplies by vertex masks to fill rows of the pair
matrix) are computed once, before the walk.
The first optimum reached in this preorder is the lexicographically least
one under the canonical order, so results and witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .berge import _closing_pairs, is_berge_c4_free
from .constructions import theoretical_bounds
from .core import Hypergraph


GUARD_MAX_N = 7  # largest n max_weight_exact searches without allow_large
CEILING_MAX_N = 16  # largest n it searches at all: a universe of 64,839 sets


@dataclass(frozen=True)
class SearchResult:
    """Optimum weight with a revalidated witness for one vertex count."""

    n: int
    best_weight: int
    witness: Hypergraph
    nodes_explored: int
    exhaustive: bool


def candidate_universe(n: int) -> list[frozenset[int]]:
    """All vertex subsets of size >= 4 in canonical order: size descending,
    lexicographic ascending within one size."""
    out: list[frozenset[int]] = []
    for size in range(n, 3, -1):
        out.extend(frozenset(c) for c in combinations(range(n), size))
    return out


def max_weight_exact(
    n: int,
    max_mult: int = 3,
    pruned: bool = True,
    allow_large: bool = False,
    first_level_orbit_reps: bool = False,
) -> SearchResult:
    """Exact extremal weight on n vertices with a witness hypergraph.

    Guarded to n <= GUARD_MAX_N (7) unless allow_large is set (the universe
    grows as 2^n and the search is exponential on top of that), and to
    n <= CEILING_MAX_N (16) always, checked before the universe is built,
    whose set-up stays in tens of MB there.  n < 4 has an empty universe
    and answers trivially.  pruned=False disables the admissible
    remaining-weight bound and enumerates every Berge-C4-free multiset,
    which serves as the cross-check oracle at small n.
    A node's open candidates are one bitmask: those from the last chosen
    index on, that index only while copies are left.  When none is open,
    or the least fails the bound (which never grows with the index), the
    node returns at once.  Otherwise it computes its closing-pair mask
    once, its parent's mask ORed with berge._closing_pairs of the chosen
    hyperedges' vertex masks and spreads, which walks the triples that use
    the node's own hyperedge, and walks the open candidates whose pairs all
    miss that mask.
    first_level_orbit_reps restricts the first (canonically smallest)
    candidate to one representative per size class -- a relabeling argument
    shows some optimum survives; the best weight is unchanged but the
    witness tie-break guarantee applies only with the flag off.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > CEILING_MAX_N:
        raise ValueError(f"n={n} exceeds the search's ceiling n <= {CEILING_MAX_N}")
    if n > GUARD_MAX_N and not allow_large:
        raise ValueError(
            f"n={n} exceeds the guard n <= {GUARD_MAX_N}; pass allow_large=True to override"
        )
    if max_mult < 1:
        raise ValueError(f"max_mult must be >= 1, got {max_mult}")

    cands = candidate_universe(n)
    pair_bits = [sum(1 << (a * n + b) for a, b in combinations(sorted(c), 2)) for c in cands]
    vertex_masks = [sum(1 << v for v in c) for c in cands]
    spreads = [sum(1 << (v * n) for v in c) for c in cands]
    weights = [len(c) - 3 for c in cands]
    m = len(cands)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max_mult * weights[i]
    every = (1 << m) - 1
    survivors_of: dict[int, int] = {}

    used = [0] * m
    chosen: list[int] = []
    chosen_masks: list[int] = []
    chosen_spreads: list[int] = []
    best_weight = 0
    best_multiset: tuple[int, ...] = ()
    nodes = 0

    def walk(open_: int, current_weight: int, parent: int) -> None:
        # open_: the candidates the node may add, by multiplicity and orbit
        nonlocal nodes, best_weight, best_multiset
        if not open_:
            return
        if pruned and current_weight + suffix[(open_ & -open_).bit_length() - 1] <= best_weight:
            return  # suffix never grows with j, so no candidate passes the bound
        closing = parent | _closing_pairs(chosen_masks, chosen_spreads, n)
        live = survivors_of.get(closing)
        if live is None:
            live = sum(1 << j for j, bits in enumerate(pair_bits) if not bits & closing)
            survivors_of[closing] = live
        live &= open_
        while live:
            low = live & -live
            live ^= low
            j = low.bit_length() - 1
            if pruned and current_weight + suffix[j] <= best_weight:
                break
            nodes += 1
            used[j] += 1
            chosen.append(j)
            chosen_masks.append(vertex_masks[j])
            chosen_spreads.append(spreads[j])
            new_weight = current_weight + weights[j]
            if new_weight > best_weight:
                best_weight = new_weight
                best_multiset = tuple(chosen)
            # candidates from j on, j itself while copies are left
            walk(every & (-low if used[j] < max_mult else -low << 1), new_weight, closing)
            chosen_spreads.pop()
            chosen_masks.pop()
            chosen.pop()
            used[j] -= 1

    if first_level_orbit_reps:
        walk(sum(1 << j for j, c in enumerate(cands) if c == frozenset(range(len(c)))), 0, 0)
    else:
        walk(every, 0, 0)
    witness = Hypergraph(n, tuple(cands[j] for j in best_multiset))
    if not is_berge_c4_free(witness):
        raise AssertionError("search produced a witness with a Berge-C4")
    return SearchResult(
        n=n,
        best_weight=best_weight,
        witness=witness,
        nodes_explored=nodes,
        exhaustive=True,
    )


class BoundsRow(NamedTuple):
    n: int
    best_weight: int
    upper: float
    lower: float


def compare_to_bounds(result: SearchResult) -> BoundsRow:
    """Tabulate an exact value against the asymptotic comparators.

    Purely a report: the o(1) terms are dropped, so no ordering between the
    exact value and the comparators is asserted.
    """
    upper, lower = theoretical_bounds(result.n)
    return BoundsRow(result.n, result.best_weight, upper, lower)
