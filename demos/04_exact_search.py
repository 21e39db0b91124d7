"""Exact extremal values at small n by exhaustive branch-and-bound.

The search walks multisets of size >= 4 vertex subsets (multiplicity at
most 3: a fourth copy always closes a Berge-C4).  Each node marks once
the vertex pairs {a, b} that close a Berge-C4 with three chosen
hyperedges: some ordered triple (X, Y, Z) of them has b in X, a in Z and
room for distinct v3 in X & Y and v4 in Y & Z outside {a, b}.  The search
adds only candidates that hold none of those pairs, decides each child in
its parent's loop (a child with no surviving candidate is never entered),
and prunes with the admissible remaining-weight bound.  Unpruned mode
enumerates every Berge-C4-free multiset and is the cross-check oracle.

Run with:  python demos/04_exact_search.py
"""

import time

import bergefree as bf

print(f"{'n':>2} {'best':>5} {'nodes':>7} {'time':>8}   witness")
for n in (4, 5, 6):
    start = time.perf_counter()
    result = bf.max_weight_exact(n)
    elapsed = time.perf_counter() - start
    witness = [list(h) for h in result.witness.hyperedges]
    print(f"{n:>2} {result.best_weight:>5} {result.nodes_explored:>7} "
          f"{elapsed:>7.2f}s   {witness}")

# Work counters: every node is counted, but only nodes with a surviving
# open candidate are entered; each closing mask tested decides one child,
# the wide leaves are the children in a node's bulk-leaf mask, decided by
# the pairs of one wide triple alone, and the distinct masks (whole masks,
# and a node's mask plus the pairs of two chosen hyperedges, tried for
# their wide middles) are the size of the search's survivors cache.
print(f"\n{'n':>2} {'nodes':>7} {'expanded':>8} {'masks':>7} {'wide':>5} {'distinct':>8}")
for n in (4, 5, 6):
    result = bf.max_weight_exact(n)
    print(f"{n:>2} {result.nodes_explored:>7} {result.expanded:>8} "
          f"{result.closing_masks:>7} {result.wide_leaves:>5} {result.distinct_closings:>8}")

# Pruning only skips provably dominated branches: same values either way.
for n in (4, 5):
    pruned = bf.max_weight_exact(n)
    unpruned = bf.max_weight_exact(n, pruned=False)
    assert pruned.best_weight == unpruned.best_weight
    print(f"n={n}: pruned nodes={pruned.nodes_explored:>4}  "
          f"unpruned nodes={unpruned.nodes_explored:>4}  "
          f"best={pruned.best_weight}")

# How the exact values sit against the (asymptotic, o(1)-dropped)
# comparators; nothing is asserted about the ordering at these sizes.
print(f"\n{'n':>2} {'exact':>6} {'upper':>8} {'lower':>8}")
for n in (4, 5, 6):
    upper, lower = bf.theoretical_bounds(n)
    print(f"{n:>2} {bf.max_weight_exact(n).best_weight:>6} {upper:>8.2f} {lower:>8.2f}")
