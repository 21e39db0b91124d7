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
That set of closing pairs does not depend on the candidate, so it is one
mask per node: its parent's mask ORed with the pairs closed by triples
through its own hyperedge.  The candidates whose pairs all miss a closing
mask, its survivors, form one bitmask over the universe: every candidate
but those that hold one of its pairs.  Those
holders are read off per-row tables: for each vertex a and each chunk of
at most six later vertices b, one entry per subset of the chunk holds the
OR over the subset's b of the candidates holding a and b, so a mask costs
one entry per chunk (n - 1 at n <= 7), not one OR per pair.  Survivors
are built once per distinct mask and kept for the call (a search meets
far fewer distinct masks than nodes).
Each node is handed its live set: its open candidates (from the last
chosen index on, that index only while copies are left) ANDed with the
survivors of its closing mask, and it walks the set bits in ascending
order.  A child is decided in its parent's loop, before anything is
pushed: the parent runs the child's bound test, computes the child's
closing mask and looks up its survivors, and pushes and enters the child
only when some open candidate survives, so a node with no child is
counted but never entered (most children at depth 3 are such leaves).
Fewer than three hyperedges close nothing, so the root and the first
level (walk) skip the mask.  Every node with two or more chosen
hyperedges runs one loop (node); its children are most of the nodes
counted (5,831 of 6,058 at n = 7 with orbit reps).  Its parent hands it
its closing mask and its chosen pairs, (X, spread X, Z, spread Z, X & Z,
the wide middles of X and Z) for each two chosen hyperedges X before Z,
and an entered child appends (X, C) for each earlier X.  Per pair (X, Z), a child C closes pairs
through three triples, each when its middle meets both ends: (X, C, Z)
when C meets X and Z, and (C, X, Z) / (C, Z, X) when X meets Z and C
meets X / Z.  These are the triples berge._closing_pairs visits, so C's
closing mask is the node's ORed with three guarded berge._triple_pairs
calls per pair.
The loop keeps its counters and the best weight in locals, written back
before it enters a child and when it returns.  It tests no child's
bound, weight or copies one by one: past the first child, no child's own
weight can raise best (weights never grow with the index), and its own
bound is never below the node's, suffix[j], which never grows with j.
So for one best the children counted are those below one threshold (a
bisect over suffix), those tested are all of them with an open
candidate, and the counters grow by popcounts; both sets are taken again
only after an entered child returns.  The first child keeps its best
update; when it is the universe's last candidate with no copy left it
has no open candidate and is not tested.  Its own bound never fails
before that (see node).
A triple is wide when its middle meets each end in 3 or more vertices,
and the two ends together in 4 or more: it forces no exclusion, so its
pairs are the product of its two ends.  The survivors of any part of a
child's mask hold every survivor of the whole mask, which only adds
pairs, so when no open candidate is among them the child is a leaf,
decided without its whole mask.  Per pair (X, Z), the node ORs two sets
of such leaves into one bulk-leaf mask, counted without a walk:
- The wide middles of X and Z past the top bit of the survivors of the
  node's mask ORed with the product of X and Z.  No wide middle is among
  those survivors (it holds a pair of the product), so past that bit none
  has an open survivor.  The wide middles are the candidates holding 3 or
  more vertices of X and of Z and 4 or more of their union, from a
  bit-sliced counter over the per-vertex candidate masks, kept per vertex
  mask for the call (_Holding).
- When |X & Z| >= 3, the children C with a narrow (X, C, Z) (its middle
  meets both ends, but it is not wide) and a wide (C, X, Z), whose pairs
  K(Z, C) (Z's pairs with C) are part of C's closing mask.  A candidate
  misses K(Z, C) only when it misses Z or C, or meets both in one same
  vertex, which _Holding.end_leaves rules out for every open candidate of
  C at once; the same with X and Z swapped for a wide (C, Z, X).
Every candidate's vertex mask and spread (bit a*n for each vertex a,
which the kernels multiply by vertex masks to fill rows of the pair
matrix) and the per-row tables are computed once, before the walk.
The first optimum reached in this preorder is the lexicographically least
one under the canonical order, so results and witnesses are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .berge import _diagonal, _triple_pairs, is_berge_c4_free
from .core import Hypergraph, _mask


GUARD_MAX_N = 7  # largest n max_weight_exact searches without allow_large
CEILING_MAX_N = 16  # largest n it searches at all: a universe of 64,839 sets


@dataclass(frozen=True)
class SearchResult:
    """Optimum weight with a revalidated witness for one vertex count.

    The last four fields count the search's work, deterministically:
    closing_masks counts the children whose closing masks were tested,
    expanded the nodes entered with an open surviving candidate (the root
    among them), distinct_closings the masks whose survivors were built,
    which is the size of the call's survivors cache (whole closing masks,
    and a node's mask ORed with the product of two chosen hyperedges of
    which a live child is a wide middle), and wide_leaves the children in
    a node's bulk-leaf mask: those that the pairs of one wide triple alone
    showed to be leaves, whose whole mask was never built (the wide
    middles of two chosen hyperedges, and the children whose wide part
    K(Z, C) or K(X, C) no open candidate can miss; see the module
    docstring).
    """

    n: int
    best_weight: int
    witness: Hypergraph
    nodes_explored: int
    closing_masks: int = 0
    expanded: int = 0
    distinct_closings: int = 0
    wide_leaves: int = 0


def check_size(n: int, allow_large: bool, override: str = "allow_large=True") -> None:
    """Raise ValueError unless max_weight_exact searches n: 0 <= n <=
    CEILING_MAX_N, and n <= GUARD_MAX_N unless allow_large is set.  The
    guard's message tells the caller to pass override, the caller's
    spelling of allow_large."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > CEILING_MAX_N:
        raise ValueError(f"n={n} exceeds the search's ceiling n <= {CEILING_MAX_N}")
    if n > GUARD_MAX_N and not allow_large:
        raise ValueError(f"n={n} exceeds the guard n <= {GUARD_MAX_N}; pass {override} to override")


def candidate_universe(n: int) -> list[tuple[int, ...]]:
    """All vertex subsets of size >= 4 as sorted tuples, in canonical order:
    size descending, lexicographic ascending within one size."""
    out: list[tuple[int, ...]] = []
    for size in range(n, 3, -1):
        out.extend(combinations(range(n), size))
    return out


class _Survivors(dict):
    """Closing mask -> the candidates that hold none of its pairs, as bits
    over the universe, built at a mask's first lookup and kept for the
    call.  The holders of a pair {a, b} are the AND of the candidate masks
    of a and of b, each built in one pass over the universe (core._mask).
    The pairs a < b of a row a are cut into chunks of at most ROW_CHUNK
    later vertices b, and each chunk has a table of 2^w entries: the OR of
    the holders of {a, b} over each subset of its w vertices, indexed by
    that subset's w bits of the mask (bits a*n + b).  A mask's survivors
    are every candidate but the holders of its pairs, the OR of one entry
    per chunk (n - 1 entries at n <= 7, where each row is one chunk).  The
    chunks keep the set-up at the ceiling in tens of MB; whole rows would
    take about half a GB.  The per-vertex candidate masks stay on as has,
    for the bulk-leaf rule's holders (_Holding)."""

    ROW_CHUNK = 6

    def __init__(self, cands: list[tuple[int, ...]], n: int) -> None:
        holding: list[list[int]] = [[] for _ in range(n)]
        for i, c in enumerate(cands):
            for v in c:
                holding[v].append(i)
        width = (len(cands) >> 3) + 1
        has = self.has = [_mask(ids, width) for ids in holding]
        self.chunks: list[tuple[int, int, list[int]]] = []  # (shift, w bits, table)
        for a in range(n):
            for low in range(a + 1, n, self.ROW_CHUNK):
                table = [0]
                for b in range(low, min(low + self.ROW_CHUNK, n)):
                    pair = has[a] & has[b]
                    table += [held | pair for held in table]
                self.chunks.append((a * n + low, len(table) - 1, table))
        self.every = (1 << len(cands)) - 1
        # every candidate misses the empty mask, which the first levels keep
        super().__init__({0: self.every} if cands else {})

    def __missing__(self, closing: int) -> int:
        held = 0
        for shift, bits, table in self.chunks:
            held |= table[closing >> shift & bits]
        survivors = self[closing] = self.every ^ held
        return survivors


class _Holding(dict):
    """Vertex mask -> (the candidates holding 1 or more of its vertices,
    2 or more, 3 or more, 4 or more), as bits over the universe, built at
    a mask's first lookup by a bit-sliced counter over the per-vertex
    candidate masks (_Survivors's has) and kept for the call.  The masks
    looked up, candidates' and unions of two, are all candidates' vertex
    masks, so it holds at most m entries of four m-bit masks.  The
    candidates meeting a smaller set, which end_leaves asks for, are not
    kept."""

    def __init__(self, has: list[int], vertex_masks: list[int]) -> None:
        super().__init__()
        self.has = has
        self.vertex_masks = vertex_masks
        self.every = (1 << len(vertex_masks)) - 1
        # the candidates of n - 3 or more vertices, a prefix of the
        # canonical order: every candidate meets each of them
        self.big = (1 << sum(mask.bit_count() >= len(has) - 3 for mask in vertex_masks)) - 1

    def __missing__(self, vertices: int) -> tuple[int, int, int, int]:
        # the candidates holding 1 or more, 2 or more, ... of those seen
        one = two = three = four = 0
        for v, held in enumerate(self.has):
            if vertices >> v & 1:
                four |= three & held
                three |= two & held
                two |= one & held
                one |= held
        holders = self[vertices] = one, two, three, four
        return holders

    def meeting(self, vertices: int) -> int:
        """The candidates holding 1 or more of these vertices, not kept."""
        one = 0
        while vertices:
            low = vertices & -vertices
            vertices ^= low
            one |= self.has[low.bit_length() - 1]
        return one

    def end_leaves(self, mask_x: int, mask_y: int, children: int) -> int:
        """For chosen X and Y with |X & Y| >= 3, the children C (bits) that
        have a wide (C, X, Y) and whose pairs with Y, K(Y, C), no candidate
        from C on misses.  A candidate D misses K(Y, C) only when D & Y or
        D & C is empty, or both are one vertex x.  So C lies past the last
        candidate that misses Y, has n - 3 or more vertices (no candidate
        of 4 or more is disjoint from it), and meets D - Y for every D from
        the first child on that meets Y once."""
        one_y, two_y, _, _ = self[mask_y]
        once = one_y & ~two_y & -(children & -children)
        ends = children & self[mask_x][2] & self.big & -(1 << (self.every ^ one_y).bit_length())
        meet = mask_x & mask_y
        if ends and meet.bit_count() == 3:
            # (C & X) | meet holds 4 or more only when C meets X - Y
            ends &= self.meeting(mask_x ^ meet)
        while ends and once:
            d = once & -once
            once ^= d
            ends &= self.meeting(self.vertex_masks[d.bit_length() - 1] & ~mask_y)
        return ends


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
    n <= CEILING_MAX_N (16) always, checked (check_size) before the
    universe is built, whose set-up stays in tens of MB there.  n < 4 has
    an empty universe and answers trivially.  pruned=False sets each
    candidate's remaining-weight bound above every multiset's weight, a
    bound no test fires on, so every Berge-C4-free multiset is
    enumerated: the cross-check oracle at small n.
    Each node walks its live set, the open candidates that miss its
    closing mask, in ascending order, and each candidate taken counts as a
    node.  The parent decides a child before pushing it: a child with no
    open candidate, or whose least fails the bound, is done, and so is one
    in the node's bulk-leaf mask; any other child's closing mask is built
    (three guarded berge._triple_pairs calls per pair of chosen
    hyperedges), and the child is entered only with a non-empty live set.
    walk serves the root and the first level, and node every node with two
    or more chosen hyperedges (see the module docstring).
    The bulk-leaf rule's holders are cached lazily per candidate vertex
    mask (_Holding), never at set-up: at most m entries of four m-bit
    masks, so m^2/2 bytes (0.57 MB under tracemalloc when filled at
    n = 10, 1.6 MB at n = 11, about 2 GB if ever filled at n = 16); the
    smaller sets end_leaves asks about are not kept.
    The survivors of a mask are read off per-row tables, one entry per
    chunk of at most six vertices of a row (_Survivors), which peak at
    about 15 MB at n = CEILING_MAX_N.  The search's closures are unbound
    on return, also when the walk raises, so the survivors cache is freed
    then and not left to the cycle collector.
    first_level_orbit_reps restricts the first (canonically smallest)
    candidate to one representative per size class -- a relabeling argument
    shows some optimum survives; the best weight is unchanged but the
    witness tie-break guarantee applies only with the flag off.
    """
    check_size(n, allow_large)
    if max_mult < 1:
        raise ValueError(f"max_mult must be >= 1, got {max_mult}")

    cands = candidate_universe(n)
    vertex_masks = [sum(1 << v for v in c) for c in cands]
    spreads = [sum(1 << (v * n) for v in c) for c in cands]
    weights = [len(c) - 3 for c in cands]
    m = len(cands)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max_mult * weights[i]
    if not pruned:
        suffix[:m] = [suffix[0] + 1] * m
    rising = [-bound for bound in suffix]  # ascending, for bisect
    survivors_of = _Survivors(cands, n)
    every = survivors_of.every
    holding = _Holding(survivors_of.has, vertex_masks)
    big = holding.big
    # a masked node's child j past the first is open from j on, or from
    # j + 1 at max_mult 1, when the universe's last candidate has no open
    # candidate
    shift = 0 if max_mult > 1 else 1
    with_open = every >> shift
    off_diagonal = ~_diagonal(n)

    used = [0] * m
    chosen: list[int] = []
    best_weight = 0
    best_multiset: tuple[int, ...] = ()
    nodes = closing_masks = expanded = wide_leaves = 0

    def walk(live: int, current_weight: int) -> None:
        # the root and the first level, whose children close nothing;
        # live: the candidates the node may add
        nonlocal nodes, expanded, best_weight, best_multiset
        expanded += 1
        while live:
            low = live & -live
            live ^= low
            j = low.bit_length() - 1
            if current_weight + suffix[j] <= best_weight:
                break
            nodes += 1
            new_weight = current_weight + weights[j]
            if new_weight > best_weight:
                best_weight = new_weight
                best_multiset = (*chosen, j)
            # the child's open candidates: from j on, j itself while copies are left
            open_ = every & (-low if used[j] + 1 < max_mult else -low << 1)
            if not open_ or (new_weight + suffix[(open_ & -open_).bit_length() - 1]
                             <= best_weight):
                continue
            used[j] += 1
            chosen.append(j)
            if len(chosen) == 1:
                walk(open_, new_weight)
            else:
                node(open_, new_weight, 0, [pair(chosen[0], j)])
            chosen.pop()
            used[j] -= 1

    def pair(x: int, z: int) -> tuple[int, int, int, int, int, int]:
        # chosen candidates x and z as (X, spread X, Z, spread Z, X & Z,
        # the wide middles of X and Z), built once for the node that
        # chooses z and all its descendants
        mask_x = vertex_masks[x]
        mask_z = vertex_masks[z]
        return (mask_x, spreads[x], mask_z, spreads[z], mask_x & mask_z,
                holding[mask_x][2] & holding[mask_z][2] & holding[mask_x | mask_z][3])

    def node(live: int, current_weight: int, closing: int,
             pairs: list[tuple[int, int, int, int, int, int]]) -> None:
        # a node with two or more chosen hyperedges: live, the candidates
        # it may add that miss its closing mask; pairs, one pair() for each
        # two of them.  Its counters and the best weight stay in locals,
        # written back before a child is entered and on return
        nonlocal nodes, closing_masks, expanded, wide_leaves, best_weight, best_multiset
        expanded += 1
        counted, tested, leaves, best = nodes, closing_masks, wide_leaves, best_weight
        # the first child is the only one whose own weight can raise best
        # (weights never grow with the index), and the only one that can be
        # a chosen hyperedge, whose copies may run out at it
        first = live & -live
        j = first.bit_length() - 1
        if current_weight + suffix[j] <= best:
            return
        new_weight = current_weight + weights[j]
        if new_weight > best:
            best = new_weight
            best_multiset = (*chosen, j)
        openable = every  # every candidate but the first child's when its copies run out
        testable = with_open  # the children to be tested, for any best
        if used[j] + 1 >= max_mult:
            # the first child then opens candidates from j + 1 on, none at
            # the universe's last.  Before that its own bound,
            # new_weight + suffix[j + 1], never fails, so it is tested like
            # any other child: max_mult - 1 copies of it are taken, the last
            # chosen; with W the weight without them, a node bound let the
            # first copy in with best < W + suffix[j], and since then only
            # these copies, each a first child, raised best, to at most
            # new_weight.  Both are below new_weight + suffix[j + 1], which
            # is at least W + suffix[j] (equal when pruned) and, as
            # suffix[j + 1] > 0, above new_weight
            openable ^= first
            if j + 1 == m:
                testable &= ~first
        bulk = 0  # the children decided by the pairs of one wide triple
        for mask_x, spread_x, mask_z, spread_z, meet, middles in pairs:
            # the wide middles of X and Z past the top bit of the survivors
            # of the node's mask ORed with the product of X and Z, leaves as
            # no open candidate of theirs is among those; no wide middle is
            # (it holds a vertex of X and another of Z), so those before
            # that bit keep it open
            if live & middles:
                survivors = survivors_of[(closing | spread_z * mask_x | spread_x * mask_z)
                                         & off_diagonal]
                bulk |= live & -(1 << survivors.bit_length()) & middles
            if meet.bit_count() >= 3 and live & big & ~middles:
                # and the children with a narrow (X, C, Z) whose wide
                # (C, X, Z) or (C, Z, X) leaves no open candidate: C's mask
                # holds its pairs, K(Z, C) or K(X, C).  end_leaves's C meet
                # X and Z, so leaving out the wide middles leaves a narrow
                # (X, C, Z)
                bulk |= ~middles & (holding.end_leaves(mask_x, mask_z, live)
                                    | holding.end_leaves(mask_z, mask_x, live))
        rest = live  # the children not yet counted
        while True:
            # for this best, which only an entered child can raise: reach,
            # the children counted, those before the node breaks at the
            # least j with current_weight + suffix[j] <= best (and the
            # first, which passed that test before its own weight raised
            # best); seg, those tested, all of reach that has an open
            # candidate (past the first, a child's own bound, weights[j] +
            # suffix[j + shift], is never below the node's, suffix[j]); and
            # bulk_seg, the bulk leaves of seg, counted unwalked
            reach = rest & ((1 << bisect_left(rising, current_weight - best)) - 1 | first)
            seg = reach & testable
            bulk_seg = seg & bulk
            todo = seg ^ bulk_seg
            while todo:
                low = todo & -todo
                todo ^= low
                j = low.bit_length() - 1
                open_ = openable & -low << shift
                mask_c = vertex_masks[j]
                spread_c = spreads[j]
                # the node's mask ORed with the triples through C, each
                # when its middle meets both ends: per pair (X, Z), C as
                # the middle, and X or Z as the middle with C as an end
                child = closing
                for mask_x, spread_x, mask_z, spread_z, meet, _ in pairs:
                    meet_xc = mask_x & mask_c
                    meet_zc = mask_z & mask_c
                    if meet_xc and meet_zc:
                        child |= _triple_pairs(mask_x, spread_x, mask_c, spread_c,
                                               mask_z, spread_z)
                    if meet:
                        if meet_xc:
                            child |= _triple_pairs(mask_c, spread_c, mask_x, spread_x,
                                                   mask_z, spread_z)
                        if meet_zc:
                            child |= _triple_pairs(mask_c, spread_c, mask_z, spread_z,
                                                   mask_x, spread_x)
                child &= off_diagonal
                child_live = survivors_of[child] & open_
                if not child_live:
                    continue
                # C is entered: count the children up to it, and take the
                # sets again for the best it returns
                upto = (low << 1) - 1
                counted += (reach & upto).bit_count()
                tested += (seg & upto).bit_count()
                leaves += (bulk_seg & upto).bit_count()
                rest &= ~upto
                child_pairs = pairs + [pair(x, j) for x in chosen]
                used[j] += 1
                chosen.append(j)
                nodes, closing_masks, wide_leaves, best_weight = counted, tested, leaves, best
                node(child_live, current_weight + weights[j], child, child_pairs)
                counted, tested, leaves, best = nodes, closing_masks, wide_leaves, best_weight
                chosen.pop()
                used[j] -= 1
                break
            else:
                counted += reach.bit_count()
                tested += seg.bit_count()
                leaves += bulk_seg.bit_count()
                break
        nodes, closing_masks, wide_leaves, best_weight = counted, tested, leaves, best

    if first_level_orbit_reps:
        root = sum(1 << j for j, c in enumerate(cands) if c == tuple(range(len(c))))
    else:
        root = every
    try:
        if root:
            walk(root, 0)  # every weight is positive
    finally:
        # walk and node call each other: unbound, they and the survivors
        # cache are freed now, not by the cycle collector
        del walk, node
    witness = Hypergraph(n, tuple(cands[j] for j in best_multiset))
    if not is_berge_c4_free(witness):
        raise AssertionError("search produced a witness with a Berge-C4")
    return SearchResult(
        n=n,
        best_weight=best_weight,
        witness=witness,
        nodes_explored=nodes,
        closing_masks=closing_masks,
        expanded=expanded,
        distinct_closings=len(survivors_of),
        wide_leaves=wide_leaves,
    )

