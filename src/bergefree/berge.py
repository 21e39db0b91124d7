"""Berge cycle detection with verifiable witnesses.

A Berge cycle of length k alternates k distinct vertices and k distinct
hyperedges v1,h1,v2,h2,...,vk,hk with {v_i, v_{i+1}} inside h_i and
{v_k, v_1} inside h_k.  Detection walks candidate vertex cycles on the
shadow graph, one representative per dihedral class (v1 is the minimum
vertex, oriented so v2 < vk), and asks whether the k pair-slots admit k
distinct covering hyperedges: a system of distinct representatives over
the slot-to-hyperedge bipartite graph.

One closed-walk search (_closed_walk) answers every question of the form
"is there a Berge-Ck whose least class is a?", in two steps.  Both read one
incidence: each vertex's list of hyperedge ids (_vertex_ids), built in one
pass over the sorted rows.  No structure holds a bit per hyperedge for
every vertex; hyperedge masks are built only for the classes a walk or a
Hall test reaches, over only the hyperedges near where the walk starts.

1. Twin gate.  Twins are vertices that lie in exactly the same hyperedges
   (equal id lists); every vertex of a blow-up has two, and a vertex
   without a twin is a class of one (_twin_classes, keyed by the id
   tuples, with class rows from the hyperedges).  A Berge-Ck maps to a
   closed k-walk on the twin classes that uses each class at most as often
   as it has members, and every such walk whose slots pass Hall's test
   (_hall, on the slot masks) lifts back to a Berge-Ck, so walking the
   classes decides freeness without walking each twin's copy of every
   vertex path.  For k != 4 the walk runs from every class.  For k = 4 it
   runs only from the least class of a trigger: a triangle through a class
   of two or more members, two classes that share two or more hyperedges
   (counted on the id tuples), or a class of four or more members, one of
   which any walk that repeats a class needs, with its least class first.
   Every other class is decided by a seen/dup fold over its class 2-paths
   (the C4 case of Alon, Yuster and Zwick, "Finding and counting given
   length cycles", Algorithmica 1997), which tests Hall's condition only
   for the middles of an end seen twice.  A free blow-up has no trigger
   and no end seen twice, so it builds no hyperedge mask and needs no Hall
   test.
2. Witness.  When the gate finds a cycle, the same walk runs on one class
   per vertex, from the smallest member of the least class with a cycle
   alone, on shadow rows built for the vertices it reaches and on the
   masks over the hyperedges near that class with which the gate found
   it.  distinct_representatives,
   run once on the slot masks of the walk it returns, picks the hyperedges
   with _hall, the one SDR engine.  That is the first cycle of the
   enumeration above, so witnesses do not depend on the gate.

One mask engine serves the exact search and the greedy generator:
_closing_pairs finds, from vertex masks and their spreads (bit a*n for each
vertex a), the pairs {a, b} that close a Berge-C4 with a triple (X, Y, Z) of
distinct hyperedges through the newest one (b in X, a in Z, room for v3 in
X & Y and v4 in Y & Z, distinct and outside {a, b}); a caller ORs them into
its running mask and tests each candidate with one AND.  Two index loops
visit each such triple once, the newest hyperedge as its middle or as an
end, and each triple is one straight-line call of _triple_pairs, which
sets the triple's pairs both ways round.  There is no loop over vertices:
the a of a triple fall into four classes by whether they lie in X, Y and
Z, every a of a class has the same b, and one product of the class's
spread with those b sets all of its rows of the n x n pair matrix.
With exactly three hyperedges the loops reduce to three triples; the
search's third level takes them inline, with the product of a triple's
ends in place of the call when no exclusion is forced.
Every witness a search returns is re-validated against the definition
before it is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, permutations
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import Graph, Hypergraph, _mask, iter_bits


@dataclass(frozen=True)
class BergeCycleWitness:
    """Alternating vertex/hyperedge sequence certifying a Berge-Ck."""

    vertices: tuple[int, ...]
    hyperedges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "hyperedges", tuple(self.hyperedges))
        if len(self.vertices) != len(self.hyperedges):
            raise ValueError("witness needs as many hyperedges as vertices")

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "hyperedges": list(self.hyperedges)}


def validate_witness(hypergraph: Hypergraph, witness: BergeCycleWitness) -> None:
    """Check a witness against the Berge-cycle definition; raise if invalid."""
    k = len(witness.vertices)
    if k < 2:
        raise ValueError("a Berge cycle has length at least 2")
    if len(set(witness.vertices)) != k:
        raise ValueError(f"vertices not distinct: {witness.vertices}")
    if len(set(witness.hyperedges)) != k:
        raise ValueError(f"hyperedges not distinct: {witness.hyperedges}")
    for i in range(k):
        u = witness.vertices[i]
        v = witness.vertices[(i + 1) % k]
        hid = witness.hyperedges[i]
        if not 0 <= hid < len(hypergraph.hyperedges):
            raise ValueError(f"hyperedge id {hid} out of range")
        h = hypergraph.hyperedges[hid]
        if u not in h or v not in h:
            raise ValueError(f"pair ({u},{v}) not inside hyperedge {hid}")


def distinct_representatives(slots: Sequence[int]) -> Optional[list[int]]:
    """Pick one hyperedge id per slot, all distinct, from the slots'
    hyperedge masks (bit h set when hyperedge h covers the slot).

    Returns the chosen ids indexed by slot, or None when no system of
    distinct representatives exists (_hall).  Slots are visited fewest
    hyperedges first, ties by index, and each takes the least free id after
    which _hall still passes on the later slots with the taken ids removed:
    the first assignment a smallest-domain-first backtracking search
    reaches.  Deterministic for fixed input.
    """
    order = sorted(range(len(slots)), key=lambda i: (slots[i].bit_count(), i))
    rest = [slots[i] for i in order]
    if not _hall(rest):
        return None
    chosen = [0] * len(slots)
    for pos, i in enumerate(order):
        for hid in iter_bits(rest[pos]):
            later = [mask & ~(1 << hid) for mask in rest[pos + 1:]]
            if _hall(later):
                break
        chosen[i] = hid
        rest[pos + 1:] = later
    return chosen


def find_berge_cycle(hypergraph: Hypergraph, k: int) -> Optional[BergeCycleWitness]:
    """First Berge-Ck of the hypergraph in canonical order, or None.

    Canonical order: cycles are keyed by their vertex sequence with the
    minimum vertex first and v2 < vk; sequences are generated
    lexicographically, so the returned witness is deterministic.  The twin
    classes decide freeness first, and only an input they find a cycle in
    is walked vertex by vertex, from the smallest member of the least class
    with a cycle.  Both read one incidence, each vertex's list of
    hyperedge ids (_vertex_ids), through the twin classes it gives.  The
    vertex walk reads the shadow rows of the vertices it reaches
    (_ShadowRows) and, a vertex taking its class's, the hyperedge masks
    with which the gate found the class (_walk_masks), over only the
    hyperedges near its start.  distinct_representatives picks the
    hyperedges from the slot masks of the cycle it returns.
    """
    if k < 2:
        raise ValueError(f"Berge cycle length must be >= 2, got {k}")
    if k > hypergraph.n or k > len(hypergraph.hyperedges):
        return None
    classes = _twin_classes(hypergraph, _vertex_ids(hypergraph))
    found = _twin_quotient_has_cycle(classes, k)
    if found is None:
        return None
    a, class_masks, near = found
    first = classes.members[a][0]
    masks = list(map(class_masks.__getitem__, classes.of_vertex))
    cycle = _closed_walk(masks, [1] * hypergraph.n, _ShadowRows(classes), k,
                         range(first, first + 1))
    slots = [masks[u] & masks[v] for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    witness = BergeCycleWitness(cycle, tuple(near[i] for i in distinct_representatives(slots)))
    validate_witness(hypergraph, witness)
    return witness


def _vertex_ids(hypergraph: Hypergraph) -> list[Optional[list[int]]]:
    """The incidence as id lists: entry v lists the ids of the hyperedges
    through v, ascending, and is None for a vertex in none.  One pass over
    the rows, in id order, appends each id to its vertices."""
    ids: list[Optional[list[int]]] = [None] * hypergraph.n
    for hid, row in enumerate(hypergraph.hyperedges):
        for v in row:
            held = ids[v]
            if held is None:
                ids[v] = [hid]
            else:
                held.append(hid)
    return ids


class _TwinClasses(NamedTuple):
    """Twin classes of a hypergraph: vertices that lie in exactly the same
    hyperedges.  A vertex without a twin is a class of one, and vertices in
    no hyperedge form no class.  Classes are numbered in the order of their
    smallest members.

    keys[i] is the tuple of hyperedge ids shared by the members of class i,
    members[i] lists them ascending and sizes[i] counts them.  adj[i] has
    bit j set when classes i != j share a hyperedge, and bit i set when
    class i has two members, which then share every hyperedge of the class.
    meets[i] counts the j != i once per hyperedge they share with i, so it
    exceeds their number only when class i shares two or more hyperedges
    with one of them.  of_vertex[v] is the class of vertex v, -1 for a
    vertex in no hyperedge.
    """

    keys: list[tuple[int, ...]]
    members: list[list[int]]
    sizes: list[int]
    adj: list[int]
    meets: list[int]
    of_vertex: list[int]


def _twin_classes(hypergraph: Hypergraph, ids: Sequence[Optional[list[int]]]) -> _TwinClasses:
    """The twin classes, keyed by the vertices' id lists.  The rows come
    from the hyperedges: each ORs the mask of the distinct classes it meets
    into each of their rows and adds the number of the others to each of
    their meets."""
    index: dict[tuple[int, ...], int] = {}
    members: list[list[int]] = []
    of_vertex = [-1] * hypergraph.n
    for v, key in enumerate(ids):
        if key:
            key = tuple(key)
            i = index.get(key)
            if i is None:
                i = index[key] = len(members)
                members.append([v])
            else:
                members[i].append(v)
            of_vertex[v] = i
    sizes = list(map(len, members))
    adj = [0] * len(members)
    meets = [0] * len(members)
    for row in hypergraph.hyperedges:
        touched = set(map(of_vertex.__getitem__, row))
        others = len(touched) - 1
        if others:
            mask = 0
            for i in touched:
                mask |= 1 << i
            for i in touched:
                adj[i] |= mask
                meets[i] += others
    for i, size in enumerate(sizes):
        if (size > 1) != (adj[i] >> i & 1):
            adj[i] ^= 1 << i
    return _TwinClasses(list(index), members, sizes, adj, meets, of_vertex)


_Found = tuple[int, list[int], Sequence[int]]


def _twin_quotient_has_cycle(classes: _TwinClasses, k: int) -> Optional[_Found]:
    """The least class a whose smallest member is the minimum of a Berge-Ck
    of the hypergraph with these twin classes, or None: the seen/dup fold
    over class 2-paths for k = 4, the closed-walk search otherwise.  Both
    decide each a in ascending order as the least class of a closed walk.
    A walk from a lifts to a Berge-Ck on classes not below a, whose minimum
    is the smallest member of a; and the least class c of any Berge-Ck's
    walk has a walk, so a <= c and no Berge-Ck has a smaller minimum.

    a comes with the class masks and near hyperedges with which it was
    found (_walk_masks), which hold every slot of a closed k-walk from a.
    """
    if k == 4:
        return _twin_quotient_has_c4(classes)
    starts = range(len(classes.keys))
    masks, near = _walk_masks(classes, (1 << len(starts)) - 1, k)
    walk = _closed_walk(masks, classes.sizes, classes.adj, k, starts)
    return None if walk is None else (walk[0], masks, near)


def _ball(adj: Sequence[int], centre: int, radius: int) -> int:
    """The mask of the classes within radius of the classes of the mask
    centre in the class graph whose rows are adj."""
    everything = (1 << len(adj)) - 1
    ball = frontier = centre
    for _ in range(radius):
        if ball == everything:
            break
        grown = 0
        for c in iter_bits(frontier):
            grown |= adj[c]
        frontier = grown & ~ball
        ball |= frontier
    return ball


def _walk_masks(classes: _TwinClasses, starts: int, k: int) -> tuple[list[int], Sequence[int]]:
    """Hyperedge masks for the closed k-walks from the starts (a mask of
    classes), over only the hyperedges near them, and those hyperedge ids,
    ascending: bit i of entry c is set when the i-th of them lies in
    keys[c].  One more entry at the end, the entry of -1, which of_vertex
    gives a vertex in no class, is 0.

    The hyperedges near the starts are those of the classes within
    (k - 1) // 2 of a start.  A closed walk from a start runs through
    classes within k // 2 of it, and each of its slots has an end within
    (k - 1) // 2, so its slot masks are whole; a walk that cannot close may
    lose hyperedges and be cut, which is the verdict it gets anyway.  Only
    classes one step further out can hold a near hyperedge, so only they
    get a mask.  The bits keep the order of the ids, so _hall and
    distinct_representatives decide and pick as they would on masks over
    every id.
    """
    keys, adj = classes.keys, classes.adj
    inner = _ball(adj, starts, (k - 1) // 2)
    masks = [0] * (len(keys) + 1)
    if inner == (1 << len(keys)) - 1:  # every hyperedge is near: bits are ids
        for c, key in enumerate(keys):
            mask = 0
            for hid in key:
                mask |= 1 << hid
            masks[c] = mask
        return masks, range(max(map(itemgetter(-1), keys), default=-1) + 1)
    near = sorted(set().union(*map(keys.__getitem__, iter_bits(inner))))
    index = {hid: i for i, hid in enumerate(near)}.get
    for c in iter_bits(_ball(adj, inner, 1)):
        mask = 0
        for hid in keys[c]:
            i = index(hid)
            if i is not None:
                mask |= 1 << i
        masks[c] = mask
    return masks, near


class _ShadowRows(dict):
    """Shadow adjacency rows of the vertices, each built on first use: bit
    v of entry u is set when u and v lie in a common hyperedge, and so is
    u's own bit, which a walk never takes, since u is on it already.  Twins
    share every hyperedge, so a row is built once per class, from its
    members and those of its neighbours; a vertex in no hyperedge has 0."""

    def __init__(self, classes: _TwinClasses):
        super().__init__()
        self.classes = classes
        self.by_class: dict[int, int] = {-1: 0}

    def __missing__(self, u: int) -> int:
        members, adj, of_vertex = self.classes.members, self.classes.adj, self.classes.of_vertex
        c = of_vertex[u]
        row = self.by_class.get(c)
        if row is None:
            row = self.by_class[c] = _mask(chain(members[c], *map(members.__getitem__,
                                                                  iter_bits(adj[c]))),
                                           len(of_vertex) // 8 + 1)
        self[u] = row
        return row


def _closed_walk(masks: Sequence[int], sizes: Sequence[int], adj: Mapping[int, int], k: int,
                 starts: Iterable[int]) -> Optional[tuple[int, ...]]:
    """The first closed k-walk that lifts to a Berge-Ck, from the first
    start in starts that has one, or None.

    A Berge-Ck is a closed walk c1, ..., ck on the classes that uses each
    class at most as often as it has members, whose slots admit distinct
    hyperedges: its vertices are distinct and h_i lies in the hyperedge
    masks of both ends of slot i.  Conversely distinct members can be given
    to the occurrences of each class.  The slot mask of two classes is
    masks[i] & masks[j], which for two members of one class is masks[i]
    (reached through the loop bit of adj).  Rotated so that its least class
    a comes first, and of its two directions the one with c2 <= ck, the
    walk runs through classes not below a; walks from a are tried in
    lexicographic order.  A prefix whose slots cover fewer hyperedges than
    it has slots is cut, and a closed walk is kept when its slots pass
    Hall's test (_hall).  On one class of one member per vertex, with the
    shadow adjacency, a walk is a vertex cycle, minimum first and v2 < vk,
    and the first one is the canonical cycle from that minimum.
    """
    walk = [0] * k
    slots = [0] * k
    count = [0] * len(sizes)

    def extend(depth: int, not_below: int, union: int) -> bool:
        # walk[0..depth-1] fixed; slots[0..depth-2] hold its slots, union their union.
        last = walk[depth - 1]
        mask_last = masks[last]
        candidates = adj[last] & not_below
        if depth == k - 1:
            a = walk[0]
            candidates &= adj[a]  # the last class closes the walk
            if k > 2:
                candidates &= -1 << walk[1]  # orientation: keep only c2 <= ck
            mask_a = masks[a]
            for c in iter_bits(candidates):
                if count[c] == sizes[c]:
                    continue
                slot = mask_last & masks[c]
                closing = masks[c] & mask_a
                if (union | slot | closing).bit_count() < k:
                    continue
                slots[depth - 1] = slot
                slots[depth] = closing
                if _hall(slots):
                    walk[depth] = c
                    return True
            return False
        for c in iter_bits(candidates):
            if count[c] == sizes[c]:
                continue
            slot = mask_last & masks[c]
            new_union = union | slot
            if new_union.bit_count() < depth:
                continue  # fewer distinct hyperedges than slots: dead prefix
            walk[depth] = c
            slots[depth - 1] = slot
            count[c] += 1
            found = extend(depth + 1, not_below, new_union)
            count[c] -= 1
            if found:
                return True
        return False

    for a in starts:
        walk[0] = a
        count[a] = 1
        if extend(1, -1 << a, 0):
            return tuple(walk)
        count[a] = 0
    return None


def _twin_quotient_has_c4(classes: _TwinClasses) -> Optional[_Found]:
    """The least class a of a Berge-C4 of the hypergraph whose twin classes
    these are, as _twin_quotient_has_cycle gives it, or None.

    A closed 4-walk a, b, c, d from its least class a (see _closed_walk)
    that repeats a class lifts to a Berge-C4 only when a is the least class
    of a trigger (_has_trigger).  So each a that is one is decided by the
    closed-walk search from a alone, on masks over the hyperedges near a,
    and every other a has only walks on four distinct classes.  Their far
    ends c are the dup bits above a of one fold over the neighbours b of a
    above a, in the loop-free class graph: the fold of find_c4_in_graph,
    which keeps the ends seen once (seen) and twice (dup).  Hall's test
    runs only on the pairs of middles of a dup end, on masks over the
    hyperedges near a.  So hyperedge masks are built only near an a that
    is the least class of a trigger or whose fold has a dup end.
    """
    keys, _, sizes, adj, _, _ = classes
    free = [row & ~(1 << i) for i, row in enumerate(adj)]
    for a in range(len(keys)):
        above = a + 1
        uppers = [above + b for b in iter_bits(free[a] >> above)]
        if _has_trigger(classes, free, a, uppers):
            masks, near_ids = _walk_masks(classes, 1 << a, 4)
            if _closed_walk(masks, sizes, adj, 4, (a,)) is not None:
                return a, masks, near_ids
            continue
        seen = dup = 0
        for b in uppers:
            ends = free[b]
            dup |= seen & ends
            seen |= ends
        dup >>= above
        if not dup:
            continue
        masks, near_ids = _walk_masks(classes, 1 << a, 4)
        mask_a = masks[a]
        for c in iter_bits(dup):
            c += above
            mask_c = masks[c]
            middles = [masks[above + b] for b in iter_bits((free[a] & free[c]) >> above)]
            for mask_b, mask_d in combinations(middles, 2):
                if _hall((mask_a & mask_b, mask_b & mask_c, mask_c & mask_d, mask_d & mask_a)):
                    return a, masks, near_ids
    return None


def _has_trigger(classes: _TwinClasses, free: Sequence[int], a: int,
                 uppers: Sequence[int]) -> bool:
    """True when class a is the least class of a trigger; free holds the
    class rows without their loop bits, and uppers the neighbours of a
    above a.

    A closed 4-walk from its least class a that repeats a class lifts to a
    Berge-C4 only through a trigger on a and classes above it:
    - a triangle of the loop-free class graph through a and a class of two
      or more members, for the walks a-a-c-d, a-b-b-d and a-b-c-c;
    - a class above a that shares two or more hyperedges with a, for the
      walks a-b-a-d, a-b-c-b, a-a-c-c and a-a-a-d, whose slots hold two
      hyperedges shared by a and one of its neighbours;
    - four or more members in a, for the walk a-a-a-a.
    A triangle with least class a has two neighbours v of a above it, so a
    member of two or more on it is a or the v of one of them.  Shared
    hyperedges are counted on the id tuples, and only when meets[a]
    exceeds a's number of neighbours, that is when a shares two hyperedges
    with some class.
    """
    keys, _, sizes, _, meets, _ = classes
    if sizes[a] >= 4:
        return True
    if meets[a] > free[a].bit_count():
        ids = set(keys[a])
        if any(len(ids.intersection(keys[v])) >= 2 for v in uppers):
            return True
    above = free[a] >> (a + 1) << (a + 1)
    twinned = sizes[a] >= 2
    return any((twinned or sizes[v] >= 2) and free[v] & above for v in uppers)


def _hall(slots: Sequence[int]) -> bool:
    """True iff slots with these hyperedge masks admit distinct
    representatives.  By Hall's theorem that holds iff every j of the slots
    cover at least j hyperedges; it is decided by placing the slots one by
    one along augmenting paths (_augment), in time polynomial in the number
    of slots, not one union per subset of them."""
    holder: dict[int, int] = {}  # hyperedge bit -> the slot that holds it
    for i in range(len(slots)):
        if not _augment(slots, i, holder, [0]):
            return False
    return True


def _augment(slots: Sequence[int], i: int, holder: dict[int, int], seen: list[int]) -> bool:
    """Give slot i one of its hyperedges outside seen[0], moving the slot
    that holds it on to another in turn (Kuhn's augmenting path); False
    when no path ends at a hyperedge no slot holds.  seen[0] collects the
    hyperedges the search has tried."""
    while free := slots[i] & ~seen[0]:
        bit = free & -free
        seen[0] |= bit
        j = holder.get(bit)
        if j is None or _augment(slots, j, holder, seen):
            holder[bit] = i
            return True
    return False


@cache
def _diagonal(n: int) -> int:
    """The bits a*n + a of an n-vertex pair mask, one per vertex a."""
    return sum(1 << (a * (n + 1)) for a in range(n))


def _closing_pairs(masks: Sequence[int], spreads: Sequence[int], n: int) -> int:
    """Bitmask of the vertex pairs that close a Berge-C4 with three
    distinct hyperedges, one of them the last, of a multiset given by their
    vertex masks and spreads (spreads[i] has bit a*n for each bit a of
    masks[i]): bits a*n + b and b*n + a (a != b) are set iff a hyperedge
    holding a and b closes one.  ORed into the pairs the earlier masks
    close alone, it gives every closing pair, and a candidate is tested
    with one AND of its pairs (a < b) against that.

    A triple (X, Y, Z) closes pairs only when Y meets both ends, so two
    index loops visit each triple through the last mask once: the last
    mask as the middle Y, with each unordered pair of earlier masks that
    both meet it; and the last mask as an end, with each earlier middle
    that meets it and each other end that meets that middle.  Each triple
    is one call of _triple_pairs, which sets its pairs both ways round.
    Its products may also set a*n + a for a vertex a; no closing pair has
    that bit, so the diagonal is cleared once, at the end.
    """
    last = len(masks) - 1
    if last < 2:
        return 0  # fewer than three hyperedges close nothing
    mask_l = masks[last]
    spread_l = spreads[last]
    meets = [i for i in range(last) if masks[i] & mask_l]
    closing = 0
    for pos, x in enumerate(meets):
        mask_x = masks[x]
        spread_x = spreads[x]
        for z in meets[pos + 1:]:
            closing |= _triple_pairs(mask_x, spread_x, mask_l, spread_l, masks[z], spreads[z])
    for y in meets:
        mask_y = masks[y]
        spread_y = spreads[y]
        for z in range(last):
            if z != y and masks[z] & mask_y:
                closing |= _triple_pairs(mask_l, spread_l, mask_y, spread_y, masks[z], spreads[z])
    return closing & ~_diagonal(n)


def _triple_pairs(mask_x: int, spread_x: int, mask_y: int, spread_y: int,
                  mask_z: int, spread_z: int) -> int:
    """Bits a*n + b of the pairs that close a Berge-C4 with the triple
    (X, Y, Z), Y meeting X and Z, both ways round: a in Z with b in X, and
    a in X with b in Z.  Bits a*n + a may be set too.

    A Berge-C4 a - h - b - X - v3 - Y - v4 - Z - a through a new hyperedge
    h has v3 in P = X & Y and v4 in Q = Y & Z picked distinct and outside
    {a, b}.  Hall's condition for those two slots is that P and Q minus
    {a, b} are non-empty and their union U minus {a, b} has 2 bits, so for
    one a every b of the other end qualifies except at most three forced
    exclusions: P - {a} or Q - {a} when it has one member, and U - {a}
    when it has two.  Which apply depends only on the class of a: outside
    Y, in P alone, in Q alone, or in both.  Each class is one product:
    spread(S) * T sets bit a*n + b for every a in S and b in T, with no
    carry since b < n.  A class's spread comes from the triple's spreads
    by AND and XOR, because spreading moves each bit a to its own bit a*n,
    so spread(S & T) = spread(S) & spread(T).  No exclusion is forced for
    any a when P and Q have 3 bits and U has 4.  The exclusions are taken
    whole (P, not P - {a}) from an end taken whole, so a product may set
    a*n + a.
    """
    p_all = mask_x & mask_y
    q_all = mask_y & mask_z
    u_all = p_all | q_all
    p = p_all.bit_count()
    q = q_all.bit_count()
    u = u_all.bit_count()
    if u < 2:
        return 0  # no a leaves two members of U
    if p >= 3 and q >= 3 and u >= 4:
        return spread_z * mask_x | spread_x * mask_z
    in_p = spread_x & spread_y
    in_q = spread_z & spread_y
    # a outside Y keeps P, Q and U whole
    if u == 2:
        drop = u_all
    else:
        drop = (p_all if p == 1 else 0) | (q_all if q == 1 else 0)
    pairs = (spread_z ^ in_q) * (mask_x & ~drop) | (spread_x ^ in_p) * (mask_z & ~drop)
    if u == 2:
        return pairs  # a in Y leaves one member of U
    # a in Y takes itself out of U, and out of P or Q when it lies there
    in_both = in_p & in_q
    if u == 3:
        drop_p = drop_q = drop_pq = u_all
    else:
        drop_p = (p_all if p == 2 else 0) | (q_all if q == 1 else 0)
        drop_q = (p_all if p == 1 else 0) | (q_all if q == 2 else 0)
        drop_pq = (p_all if p == 2 else 0) | (q_all if q == 2 else 0)
    if p >= 2:
        pairs |= (in_p ^ in_both) * (mask_z & ~drop_p)
    if q >= 2:
        pairs |= (in_q ^ in_both) * (mask_x & ~drop_q)
        if p >= 2:
            pairs |= in_both * ((mask_x | mask_z) & ~drop_pq)
    return pairs


def is_berge_c4_free(hypergraph: Hypergraph) -> bool:
    """True iff the hypergraph contains no Berge-C4."""
    return find_berge_cycle(hypergraph, 4) is None


def naive_berge_oracle(
    hypergraph: Hypergraph,
    k: int,
    max_vertices: int = 12,
    max_hyperedges: int = 12,
) -> Optional[BergeCycleWitness]:
    """Brute-force Berge-Ck search used as a cross-validation oracle.

    Enumerates every ordered k-tuple of distinct vertices and, per tuple,
    the ordered k-tuples of distinct hyperedges position by position
    (a slot prefix is abandoned as soon as its pair escapes the candidate
    hyperedge, which never changes the verdict).  Intended for tiny
    instances only; the size guard is there to keep misuse loud.
    """
    if k < 2:
        raise ValueError(f"Berge cycle length must be >= 2, got {k}")
    n = hypergraph.n
    m = len(hypergraph.hyperedges)
    if n > max_vertices or m > max_hyperedges:
        raise ValueError(
            f"instance too large for the naive oracle (n={n}, m={m}, "
            f"guard n<={max_vertices}, m<={max_hyperedges})"
        )
    if k > n or k > m:
        return None

    hyperedges = hypergraph.hyperedges
    chosen = [0] * k

    def assign(pos: int, pairs: list[tuple[int, int]], used: int) -> bool:
        if pos == k:
            return True
        u, v = pairs[pos]
        for hid in range(m):
            if used >> hid & 1:
                continue
            h = hyperedges[hid]
            if u in h and v in h:
                chosen[pos] = hid
                if assign(pos + 1, pairs, used | (1 << hid)):
                    return True
        return False

    for vt in permutations(range(n), k):
        pairs = [(vt[i], vt[(i + 1) % k]) for i in range(k)]
        if assign(0, pairs, 0):
            witness = BergeCycleWitness(vt, tuple(chosen))
            validate_witness(hypergraph, witness)
            return witness
    return None


def find_c4_in_graph(graph: Graph) -> Optional[tuple[int, int, int, int]]:
    """A 4-cycle (x, a, y, b) of a simple graph, or None.

    x is the least vertex that has a partner y > x with two common
    neighbors, y the least such partner, and a < b the two least common
    neighbors.  A pair x < y closes a C4 exactly when two 2-paths x-a-y and
    x-b-y share both ends, so one pass over the neighbors of x collects the
    far ends above x seen once (seen) and twice (dup), shifted down by
    x + 1: 2|E| mask operations in all, not n^2/2 vertex-pair tests.
    """
    masks = graph.adjacency_masks
    for x in range(graph.n):
        seen = dup = 0
        for a in iter_bits(masks[x]):
            ends = masks[a] >> (x + 1)
            dup |= seen & ends
            seen |= ends
        if dup:
            y = x + (dup & -dup).bit_length()
            it = iter_bits(masks[x] & masks[y])
            a = next(it)
            b = next(it)
            return (x, a, y, b)
    return None


def find_triangle(graph: Graph) -> Optional[tuple[int, int, int]]:
    """A triangle (u, v, w) of a simple graph, or None.

    Edges u < v are tried in sorted order (u ascending, then v), and w is
    the least common neighbor of the first edge that has one.
    """
    masks = graph.adjacency_masks
    for u in range(graph.n):
        for offset in iter_bits(masks[u] >> (u + 1)):
            v = u + 1 + offset
            common = masks[u] & masks[v]
            if common:
                w = next(iter_bits(common))
                return (u, v, w)
    return None
