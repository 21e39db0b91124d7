"""Berge cycle detection with verifiable witnesses.

A Berge cycle of length k alternates k distinct vertices and k distinct
hyperedges v1,h1,v2,h2,...,vk,hk with {v_i, v_{i+1}} inside h_i and
{v_k, v_1} inside h_k.  The witness is the first vertex cycle, one
representative per dihedral class (v1 is the minimum vertex, oriented so
v2 < vk), in lexicographic order, whose k pair-slots admit k distinct
covering hyperedges: a system of distinct representatives over the
slot-to-hyperedge bipartite graph.

One closed-walk search (_closed_walk) answers every question of the form
"is there a Berge-Ck whose least class is a?", in two steps.  Both read one
incidence: each vertex's list of hyperedge ids, built by _twin_classes in
one pass over the sorted rows.  No structure holds a bit per hyperedge for
every vertex; hyperedge masks are built only for the classes a walk
reaches, over only the hyperedges near where the walk starts.

1. Twin gate.  Twins are vertices that lie in exactly the same hyperedges
   (equal id lists); every vertex of a blow-up has two, and a vertex
   without a twin is a class of one (_twin_classes, keyed by the id
   tuples, with class rows from the hyperedges).  A Berge-Ck maps to a
   closed k-walk on the twin classes that uses each class at most as often
   as it has members, and every such walk whose slots pass Hall's test
   (_hall, on the slot masks) lifts back to a Berge-Ck, so walking the
   classes decides freeness without walking each twin's copy of every
   vertex path.  The walk runs only from the classes one start filter
   finds able to start one (_ck_starts), for every k: one breadth-first
   pass over the ball of radius k // 2 around the class, on the classes
   not below it, that finds a ball that is not a tree, a class in it that
   shares two or more hyperedges with a neighbour, or k or more members in
   k or more hyperedges.  When k is even no step of the walk lies inside
   the ball's last level, so the pass leaves that level untested; at
   k = 4 it is one seen/dup fold over the class's upper neighbours (the
   C4 case of Alon, Yuster and Zwick, "Finding and counting given length
   cycles", Algorithmica 1997).  The walk runs from each class the filter
   yields, alone, on masks over only the hyperedges near that class
   (_walk_masks), and the first class with a walk decides it.  A free
   blow-up has no start at k = 4 or 5, so it builds no hyperedge mask and
   needs no Hall test.
2. Witness.  The gate's walk is the witness.  Each depth tries its classes
   in the order of the member each would take next, so the first walk from
   the least class with a cycle is the canonical cycle: each position holds
   the least member of its class that no earlier position holds (a smaller
   twin swapped in keeps the hyperedges and gives a smaller cycle, reversed
   if vk falls below v2).  Each class of the walk gives out its members in
   order, and distinct_representatives, run once on its slot masks over
   the hyperedges near its first class, picks the hyperedges with _hall,
   the one SDR engine.

One mask engine serves the exact search and the greedy generator:
_triple_pairs finds, from the vertex masks and spreads (bit a*n for each
vertex a) of a triple (X, Y, Z) of distinct hyperedges, the pairs {a, b}
that close a Berge-C4 with it (b in X, a in Z, room for v3 in X & Y and
v4 in Y & Z, distinct and outside {a, b}), both ways round.  There is no
loop over vertices: the a of a triple fall into four classes by whether
they lie in X, Y and Z, every a of a class has the same b, and one
product of the class's spread with those b sets all of its rows of the
n x n pair matrix.  _closing_pairs ORs the triples through the newest
hyperedge, visited once each by two index loops, the newest as the
middle or as an end.  Only the generator calls it: it folds the pairs
into one row of n bits per vertex a and tests a draw against the rows of
its vertices.  The search makes the same _triple_pairs calls itself, per
pair of chosen hyperedges, ORs them into its running mask and tests each
candidate with one AND; the tests check its masks against _closing_pairs.
Every witness a search returns is re-validated against the definition
before it is handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Iterator, NamedTuple, Optional, Sequence

from .core import Graph, Hypergraph, iter_bits
from .patterns import contains_kst


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
    classes (_twin_classes, keyed by each vertex's list of hyperedge ids)
    decide (_twin_quotient_has_cycle), and the walk with which they find a
    cycle is the witness: each of its classes gives out its members in
    order, and the vertices are the canonical cycle.
    distinct_representatives picks the hyperedges from the walk's slot
    masks, on the hyperedge masks with which the gate found it
    (_walk_masks).
    """
    if k < 2:
        raise ValueError(f"Berge cycle length must be >= 2, got {k}")
    if k > hypergraph.n or k > len(hypergraph.hyperedges):
        return None
    classes = _twin_classes(hypergraph)
    found = _twin_quotient_has_cycle(classes, k)
    if found is None:
        return None
    walk, masks, near = found
    given = {c: iter(classes.members[c]) for c in walk}
    cycle = tuple(next(given[c]) for c in walk)
    slots = [masks[c] & masks[d] for c, d in zip(walk, walk[1:] + walk[:1])]
    witness = BergeCycleWitness(cycle, tuple(near[i] for i in distinct_representatives(slots)))
    validate_witness(hypergraph, witness)
    return witness


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


def _twin_classes(hypergraph: Hypergraph) -> _TwinClasses:
    """The twin classes, keyed by the vertices' id lists: one pass over the
    rows, in id order, appends each id to the list of each of its vertices
    (None for a vertex in no hyperedge).  The class rows come from the
    hyperedges: each ORs the mask of the distinct classes it meets into
    each of their rows and adds the number of the others to each of their
    meets."""
    ids: list[Optional[list[int]]] = [None] * hypergraph.n
    for hid, row in enumerate(hypergraph.hyperedges):
        for v in row:
            held = ids[v]
            if held is None:
                ids[v] = [hid]
            else:
                held.append(hid)
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


_Found = tuple[tuple[int, ...], list[int], list[int]]


def _twin_quotient_has_cycle(classes: _TwinClasses, k: int) -> Optional[_Found]:
    """The first closed walk (_closed_walk) from the least class a whose
    smallest member is the minimum of a Berge-Ck of the hypergraph with
    these twin classes, or None: the closed-walk search, which decides each
    a in ascending order as the least class of a closed walk.  A walk from
    a lifts to a Berge-Ck on classes not below a, whose minimum is the
    smallest member of a; and the least class c of any Berge-Ck's walk has
    a walk, so a <= c and no Berge-Ck has a smaller minimum.  Only the
    classes the start filter _ck_starts yields can have a walk, for every
    k.  The walk runs from each class it yields, alone, on masks over the
    hyperedges near that class (_walk_masks); with no class yielded, no
    mask is built.  Any sound filter gives the same answer: the least
    class with a walk is yielded, and its walk is the first one found.

    Returns (walk, masks, near): the walk, which runs on the classes'
    members and so is the canonical cycle's, with the class masks and near
    hyperedges with which it was found (_walk_masks), which hold every slot
    of a closed k-walk from a.
    """
    sizes, adj, members = classes.sizes, classes.adj, classes.members
    for a in _ck_starts(classes, k):
        masks, near = _walk_masks(classes, a, k)
        walk = _closed_walk(masks, sizes, adj, k, a, members)
        if walk is not None:
            return walk, masks, near
    return None


def _ck_starts(classes: _TwinClasses, k: int) -> Iterator[int]:
    """The classes a, ascending, that can be the least class of a closed
    k-walk that lifts to a Berge-Ck (see _closed_walk): those with one of
    these in the ball of radius r = k // 2 around a, in the loop-free class
    graph on the classes not below a:
    (i) a cycle: a breadth-first pass from a reaches a class from two
        classes of the level before it, or finds an edge inside one level
        (the last level's only when k is odd);
    (ii) a class within radius r - 1, or r when k is odd, that shares two
        or more hyperedges with one neighbour, counted on all its
        neighbours: meets[c] exceeds their number;
    (iii) a itself, with k or more members in k or more hyperedges.
    Every other class has no such walk.  A closed k-walk from its least
    class a runs through classes not below a, each within r steps of a
    along the walk one way or the other, so inside that ball.  Each step
    of it has an end within r - 1 steps of a when k = 2r is even (only the
    middle position is r steps away), and within r when k is odd.  Drop
    its loop steps (two members of one class in a row) and take the graph
    H of the class pairs it steps between; for even k no edge of H lies
    inside the last level.  If H has no edge the walk is a, a, ..., a,
    whose k slots need k distinct hyperedges of a's key: (iii).  If H is a
    forest, the closed walk crosses each of its edges an even number of
    times, so some pair c, d is crossed twice, and its two slots need two
    hyperedges that both hold c and d, the end of the pair nearer a
    included: (ii).  Otherwise H has a cycle on classes of the ball and
    on edges the pass tests: (i).  At k = 4 the pass is one seen/dup fold
    over the rows of a's upper neighbours, the C4 case of Alon, Yuster and
    Zwick, "Finding and counting given length cycles", Algorithmica 1997.
    A free blow-up of a plane, whose class graph has girth 6 and whose
    classes of three members share one hyperedge with each neighbour, has
    no start at k = 4 or 5, so the gate builds no hyperedge mask and walks
    from no class.
    """
    keys, _, sizes, adj, meets, _ = classes
    free = [row & ~(1 << i) for i, row in enumerate(adj)]
    doubled = 0
    for c, row in enumerate(free):
        if meets[c] > row.bit_count():
            doubled |= 1 << c
    for a in range(len(free)):
        if (sizes[a] >= k and len(keys[a]) >= k or doubled >> a & 1
                or not _plain_tree(free, doubled, a, k)):
            yield a


def _plain_tree(free: Sequence[int], doubled: int, a: int, k: int) -> bool:
    """True when the ball of radius k // 2 around a, in the loop-free class
    graph with rows free on the classes not below a, is a tree (not
    counting the edges inside its last level when k is even) none of whose
    classes but a, up to radius k // 2 - 1 (k // 2 when k is odd), is in
    the mask doubled: one breadth-first pass from a's upper neighbours, a
    level at a time, with a seen/dup fold over each level's rows for the
    classes of the next level reached twice."""
    outside = -2 << a  # the classes above a outside the ball
    level = free[a] & outside
    for _ in range(k // 2 - 1):
        if level & doubled:
            return False
        outside ^= level
        seen = dup = 0
        for c in iter_bits(level):
            row = free[c]
            if row & level:
                return False  # an edge inside the level
            ends = row & outside
            dup |= seen & ends
            seen |= ends
        if dup:
            return False  # a class of the next level with two parents
        level = seen
    if k % 2:  # a step of the walk may join two classes of the last level
        if level & doubled:
            return False
        for c in iter_bits(level):
            if free[c] & level:
                return False
    return True


def _walk_masks(classes: _TwinClasses, a: int, k: int) -> tuple[list[int], list[int]]:
    """Hyperedge masks for the closed k-walks from class a, over only the
    hyperedges near it, and those hyperedge ids, ascending: bit i of entry
    c is set when the i-th of them lies in keys[c].

    The hyperedges near a are those of the classes within (k - 1) // 2 of
    it.  A closed walk from a runs through classes within k // 2 of it, and
    each of its slots has an end within (k - 1) // 2, so its slot masks are
    whole; a walk that cannot close may lose hyperedges and be cut, which
    is the verdict it gets anyway.  Only classes one step further out can
    hold a near hyperedge, so only they get a mask.  One breadth-first pass
    from a grows the ball of radius (k - 1) // 2 a level at a time, and the
    masked classes are that ball with the neighbours of its last level: a
    class nearer a has all its neighbours in the ball already.  The bits
    keep the order of the ids, so _hall and distinct_representatives
    decide and pick as they would on masks over every id.
    """
    keys, adj = classes.keys, classes.adj
    inner = level = 1 << a
    for _ in range((k - 1) // 2):
        grown = 0
        for c in iter_bits(level):
            grown |= adj[c]
        level = grown & ~inner
        inner |= level
    reached = inner
    for c in iter_bits(level):
        reached |= adj[c]
    masks = [0] * len(keys)
    near = sorted(set().union(*map(keys.__getitem__, iter_bits(inner))))
    index = {hid: i for i, hid in enumerate(near)}.get
    for c in iter_bits(reached):
        mask = 0
        for hid in keys[c]:
            i = index(hid)
            if i is not None:
                mask |= 1 << i
        masks[c] = mask
    return masks, near


def _closed_walk(masks: Sequence[int], sizes: Sequence[int], adj: Sequence[int], k: int,
                 a: int, members: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """The first closed k-walk from class a that lifts to a Berge-Ck, or
    None.

    A Berge-Ck is a closed walk c1, ..., ck on the classes that uses each
    class at most as often as it has members, whose slots admit distinct
    hyperedges: its vertices are distinct and h_i lies in the hyperedge
    masks of both ends of slot i.  Conversely distinct members can be given
    to the occurrences of each class.  The slot mask of two classes is
    masks[i] & masks[j], which for two members of one class is masks[i]
    (reached through the loop bit of adj).  Each occurrence of a class
    takes its next member (members lists them ascending).  Rotated so that
    its least class a comes first, and of its two directions the one with
    v2 < vk on those members, the walk runs through classes not below a.
    Each depth tries its classes in the order of the member each would
    take next; a prefix whose slots cover fewer hyperedges than it has
    slots is cut, and a closed walk is kept when its slots pass Hall's
    test (_hall).

    Whether a has a walk depends neither on the order in which candidates
    are tried nor on which direction of a closed walk is kept, so the gate,
    which walks from the classes its start filter yields in ascending
    order, finds the least class of a Berge-Ck among them.  From a, walks
    are tried in the lexicographic order of their vertices, so the first
    is the canonical cycle: each of its positions holds the least member of
    its class that no earlier position holds (a smaller twin swapped in
    keeps the hyperedges and gives a smaller cycle, reversed if vk falls
    below v2).  It is the gate's one decider, and its walk is the witness.
    """
    walk = [0] * k
    slots = [0] * k
    count = [0] * len(sizes)
    not_below = -1 << a

    def order(candidates: int) -> list[int]:
        # the classes with a member left, by the member each would take next
        return sorted((c for c in iter_bits(candidates) if count[c] < sizes[c]),
                      key=lambda c: members[c][count[c]])

    def extend(depth: int, union: int) -> bool:
        # walk[0..depth-1] fixed; slots[0..depth-2] hold its slots, union their union.
        last = walk[depth - 1]
        mask_last = masks[last]
        candidates = adj[last] & not_below
        if depth == k - 1:
            mask_a = masks[a]
            # orientation: keep only vk > v2, which is a's second member when c2
            # is a (k = 2 has one direction)
            v2 = members[walk[1]][walk[1] == a] if k > 2 else -1
            for c in order(candidates & adj[a]):  # the last class closes the walk
                if members[c][count[c]] < v2:
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
        for c in order(candidates):
            slot = mask_last & masks[c]
            new_union = union | slot
            if new_union.bit_count() < depth:
                continue  # fewer distinct hyperedges than slots: dead prefix
            walk[depth] = c
            slots[depth - 1] = slot
            count[c] += 1
            found = extend(depth + 1, new_union)
            count[c] -= 1
            if found:
                return True
        return False

    walk[0] = a
    count[a] = 1
    found = tuple(walk) if extend(1, 0) else None
    del extend  # its closure holds it: unbound, it is freed without the cycle collector
    return found


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
    close alone, it gives every closing pair.  The greedy generator is its
    one caller: it splits the mask into rows of n bits, one per vertex a,
    and tests a draw's vertex mask against the OR of its vertices' rows.
    The exact search makes the same _triple_pairs calls per pair of chosen
    hyperedges in its own loop, and the tests use this function as the
    reference for the search's masks.

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
    neighbors.  A C4 is a K_{2,2}, S = (x, y) and T = (a, b), so this is
    patterns.contains_kst with s = t = 2: its two-rung ladder is the
    seen/dup fold of x's 2-paths (far ends above x seen once and twice),
    2|E| mask operations in all, not n^2/2 vertex-pair tests.
    """
    witness = contains_kst(graph, 2, 2)
    if witness is None:
        return None
    (x, y), (a, b) = witness
    return (x, a, y, b)


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
