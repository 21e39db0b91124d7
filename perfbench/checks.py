"""The benchmark's own correctness checks; none of them calls the package.

Each check returns a list of error strings, empty when the output is right.
"""

from __future__ import annotations

import json
import math
from itertools import permutations


def witness_errors(hyperedges: list[list[int]], doc: object, k: int) -> list[str]:
    """Check a printed witness against the Berge-cycle definition, plus the
    canonical form the CLI promises: v1 is the least vertex and v2 < vk."""
    if not isinstance(doc, dict) or set(doc) != {"vertices", "hyperedges"}:
        return [f"witness is not a vertices/hyperedges object: {doc!r}"]
    verts, ids = doc["vertices"], doc["hyperedges"]
    if len(verts) != k or len(ids) != k:
        return [f"witness has {len(verts)} vertices and {len(ids)} hyperedges, want {k}"]
    errors = []
    if len(set(verts)) != k or len(set(ids)) != k:
        errors.append(f"witness repeats a vertex or hyperedge: {doc}")
    for i in range(k):
        hid = ids[i]
        if not 0 <= hid < len(hyperedges):
            errors.append(f"witness hyperedge {hid} out of range")
        elif not {verts[i], verts[(i + 1) % k]} <= set(hyperedges[hid]):
            errors.append(f"pair ({verts[i]},{verts[(i + 1) % k]}) not inside hyperedge {hid}")
    if verts[0] != min(verts) or (k > 2 and verts[1] > verts[-1]):
        errors.append(f"witness vertex order is not canonical: {verts}")
    return errors


def has_berge_c4(hyperedges: list[list[int]]) -> bool:
    """Brute force over cyclic 4-tuples of distinct hyperedges, each rotation
    class once (least id first), asking for 4 distinct vertices taken from
    the consecutive intersections.  For small hypergraphs only."""
    sets = [frozenset(h) for h in hyperedges]
    m = len(sets)
    for a in range(m):
        for b, c, d in permutations(range(a + 1, m), 3):
            meets = [sets[d] & sets[a], sets[a] & sets[b], sets[b] & sets[c], sets[c] & sets[d]]
            if not all(meets):
                continue
            for v1 in meets[0]:
                for v2 in meets[1] - {v1}:
                    for v3 in meets[2] - {v1, v2}:
                        if meets[3] - {v1, v2, v3}:
                            return True
    return False


def hypergraph_errors(doc: object, n: int, size_range: tuple[int, int] | None = None,
                      max_mult: int | None = None) -> list[str]:
    """Shape checks on a hypergraph document, then Berge-C4-freeness."""
    if not isinstance(doc, dict) or doc.get("n") != n:
        return [f"expected a hypergraph on {n} vertices"]
    hyperedges = doc["hyperedges"]
    errors = []
    for h in hyperedges:
        if h != sorted(set(h)) or not all(0 <= v < n for v in h):
            errors.append(f"hyperedge {h} is not a sorted vertex set of range({n})")
        if size_range and not size_range[0] <= len(h) <= size_range[1]:
            errors.append(f"hyperedge {h} size outside {size_range}")
    if max_mult is not None:
        for h in hyperedges:
            if hyperedges.count(h) > max_mult:
                errors.append(f"hyperedge {h} used more than {max_mult} times")
                break
    if not errors and has_berge_c4(hyperedges):
        errors.append("hypergraph contains a Berge-C4")
    return errors


def embedding_errors(hyperedges: list[list[int]], doc: object) -> list[str]:
    """Every colored edge lies inside its hyperedge; hyperedge h owns |h|-3."""
    if not isinstance(doc, dict) or "edges" not in doc:
        return ["embedding output is not a colored-graph document"]
    per_color = [0] * len(hyperedges)
    errors = []
    for u, v, color in doc["edges"]:
        if not (u < v and 0 <= color < len(hyperedges)
                and {u, v} <= set(hyperedges[color])):
            errors.append(f"colored edge ({u},{v},{color}) not inside its hyperedge")
            break
        per_color[color] += 1
    want = [max(0, len(h) - 3) for h in hyperedges]
    if not errors and per_color != want:
        errors.append("edges per color differ from |h|-3")
    return errors


def lemma_report_errors(doc: object, n: int, vertices: list[int], weight: int) -> list[str]:
    """A passing lemma report on a Berge-C4-free input."""
    try:
        obs, suite = doc["observation1"], doc["lemma_suite"]
        errors = []
        if not (obs["ok"] and suite["ok"] and suite["k27_free"]):
            errors.append("lemma report is not ok on a Berge-C4-free input")
        if suite["n"] != n or obs["n"] != n or obs["colored_edges"] != weight:
            errors.append("lemma report sizes disagree with the input")
        if suite["checked_vertices"] != vertices or len(suite["rows"]) != len(vertices):
            errors.append("lemma report checked other vertices than requested")
        return errors
    except (KeyError, TypeError):
        return ["lemma report is missing fields"]


def largest_plane_order(n: int) -> int | None:
    best = None
    for q in range(2, int(math.isqrt(n)) + 2):
        if 6 * (q * q + q + 1) <= n and all(q % f for f in range(2, math.isqrt(q) + 1)):
            best = q
    return best


def bounds_errors(stdout: str, values: list[int]) -> list[str]:
    """The bounds table against the closed forms n^1.5/2, n^1.5/(2 sqrt 6)
    and the plane blow-up weight 3(q^2+q+1)(q+1)."""
    rows = stdout.splitlines()[1:]
    if len(rows) != len(values):
        return [f"bounds printed {len(rows)} rows for {len(values)} values"]
    errors = []
    for n, row in zip(values, rows):
        cells = row.split()
        q = largest_plane_order(n)
        want = [str(n), f"{0.5 * n ** 1.5:.2f}", f"{n ** 1.5 / (2 * math.sqrt(6)):.2f}"]
        if q is not None:
            w = 3 * (q * q + q + 1) * (q + 1)
            want += [str(w), f"{w / n ** 1.5:.4f}"]
        if cells != want:
            errors.append(f"bounds row {cells} != {want}")
    return errors


def construct_errors(doc: object, stderr: str, q: int) -> list[str]:
    """n = 6(q^2+q+1), weight 3(q^2+q+1)(q+1), certified by the scan."""
    points = q * q + q + 1
    errors = []
    if doc.get("n") != 6 * points:
        errors.append(f"construct n={doc.get('n')}, want {6 * points}")
    sizes = {len(h) for h in doc["hyperedges"]}
    weight = sum(len(h) - 3 for h in doc["hyperedges"])
    if sizes != {6} or weight != 3 * points * (q + 1):
        errors.append(f"construct weight={weight}, want {3 * points * (q + 1)}")
    if '"certified": true' not in stderr:
        errors.append("construct did not report a certificate")
    return errors


def search_errors(record: dict, n: int, max_mult: int, best: int,
                  nodes: int | None) -> list[str]:
    errors = []
    if record.get("best_weight") != best:
        errors.append(f"best_weight {record.get('best_weight')}, want {best}")
    if nodes is not None and record.get("nodes_explored") != nodes:
        errors.append(f"nodes_explored {record.get('nodes_explored')}, want {nodes}")
    witness = record.get("witness", {})
    errors += hypergraph_errors(witness, n, max_mult=max_mult)
    if sum(len(h) - 3 for h in witness.get("hyperedges", [])) != best:
        errors.append("witness weight differs from best_weight")
    return errors


def parse_json(text: str) -> object:
    try:
        return json.loads(text)
    except ValueError:
        return None
