"""The edge embedding and the per-vertex proof objects.

Each hyperedge h contributes |h|-3 edges, placed as vertex-disjoint
triangles and single edges and colored by the hyperedge id.  The resulting
colored multigraph satisfies two structural facts, which the lemma suite
reports on concrete inputs:

  * per vertex and color, at most two incident edges, and two same-colored
    edges at a vertex close into a same-colored triangle (Observation 1,
    which holds by construction, so the report carries no check);
  * around every vertex v of a Berge-C4-free input, the auxiliary graphs
    G, G_aux, G'_aux, B, B' obey the counting and freeness rules that
    drive the upper bound (K_{2,7}/K_{5,5}-freeness, |G| <= 3 d(v),
    |G'_aux| < d(v)^{9/5}, the color-inclusion rule, and the one-loose-edge
    rule on second neighbors, which holds by the definition of B').

Run with:  python demos/02_embedding_and_lemmas.py
"""

import json

import bergefree as bf

# How one hyperedge decomposes, by size: triangles first, then single edges.
for size in (4, 5, 6, 7, 9, 10):
    dec = bf.decompose_hyperedge(range(size))
    print(f"|h|={size:2}: triangles={dec.triangles} edges={dec.single_edges}")

# Embedding a whole hypergraph tags each edge with its hyperedge id; two
# hyperedges may embed the same pair, giving parallel edges with distinct
# colors.
h = bf.Hypergraph(6, ({0, 1, 2, 3}, {0, 1, 4, 5}))
cg = bf.build_embedded_graph(h)
print("\ncolored edges:", cg.colored_edges)
print("observation 1:", bf.verify_lemma_suite(h).observation1.to_json_dict())

# The full lemma suite on the q=2 plane blow-up (42 vertices, weight 63).
blowup = bf.blow_up(bf.projective_plane_incidence(2).graph(), 3)
report = bf.verify_lemma_suite(blowup)
print(f"\nlemma suite on the q=2 blow-up: ok={report.ok}, "
      f"K27-free={report.k27_free}, vertices checked={len(report.rows)}")
# Each row counts the auxiliary graphs around its vertex: d = |N1(v)|, and
# the edges of G, G_aux, G'_aux, B and B'.
busiest = max(report.rows, key=lambda row: row["d"])
print("busiest vertex:", json.dumps(busiest))

# Non-free inputs are refused with a witness.
loose = bf.Hypergraph(8, ({0, 1, 4}, {1, 2, 5}, {2, 3, 6}, {3, 0, 7}))
try:
    bf.verify_lemma_suite(loose)
except bf.NotBergeC4FreeError as exc:
    print("\nrefused non-free input, witness:", exc.witness.to_json_dict())

