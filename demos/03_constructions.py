"""Dense Berge-C4-free hypergraphs from projective plane blow-ups.

The incidence graph of the projective plane of prime order q is bipartite,
(q+1)-regular, and C4-free.  Replacing every vertex by three identical
copies turns each edge into a 6-vertex hyperedge; the blow-up is
Berge-C4-free and its weight 3(q^2+q+1)(q+1) approaches the asymptotic
lower comparator n^{3/2} / (2 sqrt 6) from above.

Run with:  python demos/03_constructions.py
"""

import bergefree as bf

print(f"{'q':>3} {'n':>6} {'weight':>8} {'ratio':>8} {'lower':>8} {'upper':>8}")
for q in (2, 3, 5, 7, 11, 13):
    plane = bf.projective_plane_incidence(q)
    assert bf.certify_plane_blowup_free(plane).certified
    base = plane.graph()
    blowup = bf.blow_up(base, 3)
    w = bf.weight(blowup)
    upper, lower = bf.theoretical_bounds(blowup.n)
    ratio = w / blowup.n ** 1.5
    print(f"{q:>3} {blowup.n:>6} {w:>8} {ratio:>8.4f} "
          f"{lower / blowup.n ** 1.5:>8.4f} {upper / blowup.n ** 1.5:>8.4f}")

# The certificate: triangle-free plus C4-free in the base graph licenses
# the blow-up without running the (more expensive) Berge detector.
heawood = bf.projective_plane_incidence(2).graph()
print("\nq=2 certificate:", bf.certify_blowup_free(heawood).to_json_dict())
print("the same certificate from the q=2 line lists:",
      bf.certify_plane_blowup_free(bf.projective_plane_incidence(2)).to_json_dict())
print("direct detector on the q=2 blow-up:",
      bf.is_berge_c4_free(bf.blow_up(heawood, 3)))

# Failing bases are answered with the offending cycle instead.
k22 = bf.Graph(4, frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}))
print("K_{2,2} certificate:", bf.certify_blowup_free(k22).to_json_dict())

# For an arbitrary target n, the builder picks the largest fitting prime
# and pads with isolated vertices.
for n in (42, 50, 100, 798):
    built = bf.lower_bound_construction(n)
    print(f"n={n:>4}: q={built.q:>2} weight={built.weight:>5} "
          f"ratio={built.achieved_ratio:.4f}")
