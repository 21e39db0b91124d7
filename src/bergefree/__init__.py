"""Toolkit for constructing, detecting, and verifying Berge-C4-free hypergraphs."""

from .berge import (
    BergeCycleWitness,
    find_berge_cycle,
    find_c4_in_graph,
    find_triangle,
    is_berge_c4_free,
    naive_berge_oracle,
    validate_witness,
)
from .constructions import (
    BlowupCertificate,
    LowerBoundConstruction,
    PlaneIncidence,
    blow_up,
    certify_blowup_free,
    certify_plane_blowup_free,
    is_prime,
    lower_bound_construction,
    plane_blow_up_rows,
    projective_plane_incidence,
    theoretical_bounds,
)
from .core import (
    ColoredGraph,
    FormatError,
    Graph,
    Hypergraph,
    load_hypergraph,
    save_hypergraph,
    weight,
)
from .embedding import (
    Decomposition,
    LemmaSuiteReport,
    NotBergeC4FreeError,
    ObservationReport,
    build_embedded_graph,
    decompose_hyperedge,
    validate_decomposition,
    verify_lemma_suite,
)
from .generators import random_greedy_hypergraph
from .patterns import contains_kst
from .search import (
    SearchResult,
    candidate_universe,
    max_weight_exact,
)

__version__ = "0.1.0"

__all__ = [
    "BergeCycleWitness",
    "BlowupCertificate",
    "ColoredGraph",
    "Decomposition",
    "FormatError",
    "Graph",
    "Hypergraph",
    "LemmaSuiteReport",
    "LowerBoundConstruction",
    "NotBergeC4FreeError",
    "ObservationReport",
    "PlaneIncidence",
    "SearchResult",
    "blow_up",
    "build_embedded_graph",
    "candidate_universe",
    "certify_blowup_free",
    "certify_plane_blowup_free",
    "contains_kst",
    "decompose_hyperedge",
    "find_berge_cycle",
    "find_c4_in_graph",
    "find_triangle",
    "is_berge_c4_free",
    "is_prime",
    "load_hypergraph",
    "lower_bound_construction",
    "max_weight_exact",
    "naive_berge_oracle",
    "plane_blow_up_rows",
    "projective_plane_incidence",
    "random_greedy_hypergraph",
    "save_hypergraph",
    "theoretical_bounds",
    "validate_decomposition",
    "validate_witness",
    "verify_lemma_suite",
    "weight",
]
