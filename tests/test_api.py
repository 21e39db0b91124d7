"""The package's public names: exported in order, and nothing removed comes back."""

import dataclasses
import importlib
import inspect

import pytest

import bergefree as bf

MODULES = ("bergefree",) + tuple(
    f"bergefree.{name}" for name in ("berge", "cli", "constructions", "core", "embedding",
                                     "generators", "patterns", "search"))

# The path-walk Berge-C4 state and check, the membership digraph D with its
# patterns and errors, statistics only tests used, the hyperedge-id alias of
# the removed pair_cover, the per-vertex bundle with its bipartite graph
# type, the search's row of theoretical_bounds, the neighbourhood masks
# that only tests called, the per-vertex shadow rows of the second,
# vertex-level witness walk (the witness now comes from the class walk),
# and the whole per-vertex rows the lemma checks read before they counted
# N1(v) and N2(v) in one pass each (embedding._vertex_checks owns N1 and
# N2), and the lemma suite's Observation 1 check once per hyperedge size
# and the whole-graph Observation 1 check (it holds by construction, and
# the tests' observation1_by_incidence was the same code); tests/oracles.py
# keeps what the tests still need of them.
REMOVED = ("SearchState", "incremental_c4_check", "Digraph", "Pattern", "F1", "F2",
           "contains_pattern", "build_D", "NonNeighborError", "SharedColorError",
           "shadow", "neighborhoods", "neighborhood_masks", "degree_stats", "HyperedgeId",
           "AuxBundle", "build_aux_bundle", "BipartiteGraph",
           "compare_to_bounds", "BoundsRow", "_ShadowRows", "_VertexRows", "_vertex_rows",
           "_upper_edges", "_ball", "_vertex_ids", "_check_observation1",
           "_observation1_by_size", "verify_observation1")


def test_hypergraph_has_no_pair_cover():
    # the detector reads a pair's hyperedges off two incidence masks
    assert not hasattr(bf.Hypergraph, "pair_cover")
    assert not hasattr(bf.Hypergraph(3, ({0, 1, 2},)), "pair_cover")


def test_graph_has_no_json_document():
    # no command reads or writes a Graph; ColoredGraph keeps its reader for
    # embed's output
    assert not hasattr(bf.Graph, "to_json_dict")
    assert not hasattr(bf.Graph, "from_json_dict")
    assert hasattr(bf.ColoredGraph, "from_json_dict")


def test_colored_graph_has_no_pair_index():
    # the lemma suite reads the colors of checked vertices' spokes only;
    # tests/oracles.py keeps the whole-graph index as the reference
    assert not hasattr(bf.ColoredGraph, "pair_colors")
    assert not hasattr(bf.ColoredGraph, "colors_of")


def test_removed_parameters_and_fields_are_gone():
    # the search is always exhaustive, and certify_plane_blowup_free checks a plane
    assert "exhaustive" not in {f.name for f in dataclasses.fields(bf.SearchResult)}
    assert "verify_c4_free" not in inspect.signature(bf.projective_plane_incidence).parameters


def test_plane_graph_has_one_builder():
    # PlaneIncidence.graph() reads the line lists; no bipartite detour
    assert not hasattr(bf.PlaneIncidence, "incidence")


def test_public_api_is_sorted_and_resolves():
    assert bf.__all__ == sorted(bf.__all__)
    assert len(set(bf.__all__)) == len(bf.__all__)
    for name in bf.__all__:
        assert getattr(bf, name) is not None, name


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_are_gone(module):
    namespace = importlib.import_module(module)
    assert [name for name in REMOVED if hasattr(namespace, name)] == []
