"""The package's public names: exported in order, and nothing removed comes back."""

import importlib

import pytest

import bergefree as bf

MODULES = ("bergefree",) + tuple(
    f"bergefree.{name}" for name in ("berge", "cli", "constructions", "core", "embedding",
                                     "generators", "patterns", "search"))

# The path-walk Berge-C4 state and check, the membership digraph D with its
# patterns and errors, statistics only tests used, the hyperedge-id alias of
# the removed pair_cover, and the per-vertex bundle with its bipartite graph
# type; tests/oracles.py keeps what the tests still need of them.
REMOVED = ("SearchState", "incremental_c4_check", "Digraph", "Pattern", "F1", "F2",
           "contains_pattern", "build_D", "NonNeighborError", "SharedColorError",
           "shadow", "neighborhoods", "degree_stats", "HyperedgeId",
           "AuxBundle", "build_aux_bundle", "BipartiteGraph")


def test_hypergraph_has_no_pair_cover():
    # the detector reads a pair's hyperedges off two incidence masks
    assert not hasattr(bf.Hypergraph, "pair_cover")
    assert not hasattr(bf.Hypergraph(3, ({0, 1, 2},)), "pair_cover")


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
