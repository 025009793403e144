from __future__ import annotations

import random

import pytest

from mhgfilter import (IntegrityError, MultiHypergraph, StructuralError, Vertex,
                       edge_key, index_vertices)
from oracles import brute_isomorphic, random_graph, relabel


def test_vertex_validation():
    with pytest.raises(StructuralError):
        Vertex("", "thing")
    with pytest.raises(StructuralError):
        Vertex("x", "")
    with pytest.raises(StructuralError):
        Vertex("x", "thing", 0)


def test_hyperedge_sorts_incidence():
    g = MultiHypergraph([Vertex("a", "x"), Vertex("b", "y")],
                        {("at", ("b", "a")): 1})
    assert g.edge_dict() == {("at", ("a", "b")): 1}
    assert edge_key("at", ["b", "a"]) == ("at", ("a", "b"))
    assert g.edge_multiplicity("at", ("b", "a")) == 1


def test_hyperedge_validation():
    vertices = [Vertex("a", "x")]
    for bad in ({("", ("a",)): 1}, {("at", ()): 1}, {("at", ("a",)): -1}):
        with pytest.raises(StructuralError):
            MultiHypergraph(vertices, bad)
    assert MultiHypergraph(vertices, {("at", ("a",)): 0}).edge_dict() == {}


def test_duplicate_vertex_ids_rejected():
    with pytest.raises(StructuralError):
        MultiHypergraph([Vertex("a", "x"), Vertex("a", "y")])


def test_dangling_incidence_rejected():
    with pytest.raises(StructuralError):
        MultiHypergraph([Vertex("a", "x")], {("at", ("a", "ghost")): 1})


def test_parallel_edges_merge_multiplicities():
    """Parallel edges are one key with their summed multiplicity; the same
    key given twice, in two incidence orders, is rejected (the domain
    parser sums such entries)."""
    vertices = [Vertex("a", "x"), Vertex("b", "y")]
    g = MultiHypergraph(vertices, {("at", ("a", "b")): 3})
    assert g.edge_multiplicity("at", ("b", "a")) == 3
    assert len(g.bounds) == 1
    with pytest.raises(StructuralError, match="duplicate"):
        MultiHypergraph(vertices, {("at", ("a", "b")): 1, ("at", ("b", "a")): 2})


def test_edge_queries():
    g = MultiHypergraph(
        [Vertex("a", "x"), Vertex("b", "y"), Vertex("c", "z")],
        {("at", ("a", "b")): 1, ("near", ("a", "c")): 2})
    assert g.edge_multiplicity("missing", ("a", "b")) == 0
    assert g.edge_dict() == {("at", ("a", "b")): 1, ("near", ("a", "c")): 2}
    assert g.vertex("c").label == "z"
    assert g.has_vertex("c") and not g.has_vertex("d")


def test_shifted_drops_zeros_and_validates():
    g = MultiHypergraph([Vertex("a", "x"), Vertex("b", "y")],
                        {("at", ("a", "b")): 2})
    h = g.shifted({("at", ("a", "b")): -2, ("near", ("a", "b")): 1})
    assert h.edge_dict() == {("near", ("a", "b")): 1}
    assert h == MultiHypergraph(g.layout, {("near", ("a", "b")): 1})
    with pytest.raises(StructuralError, match="unknown vertex 'zzz'"):
        g.shifted({("at", ("a", "zzz")): 1})
    with pytest.raises(StructuralError, match="below zero"):
        g.shifted({("at", ("a", "b")): -3})


def test_conservation_accepts_exact_sum():
    """A conserved vertex's multiplicity equals its conserved incidence sum."""
    g = MultiHypergraph(
        index_vertices([Vertex("agent", "agent"), Vertex("table", "table"),
                        Vertex("screw", "screw", 3)], {"at", "holds"}, {"screw"}),
        {("at", ("screw", "table")): 2, ("holds", ("agent", "screw")): 1})
    assert g.edge_multiplicity("at", ("screw", "table")) == 2


def test_conservation_rejects_bad_sum():
    with pytest.raises(IntegrityError):
        MultiHypergraph(
            index_vertices([Vertex("screw", "screw", 3), Vertex("table", "table")],
                           {"at"}, {"screw"}),
            {("at", ("screw", "table")): 2})


def test_conservation_ignores_nonparticipating_vertices():
    """Location-side vertices may have any number of incident edges."""
    g = MultiHypergraph(
        index_vertices([Vertex("table", "table"), Vertex("s1", "screw"),
                        Vertex("s2", "screw")], {"at"}, {"screw"}),
        {("at", ("s1", "table")): 1, ("at", ("s2", "table")): 1})
    # table has two incident conserved edges but multiplicity 1: fine
    assert g.vertex("table").multiplicity == 1


def test_conservation_counts_repeated_incidence():
    # a self-loop style edge mentioning the vertex twice counts twice
    g = MultiHypergraph(index_vertices([Vertex("s", "screw", 2)], {"paired"}, {"screw"}),
                        {("paired", ("s", "s")): 1})
    assert g.edge_multiplicity("paired", ("s", "s")) == 1


def test_structural_equality_and_hash():
    g1 = MultiHypergraph([Vertex("a", "x"), Vertex("b", "y")],
                         {("at", ("a", "b")): 1, ("near", ("a", "b")): 2})
    g2 = MultiHypergraph([Vertex("b", "y"), Vertex("a", "x")],
                         {("near", ("b", "a")): 2, ("at", ("b", "a")): 1})
    g3 = MultiHypergraph([Vertex("a", "x"), Vertex("b", "y")])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != g3
    assert (g1 == object()) is False
    # the same vertices and edges under another conservation declaration
    g4 = MultiHypergraph(index_vertices([Vertex("a", "x"), Vertex("b", "y")],
                                        {"at"}, {"x"}), g1.edge_dict())
    assert g1 != g4 and hash(g1) == hash(g4)
    # an edge dict rebuilds its state
    assert MultiHypergraph(g2.layout, g2.edge_dict()) == g2


def test_canonical_equality_agrees_with_brute_force():
    rng = random.Random(42)
    agree = 0
    for _ in range(120):
        g = random_graph(rng)
        h = relabel(g, rng)
        assert g.canonical_form() == h.canonical_form()
        other = random_graph(rng)
        assert ((g.canonical_form() == other.canonical_form())
                == brute_isomorphic(g, other))
        agree += 1
    assert agree == 120
