from __future__ import annotations

import pytest

from mhgfilter import (BoundedEdge, Effect, EffectEdge, EffectError,
                       Hyperedge, LiftedEffect, LiftedMultiHypergraph, Match,
                       Pattern, PatternEdge, PatternVertex, Rule, SlotTemplate,
                       StructuralError, TotalConstraint, Vertex, apply,
                       build_graph, find_matches, ground_options,
                       lifted_apply, successors)
from oracles import (ground_pushforward, lifted_distribution, tv_distance,
                     unchecked_lifted_apply)


def install_rule(slot_ids, capacity=1):
    """Retract a held screw and place it into one of the named slots."""
    return Rule(
        "install",
        Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw")),
                (PatternEdge("holds", ("A", "E")),)),
        Effect(retract=(EffectEdge("holds", ("A", "E")),)),
        LiftedEffect("installed",
                     tuple(SlotTemplate("at", ("E", s), capacity)
                           for s in slot_ids)))


def walk_rule():
    return Rule(
        "walk",
        Pattern((PatternVertex("A", "agent"), PatternVertex("X"),
                 PatternVertex("Y")),
                (PatternEdge("at", ("A", "X")), PatternEdge("adj", ("X", "Y")))),
        Effect(retract=(EffectEdge("at", ("A", "X")),),
               assert_=(EffectEdge("at", ("A", "Y")),)))


def test_pattern_validation():
    with pytest.raises(StructuralError):
        PatternVertex("")
    with pytest.raises(StructuralError):
        PatternVertex("A", min_multiplicity=0)
    with pytest.raises(StructuralError):
        PatternEdge("at", ())
    with pytest.raises(StructuralError):
        Pattern((PatternVertex("A"), PatternVertex("A")))
    with pytest.raises(StructuralError):
        Pattern((PatternVertex("A"),), (PatternEdge("at", ("A", "B")),))
    with pytest.raises(StructuralError):
        Rule("")


def test_match_access():
    m = Match((("Y", "l2"), ("X", "l1")))
    assert m.assignment == (("X", "l1"), ("Y", "l2"))
    assert m.as_dict() == {"X": "l1", "Y": "l2"}
    assert m.get("X") == "l1"
    with pytest.raises(KeyError):
        m.get("Z")


def test_find_matches_one_per_screw():
    g = build_graph(
        [Vertex("e1", "screw"), Vertex("e2", "screw"), Vertex("e3", "screw"),
         Vertex("l1", "shelf"), Vertex("l2", "desk"), Vertex("l3", "floor")],
        [Hyperedge("at", ("e1", "l1")), Hyperedge("at", ("e2", "l2")),
         Hyperedge("at", ("e3", "l3"))])
    rule = Rule("pick",
                Pattern((PatternVertex("E", "screw"), PatternVertex("L")),
                        (PatternEdge("at", ("E", "L")),)),
                Effect(retract=(EffectEdge("at", ("E", "L")),)))
    matches = find_matches(rule, g)
    assert len(matches) == 3
    assert matches == sorted(matches)
    assert {(m.get("E"), m.get("L")) for m in matches} == {
        ("e1", "l1"), ("e2", "l2"), ("e3", "l3")}


def test_matches_are_injective():
    g = build_graph([Vertex("l1", "loc")], [Hyperedge("adj", ("l1", "l1"))])
    rule = Rule("loop",
                Pattern((PatternVertex("X", "loc"), PatternVertex("Y", "loc")),
                        (PatternEdge("adj", ("X", "Y")),)))
    assert find_matches(rule, g) == []


def test_label_sets_and_wildcards():
    g = build_graph([Vertex("a", "agent"), Vertex("s", "screw", 2),
                     Vertex("t", "tool")])
    anything = Rule("any", Pattern((PatternVertex("V"),)))
    assert len(find_matches(anything, g)) == 3
    either = Rule("either",
                  Pattern((PatternVertex("V", frozenset({"screw", "tool"})),)))
    assert {m.get("V") for m in find_matches(either, g)} == {"s", "t"}
    heavy = Rule("heavy", Pattern((PatternVertex("V", min_multiplicity=2),)))
    assert {m.get("V") for m in find_matches(heavy, g)} == {"s"}


def test_infeasible_effects_filter_matches():
    g = build_graph(
        [Vertex("a", "agent"), Vertex("e", "screw")],
        [Hyperedge("at", ("a", "e"))])
    underflow = Rule(
        "grab",
        Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw")),
                (PatternEdge("at", ("A", "E")),)),
        Effect(retract=(EffectEdge("holds", ("A", "E")),)))
    assert find_matches(underflow, g) == []
    capped = Rule(
        "mark",
        Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw")),
                (PatternEdge("at", ("A", "E")),)),
        Effect(assert_=(EffectEdge("at", ("A", "E"), cap=1),)))
    assert find_matches(capped, g) == []


def test_apply_effect_errors():
    g = build_graph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2),
         Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        [Hyperedge("holds", ("a", "e")), Hyperedge("at", ("e", "s1"))])
    rule = install_rule(("s1", "s2"))
    m = Match((("A", "a"), ("E", "e")))
    with pytest.raises(EffectError):
        apply(rule, g, m)                                   # no placement
    with pytest.raises(EffectError):
        apply(rule, g, Match(m.assignment, ("holds", ("a", "e"))))
    with pytest.raises(EffectError):
        apply(rule, g, Match(m.assignment, ("at", ("e", "s1"))))  # occupied
    hungry = Rule("hungry", rule.pattern,
                  Effect(retract=(EffectEdge("holds", ("A", "E"), 2),)))
    with pytest.raises(EffectError):
        apply(hungry, g, m)


def test_ground_options_expand_free_slots():
    g = build_graph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2),
         Vertex("s1", "slot_a"), Vertex("s2", "slot_b"), Vertex("s3", "slot_c")],
        [Hyperedge("holds", ("a", "e")), Hyperedge("at", ("e", "s1"))])
    options = ground_options(install_rule(("s1", "s2", "s3")), g)
    assert [m.placement for m in options] == [("at", ("e", "s2")),
                                              ("at", ("e", "s3"))]
    roomy = install_rule(("s1", "s2", "s3"), capacity=2)
    assert len(ground_options(roomy, g)) == 3


def test_successors_merge_symmetric_options():
    g = build_graph(
        [Vertex("a", "agent"), Vertex("e", "screw"),
         Vertex("s1", "slot"), Vertex("s2", "slot")],
        [Hyperedge("holds", ("a", "e"))])
    succ = successors(install_rule(("s1", "s2")), g)
    assert len(succ) == 1
    state, p = succ[0]
    assert p == 1.0
    assert state.edge_multiplicity("holds", ("a", "e")) == 0
    assert successors(walk_rule(), g) == []


def check_against_ground(rule, l):
    res = lifted_apply(rule, l)
    dist, n_app, n_tot = ground_pushforward(rule, l)
    assert (res.n_applicable, res.n_groundings) == (n_app, n_tot)
    assert tv_distance(lifted_distribution(res.outputs), dist) < 1e-12
    return res


def member_state():
    """One screw installed somewhere in the group {s1, s2}; s3 untouched."""
    return LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2), Vertex("s1", "slot_a"),
         Vertex("s2", "slot_b"), Vertex("s3", "slot_c")],
        [Hyperedge("holds", ("a", "e"))],
        [BoundedEdge("at", ("e", "s1"), 0, 1), BoundedEdge("at", ("e", "s2"), 0, 1)],
        [TotalConstraint("installed",
                         frozenset({("at", ("e", "s1")), ("at", ("e", "s2"))}), 1)])


def test_lifted_apply_slot_aggregation():
    res = check_against_ground(install_rule(("s1", "s2", "s3")), member_state())
    assert res.n_applicable == res.n_groundings == 2
    assert len(res.outputs) == 2
    assert abs(sum(w for _, w in res.outputs) - 1.0) < 1e-12


def test_lifted_apply_creates_fresh_group():
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw"), Vertex("s1", "slot_a"),
         Vertex("s2", "slot_b"), Vertex("s3", "slot_c")],
        [Hyperedge("holds", ("a", "e"))])
    res = check_against_ground(install_rule(("s1", "s2", "s3")), l)
    assert len(res.outputs) == 1
    state, p = res.outputs[0]
    assert p == 1.0
    assert len(state.constraints) == 1
    assert state.constraints[0].total == 1
    assert len(state.constraints[0].edge_keys) == 3
    assert state.count_groundings() == 3


def test_lifted_apply_shifts_untouched_bounds():
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("l1", "desk"), Vertex("l2", "shelf"),
         Vertex("e", "screw", 2), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        [Hyperedge("at", ("a", "l1")), Hyperedge("adj", ("l1", "l2"))],
        [BoundedEdge("at", ("e", "s1"), 0, 2), BoundedEdge("at", ("e", "s2"), 0, 2)],
        [TotalConstraint("installed",
                         frozenset({("at", ("e", "s1")), ("at", ("e", "s2"))}), 2)])
    res = check_against_ground(walk_rule(), l)
    assert res.n_applicable == res.n_groundings == 3
    assert len(res.outputs) == 1
    state, p = res.outputs[0]
    assert p == 1.0
    assert state.fixed_multiplicity("at", ("a", "l2")) == 1
    assert state.fixed_multiplicity("at", ("a", "l1")) == 0
    assert state.bounded_edges == l.bounded_edges


def test_lifted_apply_falls_back_on_partial_applicability():
    l = member_state()
    picky = Rule(
        "uninstall_a",
        Pattern((PatternVertex("E", "screw"), PatternVertex("S", "slot_a")),
                (PatternEdge("at", ("E", "S")),)),
        Effect(retract=(EffectEdge("at", ("E", "S")),),
               assert_=(EffectEdge("loose", ("E",)),)))
    res = lifted_apply(picky, l)
    dist, n_app, n_tot = ground_pushforward(picky, l)
    assert (n_app, n_tot) == (1, 2)
    assert (res.n_applicable, res.n_groundings) == (1, 2)
    assert tv_distance(lifted_distribution(res.outputs), dist) < 1e-12


def test_lifted_apply_falls_back_on_roomy_slots():
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2), Vertex("s1", "slot_a")],
        [Hyperedge("holds", ("a", "e")), Hyperedge("at", ("e", "s1"))])
    res = check_against_ground(install_rule(("s1",), capacity=2), l)
    assert res.n_applicable == res.n_groundings == 1
    assert res.outputs[0][0].fixed_multiplicity("at", ("e", "s1")) == 2


def test_lifted_apply_empty_and_inapplicable():
    empty = LiftedMultiHypergraph(
        [Vertex("a", "x")],
        bounded_edges=[BoundedEdge("at", ("a",), 0, 1)],
        constraints=[TotalConstraint("g", frozenset({("at", ("a",))}), 5)])
    assert lifted_apply(walk_rule(), empty) == (
        lifted_apply(walk_rule(), empty))
    assert lifted_apply(walk_rule(), empty).n_groundings == 0
    idle = member_state()
    res = lifted_apply(walk_rule(), idle)
    assert res.outputs == ()
    assert res.n_applicable == 0
    assert res.n_groundings == 2


def test_unchecked_effect_diverges_from_exact():
    rule = install_rule(("s1", "s2"))
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2), Vertex("s1", "slot_a"),
         Vertex("s2", "slot_b")],
        [Hyperedge("holds", ("a", "e"))],
        [BoundedEdge("at", ("e", "s1"), 0, 1), BoundedEdge("at", ("e", "s2"), 0, 1)],
        [TotalConstraint("installed",
                         frozenset({("at", ("e", "s1")), ("at", ("e", "s2"))}), 1)])
    res = unchecked_lifted_apply(rule, l)
    dist, _, _ = ground_pushforward(rule, l)
    gap = tv_distance(lifted_distribution(res.outputs), dist)
    assert gap > 0.1
    exact = lifted_apply(rule, l)
    assert tv_distance(lifted_distribution(exact.outputs), dist) < 1e-12
