from __future__ import annotations

import itertools
import logging

import pytest

from mhgfilter import (Effect, EffectEdge, EffectError, LiftedMultiHypergraph,
                       Match, MultiHypergraph, Pattern, PatternEdge, PatternVertex,
                       Rule, StructuralError, Vertex, apply, builtin_domain,
                       edge_key, ground_options, lifted_apply, successors)
from oracles import (BruteSide, fresh_layout, ground_pushforward, lifted_distribution,
                     lifted_state, tv_distance, unchecked_lifted_apply)


def install_rule(slot_labels, capacity=1):
    """Retract a held screw and place it into a slot with one of the labels."""
    return Rule(
        "install",
        Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw"),
                 PatternVertex("SL", frozenset(slot_labels))),
                (PatternEdge("holds", ("A", "E")),)),
        Effect(retract=(EffectEdge("holds", ("A", "E")),),
               assert_=(EffectEdge("at", ("E", "SL"), cap=capacity),)))


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


def test_edge_multiplicities_and_caps_are_checked():
    with pytest.raises(StructuralError, match="min multiplicity < 1"):
        PatternEdge("at", ("A", "B"), min_multiplicity=0)
    with pytest.raises(StructuralError, match="multiplicity < 1"):
        EffectEdge("at", ("A", "B"), multiplicity=0)
    with pytest.raises(StructuralError, match="negative cap"):
        EffectEdge("at", ("A", "B"), cap=-1)
    assert EffectEdge("at", ("A", "B"), cap=0).cap == 0


def test_match_access():
    m = Match((("Y", "l2"), ("X", "l1")))
    assert m.assignment == (("X", "l1"), ("Y", "l2"))
    assert m.as_dict() == {"X": "l1", "Y": "l2"}
    assert m.get("X") == "l1"
    with pytest.raises(KeyError):
        m.get("Z")


def test_find_matches_one_per_screw():
    g = MultiHypergraph(
        [Vertex("e1", "screw"), Vertex("e2", "screw"), Vertex("e3", "screw"),
         Vertex("l1", "shelf"), Vertex("l2", "desk"), Vertex("l3", "floor")],
        {("at", ("e1", "l1")): 1, ("at", ("e2", "l2")): 1, ("at", ("e3", "l3")): 1})
    rule = Rule("pick",
                Pattern((PatternVertex("E", "screw"), PatternVertex("L")),
                        (PatternEdge("at", ("E", "L")),)),
                Effect(retract=(EffectEdge("at", ("E", "L")),)))
    matches = ground_options(rule, g)
    assert len(matches) == 3
    assert matches == sorted(matches)
    assert {(m.get("E"), m.get("L")) for m in matches} == {
        ("e1", "l1"), ("e2", "l2"), ("e3", "l3")}


def test_matches_are_injective():
    g = MultiHypergraph([Vertex("l1", "loc")], {("adj", ("l1", "l1")): 1})
    rule = Rule("loop",
                Pattern((PatternVertex("X", "loc"), PatternVertex("Y", "loc")),
                        (PatternEdge("adj", ("X", "Y")),)))
    assert ground_options(rule, g) == []


def test_label_sets_and_wildcards():
    g = MultiHypergraph([Vertex("a", "agent"), Vertex("s", "screw", 2),
                         Vertex("t", "tool")])
    anything = Rule("any", Pattern((PatternVertex("V"),)))
    assert len(ground_options(anything, g)) == 3
    either = Rule("either",
                  Pattern((PatternVertex("V", frozenset({"screw", "tool"})),)))
    assert {m.get("V") for m in ground_options(either, g)} == {"s", "t"}
    heavy = Rule("heavy", Pattern((PatternVertex("V", min_multiplicity=2),)))
    assert {m.get("V") for m in ground_options(heavy, g)} == {"s"}


def test_infeasible_effects_filter_matches():
    g = MultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw")],
        {("at", ("a", "e")): 1})
    underflow = Rule(
        "grab",
        Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw")),
                (PatternEdge("at", ("A", "E")),)),
        Effect(retract=(EffectEdge("holds", ("A", "E")),)))
    assert ground_options(underflow, g) == []
    capped = Rule(
        "mark",
        Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw")),
                (PatternEdge("at", ("A", "E")),)),
        Effect(assert_=(EffectEdge("at", ("A", "E"), cap=1),)))
    assert ground_options(capped, g) == []


def test_apply_effect_errors():
    g = MultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2),
         Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        {("holds", ("a", "e")): 1, ("at", ("e", "s1")): 1})
    rule = install_rule(("slot_a", "slot_b"))
    m = Match((("A", "a"), ("E", "e"), ("SL", "s1")))
    with pytest.raises(EffectError):
        apply(rule, g, m)                                   # occupied: cap
    hungry = Rule("hungry", rule.pattern,
                  Effect(retract=(EffectEdge("holds", ("A", "E"), 2),)))
    with pytest.raises(EffectError):
        apply(hungry, g, m)


def test_apply_fires_only_at_a_match():
    """``apply`` takes its assignment from the caller.  One that swaps two
    variables, binds two variables to one vertex, binds a vertex outside a
    variable's candidates, or binds too few, too many or one variable twice
    raises EffectError and leaves the rule's caches as they were.  A binding
    whose pattern edges the state lacks raises too."""
    g = MultiHypergraph([Vertex("a", "agent"), Vertex("e", "screw")],
                        {("holds", ("a", "e")): 1})
    drop = Rule("drop", Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw")),
                                (PatternEdge("holds", ("A", "E")),)),
                Effect(retract=(EffectEdge("holds", ("A", "E")),),
                       assert_=(EffectEdge("at", ("E", "a")),)))
    [m] = ground_options(drop, g)
    assert apply(drop, g, m).edge_dict() == {("at", ("a", "e")): 1}
    bad = [(drop, g, (("A", "e"), ("E", "a")))]           # holds(a, e) either way
    mini = builtin_domain("mini")
    start = mini.initial_state.groundings()[0]             # agent on the floor
    walk, take = mini.rule("walk"), mini.rule("take")
    bad += [(walk, start, (("A", "agent"), ("X", "floor"), ("Y", "floor"))),
            (take, start, (("A", "agent"), ("I", "eccentric"), ("L", "eccentric"))),
            (take, start, (("A", "agent"), ("I", "eccentric"))),
            (take, start, (("A", "agent"), ("I", "eccentric"), ("L", "floor"),
                           ("X", "table"))),
            (walk, start, (("A", "agent"), ("X", "floor"), ("X", "table"),
                           ("Y", "floor")))]
    for rule, state, assignment in bad:
        for m in ground_options(rule, state):               # compiles, fills keys
            apply(rule, state, m)
        compiled = state.layout.compiled[id(rule)]
        before = dict(compiled.keys), dict(compiled.pattern_keys)
        for _ in range(2):
            with pytest.raises(EffectError, match="does not bind each pattern variable"):
                apply(rule, state, Match(assignment))
        assert (compiled.keys, compiled.pattern_keys) == before, assignment
    with pytest.raises(EffectError, match="is not a match"):
        apply(take, start, Match((("A", "agent"), ("I", "eccentric"), ("L", "floor"))))


def test_ground_options_expand_free_slots():
    g = MultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2),
         Vertex("s1", "slot_a"), Vertex("s2", "slot_b"), Vertex("s3", "slot_c")],
        {("holds", ("a", "e")): 1, ("at", ("e", "s1")): 1})
    options = ground_options(install_rule(("slot_a", "slot_b", "slot_c")), g)
    assert [m.get("SL") for m in options] == ["s2", "s3"]
    roomy = install_rule(("slot_a", "slot_b", "slot_c"), capacity=2)
    assert len(ground_options(roomy, g)) == 3


def test_successors_merge_symmetric_options():
    g = MultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw"),
         Vertex("s1", "slot"), Vertex("s2", "slot")],
        {("holds", ("a", "e")): 1})
    succ = successors(install_rule(("slot",)), g)
    assert len(succ) == 1
    state, p = succ[0]
    assert p == 1.0
    assert state.edge_multiplicity("holds", ("a", "e")) == 0
    assert successors(walk_rule(), g) == []


def check_against_ground(rule, l):
    res = lifted_apply(rule, l)
    dist, n_app, n_tot = ground_pushforward(rule, l)
    assert (res.n_applicable, res.n_groundings) == (n_app, n_tot)
    assert tv_distance(lifted_distribution(res.outputs()), dist) < 1e-12
    return res


def member_state():
    """One screw installed somewhere in the group {s1, s2}; s3 untouched."""
    return LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2), Vertex("s1", "slot_a"),
         Vertex("s2", "slot_b"), Vertex("s3", "slot_c")],
        {("at", ("e", "s1")): (0, 1), ("at", ("e", "s2")): (0, 1),
         ("holds", ("a", "e")): (1, 1)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 1)])


def test_lifted_apply_slot_aggregation():
    res = check_against_ground(install_rule(("slot_a", "slot_b", "slot_c")),
                               member_state())
    assert res.n_applicable == res.n_groundings == 2
    assert len(res.outputs()) == 2
    assert abs(sum(w for _, w in res.outputs()) - 1.0) < 1e-12


def test_lifted_apply_creates_fresh_group():
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw"), Vertex("s1", "slot_a"),
         Vertex("s2", "slot_b"), Vertex("s3", "slot_c")],
        {("holds", ("a", "e")): (1, 1)})
    res = check_against_ground(install_rule(("slot_a", "slot_b", "slot_c")), l)
    assert len(res.outputs()) == 1
    state, p = res.outputs()[0]
    assert p == 1.0
    [group] = state._groups()
    assert group.total == 1
    assert len(group.edge_keys) == 3
    assert state.count_groundings() == 3


def test_lifted_apply_shifts_untouched_bounds():
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("l1", "desk"), Vertex("l2", "shelf"),
         Vertex("e", "screw", 2), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        {("at", ("e", "s1")): (0, 2), ("at", ("e", "s2")): (0, 2),
         ("at", ("a", "l1")): (1, 1), ("adj", ("l1", "l2")): (1, 1)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 2)])
    res = check_against_ground(walk_rule(), l)
    assert res.n_applicable == res.n_groundings == 3
    assert len(res.outputs()) == 1
    state, p = res.outputs()[0]
    assert p == 1.0
    assert state.multiplicity_bounds(("at", ("a", "l2"))) == (1, 1)
    assert state.multiplicity_bounds(("at", ("a", "l1"))) == (0, 0)
    assert ({k: b for k, b in state.bounds.items() if b[0] < b[1]}
            == {k: b for k, b in l.bounds.items() if b[0] < b[1]})


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
    assert tv_distance(lifted_distribution(res.outputs()), dist) < 1e-12


def test_lifted_apply_falls_back_on_roomy_slots():
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2), Vertex("s1", "slot_a")],
        {("holds", ("a", "e")): (1, 1), ("at", ("e", "s1")): (1, 1)})
    res = check_against_ground(install_rule(("slot_a",), capacity=2), l)
    assert res.n_applicable == res.n_groundings == 1
    assert res.outputs()[0][0].multiplicity_bounds(("at", ("e", "s1"))) == (2, 2)


def test_lifted_apply_falls_back_on_slot_keys_in_two_groups(caplog):
    """One screw sits in {s1, s2} and one in {s3, s4}: the install's slot
    keys lie in two groups, which no plan step regroups, so the rule takes
    the exact fallback."""
    slots = ("s1", "s2", "s3", "s4")
    at = [("at", ("e", s)) for s in slots]
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 3)]
        + [Vertex(s, "slot") for s in slots],
        {**dict.fromkeys(at, (0, 1)), ("holds", ("a", "e")): (1, 1)},
        [(at[:2], 1), (at[2:], 1)])
    with caplog.at_level(logging.DEBUG, logger="mhgfilter"):
        res = check_against_ground(install_rule(("slot",)), l)
    assert "fallback, slot keys in several groups" in caplog.text
    assert res.groundings is not None
    assert res.n_applicable == res.n_groundings == 4


def test_lifted_apply_empty_and_inapplicable():
    empty = LiftedMultiHypergraph([Vertex("a", "x")], {("at", ("a",)): (0, 1)},
                                  [({("at", ("a",))}, 5)])
    assert lifted_apply(walk_rule(), empty) == (
        lifted_apply(walk_rule(), empty))
    assert lifted_apply(walk_rule(), empty).n_groundings == 0
    idle = member_state()
    res = lifted_apply(walk_rule(), idle)
    assert res.outputs() == ()
    assert res.n_applicable == 0
    assert res.n_groundings == 2


def test_unchecked_effect_diverges_from_exact():
    rule = install_rule(("slot_a", "slot_b"))
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("e", "screw", 2), Vertex("s1", "slot_a"),
         Vertex("s2", "slot_b")],
        {("at", ("e", "s1")): (0, 1), ("at", ("e", "s2")): (0, 1),
         ("holds", ("a", "e")): (1, 1)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 1)])
    res = unchecked_lifted_apply(rule, l)
    dist, _, _ = ground_pushforward(rule, l)
    gap = tv_distance(lifted_distribution(res.outputs()), dist)
    assert gap > 0.1
    exact = lifted_apply(rule, l)
    assert tv_distance(lifted_distribution(exact.outputs()), dist) < 1e-12


def test_feasibility_reads_the_binding_bound_of_each_edge():
    """A retract and a cap on two free [0,1] edges: the rule fires only where
    fuel is 1 and mark is 0, in one of the four groundings, so the count is
    partial; neither all-lower nor all-upper bounds would see that."""
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("x", "thing")],
        {("fuel", ("a",)): (0, 1), ("mark", ("x",)): (0, 1)})
    spend = Rule("spend",
                 Pattern((PatternVertex("A", "agent"), PatternVertex("X", "thing"))),
                 Effect(retract=(EffectEdge("fuel", ("A",)),),
                        assert_=(EffectEdge("mark", ("X",), cap=1),)))
    _, n_app, n_tot = ground_pushforward(spend, l)
    assert (n_app, n_tot) == (1, 4)
    check_against_ground(spend, l)


def test_find_matches_fire_in_every_grounding():
    """A capped assert onto a [0,1] group member fires in one of the two
    groundings, so the match is not applicable in every grounding."""
    keys = [("mark", ("a", "s1")), ("mark", ("a", "s2"))]
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent"), Vertex("s1", "slot"), Vertex("s2", "slot")],
        dict.fromkeys(keys, (0, 1)), [(keys, 1)])
    rule = Rule("mark_s1", Pattern((PatternVertex("A", "agent"),)),
                Effect(assert_=(EffectEdge("mark", ("A", "s1"), cap=1),)))
    _, n_app, n_tot = ground_pushforward(rule, l)
    assert (n_app, n_tot) == (1, 2)
    assert ground_options(rule, l) == []
    check_against_ground(rule, l)


def slot_scene(draw):
    """A small install scene for the match aggregation, drawn with
    ``draw(strategy)``: 2-6 slots with shared or distinct labels, one or two
    screws (the second the first's twin or not), pre-filled slots, an
    optional [0,1] group over some of the first screw's slots (possibly over
    slots the rule cannot reach), an optional helper variable over slots and
    tools, which reaches some slots by fewer matches than others, and an
    optional extra retract, assert, or retract and assert of one key, of
    multiplicity 1 or 2, on a bounded key or a slot key (a pre-filled one
    when retracted).  The install assert is uncapped one time in three, so
    the rule has no slot edge and each match shifts on its own, and the
    pattern sometimes reads the bounded ``tag`` key, so the match may hold
    in only some groundings."""
    from hypothesis import strategies as st

    n = draw(st.integers(2, 6))
    slots = [f"s{i}" for i in range(n)]
    labels = [f"slot_{draw(st.integers(0, 2 * n - 1))}" for _ in slots]
    screws = ["e1", "e2"][:draw(st.sampled_from([1, 2, 2]))]
    # e2 is e1's twin or tells apart from it by multiplicity
    mults = {"e1": 3, "e2": draw(st.sampled_from([2, 3]))}
    pairs = [(e, s) for e in screws for s in slots]
    filled = draw(st.sets(st.sampled_from(pairs), max_size=2))
    tag_lo = draw(st.integers(0, 1))
    tag_up = tag_lo + draw(st.integers(0, 2))
    bounded = {("tag", ("a",)): (tag_lo, tag_up)}
    groups = []
    if draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(slots), min_size=2, unique=True))
        keys = [("at", ("e1", s)) for s in members]
        bounded.update(dict.fromkeys(keys, (0, 1)))
        groups.append((keys, draw(st.integers(1, len(members) - 1))))
    tools = [Vertex(f"t{i}", "tool") for i in range(draw(st.integers(0, 2)))]
    l = lifted_state(
        [Vertex("a", "agent")] + [Vertex(e, "screw", mults[e]) for e in screws]
        + [Vertex(s, label) for s, label in zip(slots, labels)] + tools,
        {("holds", ("a", e)): 1 for e in screws} | {("at", pair): 1 for pair in filled},
        bounded, groups)

    label_set = sorted(set(labels))
    reach = st.one_of(st.just(frozenset(label_set)),
                      st.frozensets(st.sampled_from(label_set), min_size=1))
    pattern = [PatternVertex("A", "agent"), PatternVertex("E", "screw"),
               PatternVertex("SL", draw(reach))]
    if draw(st.booleans()):
        helper = st.frozensets(st.sampled_from(label_set + ["tool"]), min_size=1)
        pattern.append(PatternVertex("H", draw(helper)))
    retract = [EffectEdge("holds", ("A", "E"))]
    assert_ = [EffectEdge("at", ("E", "SL"), cap=draw(st.sampled_from([1, 1, None])))]
    extra = draw(st.sampled_from(["none", "retract", "assert", "both"]))
    if extra != "none":
        # a retract mostly targets a key that some grounding holds
        slot_keys = ([("at", ("E", s)) for s in slots] if extra == "assert" else
                     [key for e, s in sorted(filled) for key in
                      (("at", ("E", s)), ("at", (e, s)))])
        target = draw(st.sampled_from([("tag", ("A",))] + slot_keys))
        mult = draw(st.integers(1, 2))
        if extra != "assert":
            retract.append(EffectEdge(*target, mult))
        if extra != "retract":
            assert_.append(EffectEdge(*target, mult,
                                      draw(st.sampled_from([None, 1, 2]))))
    reads = [PatternEdge("holds", ("A", "E"))]
    tag_min = min(draw(st.sampled_from([0, 0, 0, 1, 2])), tag_up)
    if tag_min:
        reads.append(PatternEdge("tag", ("A",), tag_min))
    rule = Rule("install", Pattern(tuple(pattern), tuple(reads)),
                Effect(tuple(retract), tuple(assert_)))
    return rule, l


def test_match_aggregation_equals_ground_pushforward():
    """On random install scenes the lifted application equals the ground
    pushforward to 1e-12, and both lifted counts equal the ground counts."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=250, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.composite(slot_scene)())
    def check(scene):
        rule, l = scene
        dist, n_app, n_tot = ground_pushforward(rule, l)
        res = lifted_apply(rule, l)
        assert (res.n_applicable, res.n_groundings) == (n_app, n_tot)
        assert tv_distance(lifted_distribution(res.outputs()), dist) <= 1e-12

    check()


def rebuilt(l, layout):
    """The state the constructor builds from ``l``'s maps over ``layout``."""
    return LiftedMultiHypergraph(layout, l.bounds, [
        (c.edge_keys, c.total) for c in {l.group_of(k) for k in l.bounds} - {None}])


def test_a_plan_is_memoised_by_state_content(caplog):
    """On random install scenes, a state the constructor rebuilds from a
    planned state's maps gets the very plan the first one stored, and that
    plan equals the one planned afresh over a new layout.  A fallback is
    not stored: the rebuilt state enumerates its groundings again and logs
    its reason again."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.composite(slot_scene)())
    def check(scene):
        rule, l = scene
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="mhgfilter"):
            first = lifted_apply(rule, l)
            again = lifted_apply(rule, rebuilt(l, l.layout))
        fresh = lifted_apply(rule, rebuilt(l, fresh_layout(l)))
        assert (again.n_applicable, again.n_groundings) == (first.n_applicable,
                                                              first.n_groundings)
        if first.groundings is None:
            assert again.plan is first.plan
            assert fresh.plan == first.plan
            assert not first.plan or fresh.plan is not first.plan
            assert caplog.messages == []
        else:
            assert again.groundings == first.groundings
            assert len(caplog.messages) == 2
            assert caplog.messages[0] == caplog.messages[1]
            assert caplog.messages[0].startswith(f"lifted_apply {rule.name!r}: fallback, ")

    check()


def condition_scene(draw):
    """A ``slot_scene`` with exact-count conditions for its ``outputs``,
    drawn with ``draw(strategy)``: each sums the orbit of its drawn keys
    under the vertex permutations that keep labels and multiplicities, as
    the domain's held counts sum over a whole label.  Drawing reads the
    scene's outputs once."""
    from hypothesis import strategies as st

    rule, l = slot_scene(draw)
    alike = {}
    for v in l.vertices:
        alike.setdefault((v.label, v.multiplicity), []).append(v.id)
    twins = {v.id: alike[v.label, v.multiplicity] for v in l.vertices}
    screws = [e for e in ("e1", "e2") if l.has_vertex(e)]
    keys = ([("holds", ("a", e)) for e in screws]
            + [("at", (e, v.id)) for e in screws for v in l.vertices
               if v.label.startswith("slot_")] + [("tag", ("a",))])
    # mostly require what one successor's grounding g has, on keys that
    # g holds, so that the conditions keep some successors and drop others
    outputs = lifted_apply(rule, l).outputs()
    g = None
    if outputs and draw(st.integers(0, 3)):
        state = draw(st.sampled_from(outputs))[0]
        g = draw(st.sampled_from(list(state.iter_groundings())))
    pool = [k for k in keys if g is not None and g.edge_multiplicity(*k)] or keys
    conds = []
    for _ in range(draw(st.integers(1, 3))):
        drawn = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                              unique=True))
        orbit = tuple(sorted({edge_key(label, ids) for label, inc in drawn
                              for ids in itertools.product(*(twins[v] for v in inc))}))
        conds.append((orbit, draw(st.integers(0, 2)) if g is None
                      else sum(g.edge_multiplicity(*k) for k in orbit)))
    return rule, l, conds


def test_condition_prune_drops_only_dead_successors():
    """With a side that excludes by brute force the plan steps whose every
    grounding misses a condition, ``outputs`` returns, bit for bit, the
    outputs it returns without one, less some whose every grounding misses
    a condition.

    Each condition sums the orbit of its drawn keys under the vertex
    permutations that keep labels and multiplicities, as the domain's held
    counts sum over a whole label: isomorphic successors merge, so only
    conditions with one verdict on all of them can be imposed early."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    def live(state, conds):
        return any(all(sum(g.edge_multiplicity(*k) for k in keys) == required
                       for keys, required in conds)
                   for g in state.iter_groundings())

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=250, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.composite(condition_scene)())
    def check(scene):
        rule, l, conds = scene
        t = lifted_apply(rule, l)
        full, pruned = t.outputs(), t.outputs(BruteSide(conds))
        entries = [(s.canonical_form().data, repr(p)) for s, p in full]
        kept = [(s.canonical_form().data, repr(p)) for s, p in pruned]
        assert kept == [e for e in entries if e in kept]
        assert all(e in kept for e, (s, _) in zip(entries, full) if live(s, conds))

    check()


def test_condition_prune_on_every_kind_of_plan_step():
    """A ``mark`` plan with a grown-group step (pen), a fresh-group step
    (cup) and a single-empty step (key): for each successor, a brute-force
    side of conditions that only it can meet makes ``outputs`` return
    exactly that successor, with the same bytes and probability as without
    a side."""
    items, slots = ("pen", "cup", "key"), ("s1", "s2", "s3")

    def mark(item, slot):
        return ("mark", tuple(sorted((item, slot))))

    pen_keys = frozenset(mark("pen", s) for s in slots)
    l = LiftedMultiHypergraph(
        [Vertex("a", "agent")] + [Vertex(i, i) for i in items]
        + [Vertex(s, f"slot_{s}") for s in slots],
        dict.fromkeys(pen_keys, (0, 1))
        | dict.fromkeys([("holds", ("a", i)) for i in items]
                        + [mark("cup", "s3"), mark("key", "s2"), mark("key", "s3")],
                        (1, 1)),
        [(pen_keys, 1)])
    rule = Rule(
        "mark",
        Pattern((PatternVertex("A", "agent"), PatternVertex("I", frozenset(items)),
                 PatternVertex("S", frozenset(f"slot_{s}" for s in slots))),
                (PatternEdge("holds", ("A", "I")),)),
        Effect(retract=(EffectEdge("holds", ("A", "I")),),
               assert_=(EffectEdge("mark", ("I", "S"), cap=1),)))
    full = check_against_ground(rule, l)
    assert full.n_applicable == full.n_groundings == 3

    def entry(state, p):
        return state.canonical_form().data, repr(p)

    entries = {entry(*out) for out in full.outputs()}
    assert sorted(p for _, p in full.outputs()) == [0.2, 0.4, 0.4]
    only = {
        "pen": [((("holds", ("a", "pen")),), 0)],
        "cup": [((mark("cup", "s1"), mark("cup", "s2")), 1)],
        "key": [((mark("key", "s1"),), 1)],
    }
    kept = set()
    for item, conds in only.items():
        pruned = full.outputs(BruteSide(conds))
        assert len(pruned) == 1
        state, p = pruned[0]
        assert entry(state, p) in entries
        assert state.multiplicity_bounds(("holds", ("a", item))) == (0, 0)
        kept.add(entry(state, p))
    assert kept == entries


def described(outputs) -> list[tuple]:
    """Each successor's class, bounds map, groups, emptiness and canonical
    bytes, with the ``repr`` of its probability."""
    return [(type(s), s.bounds, {s.group_of(k) for k in s.bounds} - {None},
             s.is_empty, s.canonical_form().data, repr(p)) for s, p in outputs]


def test_a_memoised_successor_is_the_state_a_fresh_layout_derives():
    """On random install scenes, with and without a brute-force side of
    conditions: successors that a rebuilt equal-content state reads from
    the memo are the states that the cold read and a fresh layout derive,
    down to class, maps, groups, emptiness, canonical bytes and weights,
    and each comes with the content memo of the one ``shifted`` derived."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    reused = 0

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.composite(condition_scene)(), st.booleans())
    def check(scene, conditioned):
        nonlocal reused
        rule, drawn, conds = scene
        side = BruteSide(conds) if conditioned else None
        l = rebuilt(drawn, fresh_layout(drawn))     # drawing read its outputs
        cold = lifted_apply(rule, l).outputs(side)
        warm = lifted_apply(rule, rebuilt(l, l.layout))
        fresh = lifted_apply(rule, rebuilt(l, fresh_layout(l)))
        assert described(warm.outputs(side)) == described(cold)
        assert described(warm.outputs(side)) == described(fresh.outputs(side))
        assert described(warm.outputs()) == described(fresh.outputs())
        for (a, _), (b, _) in zip(cold, warm.outputs(side)):
            if warm.groundings is None:     # attached, not looked up again
                assert b._memo is a.content_memo()
                reused += 1
            assert b.content_memo() is a.content_memo()
    check()
    assert reused >= 100


def test_a_ground_state_and_its_lifted_twin_keep_their_classes_and_forms():
    """A ground state and its ``from_graph`` twin share one content memo,
    and so one plan and one set of successor parts per rule.  Read in
    either order, the ground state's successors are ground, with the
    ``0x01`` form, until a key is bounded, and the twin's are lifted, with
    the ``0x02`` form, as over a fresh layout; each state keeps its own
    form version."""
    vertices = [Vertex("a", "agent"), Vertex("e", "screw"), Vertex("x", "x"),
                Vertex("y", "y"), Vertex("z", "z"), Vertex("s1", "slot"),
                Vertex("s2", "slot")]
    edges = {("at", ("a", "x")): 1, ("adj", ("x", "y")): 1, ("adj", ("x", "z")): 1,
             ("holds", ("a", "e")): 1}
    rules = (walk_rule(), install_rule(["slot"]))

    def kinds(outputs):
        return [(type(s), s.canonical_form().data[0]) for s, _ in outputs]

    for ground_first in (True, False):
        g = MultiHypergraph(vertices, edges)
        twin = LiftedMultiHypergraph.from_graph(g)
        assert twin.content_memo() is g.content_memo()
        for state in (g, twin) if ground_first else (twin, g):
            layout = fresh_layout(state)
            alone = (MultiHypergraph(layout, edges) if state is g
                     else LiftedMultiHypergraph.from_graph(MultiHypergraph(layout, edges)))
            for rule in rules:
                out, expected = lifted_apply(rule, state), lifted_apply(rule, alone)
                assert described(out.outputs()) == described(expected.outputs())
        assert (g.canonical_form().data[0], twin.canonical_form().data[0]) == (1, 2)
        assert kinds(lifted_apply(rules[0], g).outputs()) == [(MultiHypergraph, 1)] * 2
        assert kinds(lifted_apply(rules[1], g).outputs()) == [(LiftedMultiHypergraph, 2)]
        assert kinds(lifted_apply(rules[0], twin).outputs()) == [
            (LiftedMultiHypergraph, 2)] * 2


def test_a_failed_shift_stores_no_successor(monkeypatch):
    """When ``shifted`` raises while ``outputs`` builds a successor, the
    memo keeps no parts for it, and the next read builds it afresh."""
    l = member_state()
    rule = install_rule(("slot_a", "slot_b", "slot_c"))
    real = LiftedMultiHypergraph.shifted

    def failing(*args):
        raise StructuralError("shift failed")

    monkeypatch.setattr(LiftedMultiHypergraph, "shifted", failing)
    with pytest.raises(StructuralError):
        lifted_apply(rule, l).outputs()
    plan, built = l.content_memo()[id(rule)]
    assert len(plan) == 2 and built == [None, None]
    monkeypatch.setattr(LiftedMultiHypergraph, "shifted", real)
    assert described(lifted_apply(rule, l).outputs()) == described(
        lifted_apply(rule, rebuilt(l, fresh_layout(l))).outputs())
    assert None not in built


def test_an_empty_successor_is_rebuilt_empty():
    """The parts of the empty state rebuild the empty state, whose memo is
    its own, never an edgeless state's."""
    l = member_state()
    empty = l.conditioned(("at", ("e", "s1")), 2)
    assert empty.is_empty
    again = l._rebuilt(empty._parts())
    assert again.is_empty and again.count_groundings() == 0
    edgeless = LiftedMultiHypergraph(l.layout)
    assert again.content_memo() is not edgeless.content_memo()
    assert again.canonical_form() == empty.canonical_form() != edgeless.canonical_form()
