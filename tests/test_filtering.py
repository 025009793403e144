from __future__ import annotations

import gc
import logging
import math
import random
import weakref
from dataclasses import replace

import pytest

from mhgfilter import (ActionModel, AnnotationTuple, Belief, Domain, Effect,
                       EffectEdge, IntegrityError, LiftedApplyResult,
                       LiftedMultiHypergraph, MultiHypergraph, Pattern,
                       PatternEdge, PatternVertex, Rule,
                       TraceInconsistencyError, Vertex, agent_location,
                       builtin_domain, compare, filter_trace, index_vertices,
                       generate_trace, ground_filter_trace, lifted_apply,
                       parse_domain, predict, update)
from mhgfilter import lifted as lifted_module
from mhgfilter import rewrite
from mhgfilter.canon import merged
from mhgfilter.filtering import _condition_state
from oracles import (builtin_document, lifted_state, mini_documents, observed,
                     reference_agent_location)
from test_domain import empty_start_document

LOCS = frozenset({"floor", "table"})

WALK = Rule("walk",
            Pattern((PatternVertex("A", "agent"), PatternVertex("X", LOCS),
                     PatternVertex("Y", LOCS)),
                    (PatternEdge("at", ("A", "X")),)),
            Effect(retract=(EffectEdge("at", ("A", "X")),),
                   assert_=(EffectEdge("at", ("A", "Y")),)))

TAKE = Rule("take",
            Pattern((PatternVertex("A", "agent"), PatternVertex("I", "gear"),
                     PatternVertex("L", LOCS)),
                    (PatternEdge("at", ("A", "L")), PatternEdge("at", ("I", "L")))),
            Effect(retract=(EffectEdge("at", ("I", "L")),),
                   assert_=(EffectEdge("holds", ("A", "I")),)))


def tiny_domain(initial, rules=(WALK, TAKE), action_model=None):
    return Domain(name="tiny", agent_id="agent",
                  location_labels=LOCS, agent_location_labels=LOCS,
                  holdable_labels=frozenset({"gear"}),
                  initial_state=initial, rules=tuple(rules),
                  action_model=action_model or ActionModel())


def gear_layout(vertices):
    """A layout that conserves gears by their ``at`` and ``holds`` edges."""
    return index_vertices(vertices, {"at", "holds"}, {"gear"})


def sharp_initial():
    return LiftedMultiHypergraph(
        gear_layout([Vertex("agent", "agent"), Vertex("floor", "floor"),
                     Vertex("table", "table"), Vertex("gear", "gear")]),
        {("at", ("agent", "table")): (1, 1), ("at", ("gear", "table")): (1, 1)})


def spread_initial():
    """The gear sits on the floor or the table, unobserved."""
    return LiftedMultiHypergraph(
        gear_layout([Vertex("agent", "agent"), Vertex("floor", "floor"),
                     Vertex("table", "table"), Vertex("gear", "gear")]),
        {("at", ("gear", "floor")): (0, 1), ("at", ("gear", "table")): (0, 1),
         ("at", ("agent", "floor")): (1, 1)},
        [({("at", ("floor", "gear")), ("at", ("gear", "table"))}, 1)])


def test_action_model_weights():
    am = ActionModel({"walk": 2.0}, {"table": {"take": 5.0}})
    assert am.rule_weight("walk", "floor") == 2.0
    assert am.rule_weight("take", "floor") == 1.0
    assert am.rule_weight("take", "table") == 5.0
    assert am.rule_weight("walk", "table") == 2.0
    with pytest.raises(IntegrityError):
        ActionModel({"walk": -1.0}).rule_weight("walk", None)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_weights_that_are_not_finite_and_non_negative_raise(bad):
    """A NaN or infinite weight, like a negative one, is rejected by the
    action model, in the lifted and the ground filter, and by ``Belief``,
    rather than turning the log likelihood into NaN."""
    for am, loc in ((ActionModel({"walk": bad}), None),
                    (ActionModel(by_location={"table": {"walk": bad}}), "table")):
        with pytest.raises(IntegrityError, match="not finite and >= 0"):
            am.rule_weight("walk", loc)
        domain = tiny_domain(sharp_initial(), action_model=am)
        trace = [AnnotationTuple("walk", "table", "floor", {}, {})]
        for run in (filter_trace, ground_filter_trace):
            with pytest.raises(IntegrityError, match="not finite and >= 0"):
                run(domain, trace)
    with pytest.raises(IntegrityError, match="not finite and >= 0"):
        Belief([(sharp_initial(), bad)])
    with pytest.raises(IntegrityError, match="not finite and >= 0"):
        Belief([(sharp_initial(), 1.0), (spread_initial(), bad)])


def test_belief_normalises_and_merges():
    l = sharp_initial()
    relabeled = LiftedMultiHypergraph(
        gear_layout([Vertex("agent", "agent"), Vertex("floor", "floor"),
                     Vertex("table", "table"), Vertex("cog", "gear")]),
        {("at", ("agent", "table")): (1, 1), ("at", ("cog", "table")): (1, 1)})
    b = Belief([(l, 3.0), (relabeled, 1.0)])
    assert len(b) == 1
    assert b.total_weight() == pytest.approx(1.0)
    assert b.ground_count() == 1
    assert repr(b) == "Belief(1 entries, 1 groundings)"


def test_belief_rejects_bad_entries():
    l = sharp_initial()
    with pytest.raises(IntegrityError):
        Belief([(l, -0.5)])
    with pytest.raises(IntegrityError):
        Belief([(l, 0.0)])
    with pytest.raises(IntegrityError):
        Belief([])
    empty = LiftedMultiHypergraph([Vertex("a", "x")], {("at", ("a",)): (0, 1)},
                                  [({("at", ("a",))}, 9)])
    with pytest.raises(IntegrityError):
        Belief([(empty, 1.0)])


def test_agent_location():
    domain = tiny_domain(sharp_initial())
    assert agent_location(domain, sharp_initial()) == "table"
    assert agent_location(domain, sharp_initial().groundings()[0]) == "table"
    lost = MultiHypergraph(
        [Vertex("agent", "agent"), Vertex("floor", "floor"), Vertex("table", "table")],
        {("at", ("agent", "floor")): 1, ("at", ("agent", "table")): 1})
    assert agent_location(domain, lost) is None
    doubled = MultiHypergraph(
        [Vertex("agent", "agent"), Vertex("floor", "floor")],
        {("at", ("agent", "floor")): 2})
    assert agent_location(domain, doubled) is None
    looped = MultiHypergraph(
        [Vertex("agent", "agent"), Vertex("floor", "floor")],
        {("at", ("agent", "agent")): 1})
    assert agent_location(domain, looped) is None


def test_predict_applies_action_weights():
    domain = tiny_domain(sharp_initial(),
                         action_model=ActionModel({"walk": 2.0},
                                                  {"table": {"take": 5.0}}))
    joint = predict(domain, Belief.from_state(domain.initial_state))
    assert joint.dropped_mass == 0.0
    by_rule = {p.rule.name: p for p in joint.particles}
    assert by_rule["walk"].weight == pytest.approx(2 / 7)
    assert by_rule["take"].weight == pytest.approx(5 / 7)
    for p in joint.particles:
        outputs = lifted_apply(p.rule, p.prev).outputs()
        assert sum(w for _, w in outputs) == pytest.approx(1.0)


def test_predict_splits_on_partial_applicability(caplog):
    domain = tiny_domain(spread_initial())
    with caplog.at_level(logging.DEBUG, logger="mhgfilter"):
        joint = predict(domain, Belief.from_state(domain.initial_state))
    assert "predict: split into 2 groundings, 'take' applies in only some " \
        "groundings" in [r.getMessage() for r in caplog.records]
    weights = sorted((p.rule.name, round(p.weight, 12)) for p in joint.particles)
    assert weights == [("take", 0.25), ("walk", 0.25), ("walk", 0.5)]
    assert [p.rule.name for p in joint.particles] == ["take", "walk", "walk"]


def test_predict_drops_dead_ends(caplog):
    domain = tiny_domain(spread_initial(), rules=(TAKE,))
    with caplog.at_level(logging.WARNING, logger="mhgfilter"):
        joint = predict(domain, Belief.from_state(domain.initial_state))
    assert joint.dropped_mass == pytest.approx(0.5)
    assert joint.total_weight() == pytest.approx(1.0)
    assert len(joint.particles) == 1
    assert joint.particles[0].rule.name == "take"
    assert any("dead end" in r.message for r in caplog.records)


def test_zero_action_mass_is_a_logged_dead_end_in_both_filters(caplog):
    """Where every applicable rule weighs 0, both filters drop the entry and
    log a warning."""
    domain = tiny_domain(sharp_initial(), action_model=ActionModel(
        by_location={"table": {"walk": 0.0, "take": 0.0}}))
    joint = predict(domain, Belief.from_state(domain.initial_state))
    assert joint.dropped_mass == 1.0 and not joint.particles
    walked = [AnnotationTuple("walk", "table", "floor")]
    for run in (filter_trace, ground_filter_trace):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mhgfilter"):
            with pytest.raises(TraceInconsistencyError):
                run(domain, walked)
        assert any("zero action mass" in r.getMessage() for r in caplog.records)


def test_both_filters_record_a_dead_end_the_same_way():
    """The agent starts at floor or table, and at the table every rule
    weighs 0: the first step drops the table half as a dead end, and each
    filter records it as the same warning and ``dropped_mass``."""
    doc = empty_start_document()
    doc["constraints"][0]["total"] = 1
    doc["action_model"] = {"by_location": {"table": {
        r["name"]: 0 for r in doc["rules"]}}}
    domain = parse_domain(doc, "stuck_at_table.json")
    walked = [AnnotationTuple("walk", "floor", "table")]
    for run in (filter_trace, ground_filter_trace):
        result = run(domain, walked)
        assert result.warnings == ("step 0: dropped 0.5 dead-end mass",)
        assert [s.dropped_mass for s in result.stats] == [0.0, 0.5]
        assert result.log_likelihood == 0.0


def test_update_conditions_and_normalises():
    domain = tiny_domain(sharp_initial(),
                         action_model=ActionModel({"walk": 2.0},
                                                  {"table": {"take": 5.0}}))
    joint = predict(domain, Belief.from_state(domain.initial_state))
    walked = AnnotationTuple("walk", "table", "floor")
    posterior, z = update(domain, walked, joint)
    assert z == pytest.approx(2 / 7)
    assert len(posterior) == 1
    state = posterior.entries[0][0]
    assert state.multiplicity_bounds(("at", ("agent", "floor"))) == (1, 1)

    took = AnnotationTuple("take", "table", "table", {}, {"gear": 1})
    posterior, z = update(domain, took, joint)
    assert z == pytest.approx(5 / 7)
    held = ("holds", ("agent", "gear"))
    assert posterior.entries[0][0].multiplicity_bounds(held) == (1, 1)


def test_update_raises_when_nothing_survives():
    domain = tiny_domain(sharp_initial())
    joint = predict(domain, Belief.from_state(domain.initial_state))
    bad = AnnotationTuple("take", "table", "table", {}, {"gear": 0})
    with pytest.raises(TraceInconsistencyError) as exc:
        update(domain, bad, joint, step=7)
    assert exc.value.step == 7
    assert exc.value.action == "take"


def condition(domain, l, loc, held):
    """Condition l on one observation side, as ``update`` does."""
    return _condition_state(l, domain.observation.side(loc, held))


def test_an_unknown_location_is_inconsistent_at_its_step():
    """A location the domain lacks fails the location condition in both
    filters, on either side of a step: its ``at`` key has multiplicity 0 in
    every state."""
    domain = builtin_domain("mini")
    assert not domain.initial_state.has_vertex("attic")
    filter_trace(domain, [AnnotationTuple("walk", "floor", "table")])
    for loc_t, loc_next in (("floor", "attic"), ("attic", "table")):
        trace = [AnnotationTuple("walk", loc_t, loc_next)]
        for run in (filter_trace, ground_filter_trace):
            with pytest.raises(TraceInconsistencyError) as exc:
                run(domain, trace)
            assert exc.value.step == 0


def test_an_unknown_action_is_inconsistent_at_its_step():
    """An action that names no rule of the domain is never met: both
    filters stop at its step."""
    domain = builtin_domain("mini")
    trace = [AnnotationTuple("walk", "floor", "table"),
             AnnotationTuple("fly", "table", "table")]
    for run in (filter_trace, ground_filter_trace):
        with pytest.raises(TraceInconsistencyError) as exc:
            run(domain, trace)
        assert (exc.value.step, exc.value.action) == (1, "fly")


def test_condition_state_tightens_single_bounded_key():
    domain = tiny_domain(sharp_initial())
    l = LiftedMultiHypergraph(
        gear_layout([Vertex("agent", "agent"), Vertex("floor", "floor"),
                     Vertex("table", "table"), Vertex("gear", "gear", 3)]),
        {("holds", ("agent", "gear")): (0, 2), ("at", ("floor", "gear")): (1, 3),
         ("at", ("agent", "floor")): (1, 1)},
        [({("holds", ("agent", "gear")), ("at", ("floor", "gear"))}, 3)])
    assert l.count_groundings() == 3
    frac, states = condition(domain, l, "floor", {"gear": 1})
    assert frac == pytest.approx(1 / 3)
    assert states == [(states[0][0], 1.0)]
    assert states[0][0].multiplicity_bounds(("holds", ("agent", "gear"))) == (1, 1)
    assert states[0][0].multiplicity_bounds(("at", ("floor", "gear"))) == (2, 2)

    frac, states = condition(domain, l, "floor", {"gear": 5})
    assert frac == 0.0 and states == []
    frac, _ = condition(domain, l, "floor", {"gear": 0, "widget": 1})
    assert frac == 0.0
    frac, states = condition(domain, l, "table", {"gear": 1})
    assert frac == 0.0 and states == []


def test_condition_state_enumerates_entangled_keys():
    initial = LiftedMultiHypergraph(
        [Vertex("agent", "agent"), Vertex("floor", "floor"),
         Vertex("table", "table"), Vertex("g1", "gear"), Vertex("g2", "gear")],
        {("at", ("agent", "floor")): (1, 1)})
    domain = tiny_domain(initial)
    l = LiftedMultiHypergraph(
        initial.vertices,
        {("holds", ("agent", "g1")): (0, 1), ("holds", ("agent", "g2")): (0, 1),
         ("at", ("agent", "floor")): (1, 1), ("at", ("g2", "table")): (1, 1)})
    frac, states = condition(domain, l, "floor", {"gear": 1})
    assert frac == pytest.approx(0.5)
    assert len(states) == 2
    assert all(rel == pytest.approx(0.5) for _, rel in states)
    assert all(s.count_groundings() == 1 for s, _ in states)


def test_condition_state_enumeration_that_keeps_no_grounding():
    """Two bounded held keys are enumerated; when no grounding holds the
    observed count, the state has no consistent part."""
    initial = LiftedMultiHypergraph(
        [Vertex("agent", "agent"), Vertex("floor", "floor"),
         Vertex("table", "table"), Vertex("g1", "gear"), Vertex("g2", "gear")],
        {("at", ("agent", "floor")): (1, 1)})
    l = LiftedMultiHypergraph(
        initial.vertices,
        {("holds", ("agent", "g1")): (0, 1), ("holds", ("agent", "g2")): (0, 1),
         ("at", ("agent", "floor")): (1, 1)})
    assert condition(tiny_domain(initial), l, "floor", {"gear": 3}) == (0.0, [])


def test_filter_trace_keeps_unit_mass():
    domain = builtin_domain("mini")
    trace, truncated = generate_trace(domain, seed=3, length=6)
    assert not truncated and len(trace) == 6
    result = filter_trace(domain, trace)
    assert len(result.beliefs) == 7
    assert len(result.stats) == 7
    for belief in result.beliefs:
        assert belief.total_weight() == pytest.approx(1.0, abs=1e-12)
    assert result.stats[0].step == 0
    assert result.stats[0].action is None
    assert result.log_likelihood == pytest.approx(
        sum(s.log_z for s in result.stats[1:]))
    assert result.log_likelihood < 0
    assert all(s.mode == "lifted" for s in result.stats)
    assert math.isfinite(result.log_likelihood)


def test_filter_trace_reports_corruption_step():
    domain = builtin_domain("mini")
    trace, _ = generate_trace(domain, seed=5, length=8, corrupt_at=4)
    with pytest.raises(TraceInconsistencyError) as exc:
        filter_trace(domain, trace)
    assert exc.value.step == 4
    assert exc.value.action == trace[4].action


def test_filter_step_builds_successors_only_for_the_observed_rule(monkeypatch):
    domain = builtin_domain("bookshelf")
    trace, _ = generate_trace(domain, seed=0, length=4, policy="install_heavy")
    belief = filter_trace(domain, trace[:3]).beliefs[-1]
    step = trace[3:]
    assert step[0].action == "installEccentric"
    # walk, take, putDown and installEccentric all apply here
    assert len({p.rule.name for p in predict(domain, belief).particles}) == 4
    built = []
    real = LiftedApplyResult.outputs

    def counting(self, *args):
        built.append(self.rule.name)
        return real(self, *args)

    monkeypatch.setattr(LiftedApplyResult, "outputs", counting)
    filter_trace(domain, step, initial=belief)
    assert built == ["installEccentric"]


def test_each_rule_is_planned_once_per_state_and_step(monkeypatch):
    """``predict`` plans every (rule, state) pair once, and the update builds
    from that plan: on an install-heavy bookshelf trace, whose beliefs stay
    one lifted state that conditioning leaves whole, the precondition pass
    runs once per rule and step."""
    domain = builtin_domain("bookshelf")
    trace, _ = generate_trace(domain, seed=0, length=30, policy="install_heavy")
    planned = 0
    real = rewrite._lifted_plan

    def counting(*args):
        nonlocal planned
        planned += 1
        return real(*args)

    monkeypatch.setattr(rewrite, "_lifted_plan", counting)
    filter_trace(domain, trace)
    assert planned == len(domain.rules) * len(trace) == 150


def test_update_builds_only_successors_the_observation_allows(monkeypatch):
    """On an install-heavy bookshelf trace every step keeps one lifted state,
    and the update builds exactly that successor: a ``take`` plans one
    successor per holdable item, but the observed held counts leave one."""
    domain = builtin_domain("bookshelf")
    trace, _ = generate_trace(domain, seed=0, length=30, policy="install_heavy")
    built = 0
    real = LiftedMultiHypergraph.shifted

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(LiftedMultiHypergraph, "shifted", counting)
    filter_trace(domain, trace)
    assert built == 30


def test_one_state_steps_compute_no_lifted_form(monkeypatch):
    """The seed-0 ``symmetric_slots`` benchmark trace and an install-heavy
    bookshelf trace hold one lifted state at every step.  A form is
    computed only where two states meet, so filtering them runs no lifted
    canonical search."""
    from belief_digest import _import_paths
    _import_paths()
    import inputs
    calls = 0
    real = lifted_module._canon_lifted

    def counting(l):
        nonlocal calls
        calls += 1
        return real(l)

    monkeypatch.setattr(lifted_module, "_canon_lifted", counting)
    symmetric = inputs.symmetric_slots_domain()
    bookshelf = builtin_domain("bookshelf")
    install, _ = generate_trace(bookshelf, seed=0, length=40, policy="install_heavy")
    for domain, trace in ((symmetric, inputs.symmetric_trace(symmetric, 0)),
                          (bookshelf, install)):
        result = filter_trace(domain, trace)
        assert len(result.stats) == len(trace) + 1
        assert max(s.lifted_count for s in result.stats) == 1
    assert calls == 0


# ``take`` that drops the gear from its location without handing it to the
# agent: every successor breaks the gear's conservation
LOSSY_TAKE = Rule("take", TAKE.pattern,
                  Effect(retract=(EffectEdge("at", ("I", "L")),)))


def test_observed_rule_breaking_conservation_raises():
    """Both filters build successors only for the observed rule, so they
    raise on an observed rule that breaks conservation and agree while it
    stays unobserved."""
    domain = tiny_domain(sharp_initial(), rules=(WALK, LOSSY_TAKE))
    took = AnnotationTuple("take", "table", "table", {}, {})
    for run in (filter_trace, ground_filter_trace):
        with pytest.raises(IntegrityError):
            run(domain, [took])
    walked = AnnotationTuple("walk", "table", "floor")
    for run in (filter_trace, ground_filter_trace):
        assert run(domain, [walked]).log_likelihood == pytest.approx(math.log(0.5))
    report = compare(domain, [walked])
    assert not report.divergent
    assert report.log_likelihood_ground == pytest.approx(math.log(0.5))


def test_lifted_apply_fallbacks_are_logged_at_debug(caplog):
    domain = builtin_domain("mini")
    with caplog.at_level(logging.DEBUG, logger="mhgfilter"):
        for seed in range(20):
            trace, _ = generate_trace(domain, seed=seed, length=20)
            filter_trace(domain, trace)
    fallbacks = [r.getMessage() for r in caplog.records
                 if r.levelno == logging.DEBUG and "fallback" in r.getMessage()]
    assert any("'uninstall'" in m for m in fallbacks)


def test_step_stats_serialisation():
    s = sharp_initial()
    stats = filter_trace(tiny_domain(s), []).stats[0]
    d = stats.to_dict()
    assert d == {"step": 0, "action": None, "lifted_count": 1,
                 "ground_count": 1, "log_z": 0.0, "mode": "lifted",
                 "dropped_mass": 0.0}


def test_agent_location_equals_the_fixed_edge_scan(monkeypatch):
    """``agent_location`` reads the bounds map; it gives the reference scan of
    the fixed edges' answer on hand-made states and on every state that one
    mini ``compare`` derives, lifted and ground."""
    domain = tiny_domain(sharp_initial())
    vertices = [Vertex("agent", "agent"), Vertex("floor", "floor"),
                Vertex("table", "table"), Vertex("gear", "gear")]
    at = {("at", ("agent", "floor")): 1}
    around = {("at", ("gear", "table")): 1, ("holds", ("agent", "gear")): 1}
    maybe = {("at", ("agent", "table")): (0, 1)}
    cases = [
        ({}, {}, None),                                                # no agent edge
        (at, {}, "floor"),                                             # one
        (at | {("at", ("agent", "table")): 1}, {}, None),              # two
        ({("at", ("agent", "floor")): 2}, {}, None),                   # multiplicity 2
        ({("at", ("agent", "floor", "table")): 1}, {}, None),          # arity 3
        ({("at", ("agent", "agent")): 1}, {}, None),                   # a loop
        (at, maybe, None),                                             # bounded
        ({}, maybe, None),
    ]
    for fixed, bounded, want in cases:
        state = lifted_state(vertices, around | fixed, bounded)
        assert agent_location(domain, state) == want
        assert reference_agent_location(domain, state) == want

    states = []
    for name in ("shifted", "conditioned"):     # a ground state's too
        def derived(*args, _derive=getattr(LiftedMultiHypergraph, name), **kwargs):
            states.append(_derive(*args, **kwargs))
            return states[-1]
        monkeypatch.setattr(LiftedMultiHypergraph, name, derived)
    mini = builtin_domain("mini")
    trace, _ = generate_trace(mini, seed=3, length=12)
    assert not compare(mini, trace).divergent
    assert {type(s) for s in states} == {MultiHypergraph, LiftedMultiHypergraph}
    assert len(states) > 40 and any(s.count_groundings() > 1 for s in states)
    assert {agent_location(mini, s) for s in states} == {"floor", "table"}
    for s in states:
        assert agent_location(mini, s) == reference_agent_location(mini, s)


def concluded(result) -> tuple:
    """What a filter run concludes, bit for bit: each belief's forms and the
    ``repr`` of their weights, the step records and the log likelihood."""
    return ([[(l.canonical_form().data, repr(w)) for l, w in b.entries]
             for b in result.beliefs], result.stats, repr(result.log_likelihood))


def test_a_warm_domain_concludes_what_a_cold_one_does(caplog):
    """On random mini-family documents, a trace filtered twice on one domain
    and once on a domain loaded afresh gives bit-identical beliefs, step
    records and log likelihood, and the same debug lines for fallbacks and
    splits: on the warm run, where plans come from the memo, every fallback
    still logs ``lifted_apply '<rule>': fallback, ...``."""
    hypothesis = pytest.importorskip("hypothesis")
    traces = random.Random(0)   # the traces' own stream, across examples
    fallbacks = 0

    def run(domain, trace):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="mhgfilter"):
            out = concluded(filter_trace(domain, trace))
        # a warm domain's initial state has its form already, so the
        # canonical search logs less; what the filter did logs the same
        did = [m for m in caplog.messages if m.startswith(("lifted_apply", "predict"))]
        return out, did

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=15, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(mini_documents())
    def check(drawn):
        nonlocal fallbacks
        doc, domain = drawn
        trace, _ = generate_trace(domain, traces.randrange(2 ** 16),
                                  traces.randint(4, 16), policy="install_heavy")
        cold = run(domain, trace)
        warm = run(domain, trace)
        fresh = run(parse_domain(doc, "random-mini"), trace)
        assert warm == cold
        assert fresh == cold
        fallbacks += sum(m.startswith("lifted_apply '") and ": fallback, " in m
                         for m in warm[1])

    check()
    assert fallbacks >= 10


def test_the_memos_hold_no_reference_cycle():
    """With the cycle collector off, a fresh mini domain that has filtered
    and been compared is freed, layout and all, once it and the results are
    dropped, and it leaves no garbage that only the collector could free:
    nothing its memos keep refers back to it or to another memo."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        domain = builtin_domain("mini")
        trace = generate_trace(domain, seed=1, length=20)[0]
        result, report = filter_trace(domain, trace), compare(domain, trace)
        assert len(result.beliefs) == 21 and not report.divergent
        dead = weakref.ref(domain), weakref.ref(domain.initial_state.layout)
        del domain, trace, result, report
        assert [ref() for ref in dead] == [None, None]
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def conditions_as_ground(domain, loc, held, l) -> set[int]:
    """Check the compiled side (loc, held) against the ground reading
    ``observed`` on l: ``_condition_state`` keeps the share of l's
    groundings that the reading accepts, as states that expand to exactly
    those groundings, uniformly; and every rule's ``outputs`` with the side,
    from l and from each kept state, are those without it, bit for bit,
    less only successors with no accepted grounding.  Returns the numbers
    of successors kept."""
    side = domain.observation.side(loc, held)
    accepted = [g for g in l.iter_groundings() if observed(domain, g, loc, held)]
    f, kept = _condition_state(l, side)
    assert abs(f - len(accepted) / l.count_groundings()) <= 1e-12
    expanded: dict[bytes, float] = {}
    for s, rel in kept:
        for g in s.iter_groundings():
            form = g.canonical_form().data
            expanded[form] = expanded.get(form, 0.0) + rel / s.count_groundings()
    want = {g.canonical_form().data: c / len(accepted) for g, c in merged(
        (g, 1) for g in accepted)}
    assert expanded.keys() == want.keys()
    assert all(abs(expanded[k] - w) <= 1e-12 for k, w in want.items())
    counts = set()
    for tight in {l} | {s for s, _ in kept}:
        for rule in domain.rules:
            t = lifted_apply(rule, tight)
            full = t.outputs()
            everything = [(s.canonical_form().data, repr(p)) for s, p in full]
            pruned = [(s.canonical_form().data, repr(p)) for s, p in t.outputs(side)]
            assert pruned == [e for e in everything if e in pruned]
            for e, (s, _) in zip(everything, full):
                assert e in pruned or not any(observed(domain, g, loc, held)
                                              for g in s.iter_groundings())
            counts.add(len(pruned))
    return counts


def test_a_compiled_side_conditions_as_ground_enumeration():
    """On random mini-family documents, an annotation side compiled against
    the domain's schema conditions every state a filter run holds as the
    ground reading of the side does (``conditions_as_ground``).  The sides
    are a generated trace's and edits of them: a location that is no
    vertex, a label that is not holdable observed at 0 and at 1, and each
    held count one higher."""
    hypothesis = pytest.importorskip("hypothesis")
    traces = random.Random(1)   # the traces' own stream, across examples

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=15, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(mini_documents())
    def check(drawn):
        _, domain = drawn
        trace, _ = generate_trace(domain, traces.randrange(2 ** 16),
                                  traces.randint(3, 8), policy="install_heavy")
        states = {s.canonical_form(): s
                  for b in filter_trace(domain, trace).beliefs for s, _ in b}
        sides = {(a.loc_t, tuple(sorted(a.held_t.items()))) for a in trace}
        sides |= {(a.loc_next, tuple(sorted(a.held_next.items()))) for a in trace}
        edited = {("attic", held) for _, held in sides}
        edited |= {(loc, held + (("agent", n),)) for loc, held in sides for n in (0, 1)}
        edited |= {(loc, tuple((label, n + 1) for label, n in held) or (("eccentric", 1),))
                   for loc, held in sides}
        for loc, held in sorted(sides | edited):
            for l in states.values():
                conditions_as_ground(domain, loc, dict(held), l)

    check()


def jump_rule(places):
    """The agent gains an ``at`` edge to any place it is not at."""
    return Rule("jump", Pattern((PatternVertex("A", "agent"),
                                 PatternVertex("X", frozenset(places))), ()),
                Effect(assert_=(EffectEdge("at", ("A", "X"), cap=1),)))


def test_a_compiled_side_reads_groups_of_observed_keys():
    """Plan steps whose group holds the agent's ``holds`` keys, or its
    ``at`` keys, which no mini-family plan makes: a compiled side conditions
    as the ground reading does (``conditions_as_ground``), whatever the
    held count or location it observes, from a state where those keys are
    empty and from one where they already form a group."""
    places = ("floor", "table", "shelf")
    grab = Rule("grab", Pattern((PatternVertex("A", "agent"),
                                 PatternVertex("I", "gear")), ()),
                Effect(assert_=(EffectEdge("holds", ("A", "I"), cap=1),)))
    initial = LiftedMultiHypergraph(
        [Vertex("agent", "agent")] + [Vertex(p, p) for p in places]
        + [Vertex(g, "gear") for g in ("g1", "g2", "g3")],
        {("at", ("agent", "floor")): (1, 1)})
    domain = Domain(name="groups", agent_id="agent", location_labels=frozenset(places),
                    agent_location_labels=frozenset(places),
                    holdable_labels=frozenset({"gear"}), initial_state=initial,
                    rules=(grab, jump_rule(places)))
    states = [initial] + [s for r in domain.rules
                          for s, _ in lifted_apply(r, initial).outputs()]
    assert any(s.group_of(("holds", ("agent", "g1"))) for s in states)
    assert any(s.group_of(("at", ("agent", "table"))) for s in states)
    kept = set()
    for loc in places:
        for n in range(5):
            for l in states:
                kept |= conditions_as_ground(domain, loc, {"gear": n}, l)
    assert kept == {0, 1}


def test_a_bounded_at_key_leaves_the_location_open():
    """After ``jump`` from the floor, the agent is at the floor and at one
    of table and shelf: every grounding has two ``at`` edges and no
    location, so ``by_location`` does not apply to the next step.  Both
    filters give the trace likelihood 1/6 (``jump`` against ``rest``
    weighted 5 at the floor) times 1/2 (``rest`` against ``jump`` with
    default weights)."""
    places = ("floor", "table", "shelf")
    initial = LiftedMultiHypergraph([Vertex("agent", "agent")] + [Vertex(p, p) for p in places],
                                    {("at", ("agent", "floor")): (1, 1)})
    rest = Rule("rest", Pattern((PatternVertex("A", "agent"),), ()))
    domain = Domain(name="jump", agent_id="agent", location_labels=frozenset(places),
                    agent_location_labels=frozenset(places), holdable_labels=frozenset(),
                    initial_state=initial, rules=(jump_rule(places), rest),
                    action_model=ActionModel(by_location={"floor": {"rest": 5}}))
    trace = [AnnotationTuple("jump", "floor", "floor"),
             AnnotationTuple("rest", "floor", "floor")]
    jumped = filter_trace(domain, trace[:1]).beliefs[1].entries[0][0]
    assert jumped.group_of(("at", ("agent", "table"))) is not None
    assert agent_location(domain, jumped) is None
    report = compare(domain, trace)
    assert not report.divergent
    assert report.log_likelihood_lifted == pytest.approx(math.log(1 / 12), abs=1e-12)
    assert report.log_likelihood_ground == pytest.approx(math.log(1 / 12), abs=1e-12)


def test_a_fixed_location_holds_in_every_grounding():
    """Whenever ``agent_location`` names a place, every grounding of the
    state is at that place, on hand-made states whose agent ``at`` keys
    are fixed, bounded or grouped, and on every state a filter run on a
    random mini-family document holds or plans next."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    places = ("floor", "table", "shelf")
    vertices = [Vertex("agent", "agent")] + [Vertex(p, p) for p in places]
    domain = Domain(name="places", agent_id="agent", location_labels=frozenset(places),
                    agent_location_labels=frozenset(places), holdable_labels=frozenset(),
                    initial_state=LiftedMultiHypergraph(vertices, {}), rules=())
    kinds = [None, 1, 2, (0, 1), (1, 2), (0, 2)]   # absent, fixed, bounded

    def checked(domain, l):
        loc = agent_location(domain, l)
        if loc is not None:
            assert all(reference_agent_location(domain, g) == loc
                       for g in l.iter_groundings())
        return loc

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.lists(st.sampled_from(kinds), min_size=3, max_size=3),
                      st.integers(0, 3), st.booleans())
    def hand_made(drawn, total, grouped):
        keys = {("at", ("agent", p)): kind for p, kind in zip(places, drawn)}
        fixed = {k: m for k, m in keys.items() if isinstance(m, int)}
        bounded = {k: m for k, m in keys.items() if isinstance(m, tuple)}
        members = [k for k, m in bounded.items() if m == (0, 1)]
        groups = [(members, min(total, len(members)))] if grouped and members else []
        checked(domain, lifted_state(vertices, fixed, bounded, groups))

    hand_made()
    traces = random.Random(2)
    named = 0

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=15, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(mini_documents())
    def derived(drawn):
        nonlocal named
        _, domain = drawn
        trace, _ = generate_trace(domain, traces.randrange(2 ** 16),
                                  traces.randint(3, 8), policy="install_heavy")
        for belief in filter_trace(domain, trace).beliefs:
            for l, _ in belief:
                named += checked(domain, l) is not None
                for rule in domain.rules:
                    for s, _ in lifted_apply(rule, l).outputs():
                        named += checked(domain, s) is not None

    derived()
    assert named > 100


def test_two_domains_over_one_layout_conclude_as_if_apart():
    """``dataclasses.replace`` makes domains that share mini's initial state,
    hence its layout and content memos, but observe different labels.
    Filtered one after the other on one layout, in either order, each
    concludes bit for bit what it concludes on a freshly parsed document:
    the forms, weight ``repr``s, step records and log likelihood, or a
    TraceInconsistencyError at the same step.  A state's summary is kept
    under the schema that made it."""
    observed = (("eccentric", "screwdriver"), ("eccentric",), ("screwdriver",))

    def twins(base):
        return [replace(base, holdable_labels=frozenset(labels)) for labels in observed]

    def outcome(domain, trace):
        try:
            return concluded(filter_trace(domain, trace))
        except TraceInconsistencyError as exc:
            return exc.step

    def fresh(i, trace):
        return outcome(twins(parse_domain(builtin_document("mini"), "mini"))[i], trace)

    traces = [generate_trace(d, seed, 10, policy=policy)[0]
              for d in twins(builtin_domain("mini")) for seed, policy in
              ((1, "install_heavy"), (2, "uniform"))]
    expected = [[fresh(i, trace) for i in range(len(observed))] for trace in traces]
    assert any(isinstance(x, int) for row in expected for x in row)
    assert any(row[0] != row[1] != row[2] for row in expected)
    for order in ((0, 1, 2), (2, 1, 0)):
        domains = twins(builtin_domain("mini"))
        assert len({d.initial_state.layout for d in domains}) == 1
        for trace, row in zip(traces, expected):
            for i in order:
                assert outcome(domains[i], trace) == row[i]


def test_dropped_domains_are_collected():
    """Two domains over one layout that have filtered, been compared and
    updated by hand are freed, layout and schemas too, once dropped and
    collected: the compiled annotation sides are kept by the domain's
    schema, a state's summary in the layout's content memo, and nothing in
    a module."""
    mini = builtin_domain("mini")
    twin = replace(mini, holdable_labels=frozenset({"eccentric"}))
    for domain in (mini, twin):
        trace = generate_trace(domain, seed=1, length=12)[0]
        assert len(filter_trace(domain, trace).beliefs) == 13
        assert not compare(domain, trace).divergent
        update(domain, trace[0], predict(domain, Belief.from_state(domain.initial_state)))
    dead = [weakref.ref(x) for x in (mini, twin, mini.initial_state.layout,
                                     mini.observation, twin.observation)]
    del mini, twin, domain, trace
    gc.collect()
    assert [ref() for ref in dead] == [None] * 5
