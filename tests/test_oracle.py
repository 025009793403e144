from __future__ import annotations

import math

import pytest

from mhgfilter import (AnnotationTuple, Belief, GroundBelief,
                       IntegrityError, LiftedMultiHypergraph,
                       TraceInconsistencyError, Vertex, builtin_domain,
                       compare, expand, generate_trace, ground_filter_trace,
                       parse_domain, total_variation)
from oracles import unchecked_lifted_apply


def symmetric_pair():
    """One screw across two indistinguishable slots: groundings collapse."""
    return LiftedMultiHypergraph(
        [Vertex("e", "screw"), Vertex("s1", "slot"), Vertex("s2", "slot")],
        {("at", ("e", "s1")): (0, 1), ("at", ("e", "s2")): (0, 1)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 1)])


def test_expand_merges_isomorphic_groundings():
    l = symmetric_pair()
    assert l.count_groundings() == 2
    entries = expand(l)
    assert len(entries) == 1
    g, w = entries[0]
    assert w == 1.0
    assert g.edge_multiplicity("at", ("e", "s1")) + \
        g.edge_multiplicity("at", ("e", "s2")) == 1


def test_ground_belief_normalisation():
    g1, g2 = symmetric_pair().groundings()
    b = GroundBelief([(g1, 1.0), (g2, 3.0)])
    assert len(b) == 1  # isomorphic states merge
    assert sum(w for _, w in b) == pytest.approx(1.0)
    with pytest.raises(IntegrityError):
        GroundBelief([])
    with pytest.raises(IntegrityError):
        GroundBelief([(g1, 0.0)])
    lifted = Belief([(symmetric_pair(), 1.0)])
    assert GroundBelief.from_belief(lifted).as_dict() == b.as_dict()


def test_ground_belief_rejects_weights_that_are_not_finite_and_non_negative():
    """As ``Belief`` does: a NaN or negative weight is not silently dropped,
    and an infinite one does not turn into a NaN after normalising."""
    g1, g2 = symmetric_pair().groundings()
    for entries in ([(g1, math.nan), (g2, 1.0)], [(g1, -1.0), (g2, 1.0)],
                    [(g1, math.inf)], [(g1, 1.0), (g2, -math.inf)]):
        with pytest.raises(IntegrityError, match="is not finite and >= 0"):
            GroundBelief(entries)


def test_total_variation():
    assert total_variation({b"x": 1.0}, {b"x": 1.0}) == 0.0
    assert total_variation({b"x": 1.0}, {b"y": 1.0}) == 1.0
    assert total_variation({b"x": 0.5, b"y": 0.5},
                           {b"x": 1.0}) == pytest.approx(0.5)


def test_ground_filter_hand_computed():
    domain = builtin_domain("mini")
    trace = [AnnotationTuple("walk", "floor", "table"),
             AnnotationTuple("take", "table", "table", {}, {"eccentric": 1})]
    result = ground_filter_trace(domain, trace)
    assert len(result.beliefs) == 3
    assert all(len(b) == 1 for b in result.beliefs)
    # step 1: walking is the only applicable rule, one destination
    assert result.stats[1].log_z == pytest.approx(0.0)
    # step 2: rules {walk, take} equally likely, then two takeable items
    assert result.stats[2].log_z == pytest.approx(math.log(0.25))
    assert result.log_likelihood == pytest.approx(math.log(0.25))
    assert all(s.mode == "ground" for s in result.stats)
    final = result.beliefs[-1].entries[0][0]
    assert final.edge_multiplicity("holds", ("agent", "eccentric")) == 1


def test_ground_filter_rejects_impossible_annotation():
    domain = builtin_domain("mini")
    trace = [AnnotationTuple("walk", "floor", "table"),
             AnnotationTuple("take", "table", "table", {}, {"eccentric": 3})]
    with pytest.raises(TraceInconsistencyError) as exc:
        ground_filter_trace(domain, trace)
    assert exc.value.step == 1
    assert exc.value.action == "take"


def test_compare_agrees_on_mini_traces():
    domain = builtin_domain("mini")
    for seed in range(5):
        trace, _ = generate_trace(domain, seed=seed, length=8)
        report = compare(domain, trace)
        assert len(report.per_step_tv) == len(trace) + 1
        assert report.max_tv <= 1e-9
        assert report.log_likelihood_gap <= 1e-9
        assert not report.divergent


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-12])
def test_compare_rejects_a_tolerance_that_is_not_finite_and_non_negative(bad):
    domain = builtin_domain("mini")
    trace, _ = generate_trace(domain, seed=0, length=3)
    with pytest.raises(ValueError, match="is not finite and >= 0"):
        compare(domain, trace, tolerance=bad)
    assert not compare(domain, trace, tolerance=0.0).divergent


def test_ground_filter_builds_successors_only_for_the_observed_rule(monkeypatch):
    """Applicability comes from the rule's options, so the only successors
    the ground reference builds are the observed rule's, as in the lifted
    filter."""
    import mhgfilter.oracle as oracle
    domain = builtin_domain("mini")
    step = -1
    calls: list[tuple[int, str]] = []
    real_belief, real_successors = oracle.GroundBelief, oracle.successors

    def counting_belief(entries):
        # built once for the prior, then once at the end of each step
        nonlocal step
        step += 1
        return real_belief(entries)

    def recording_successors(rule, g):
        calls.append((step, rule.name))
        return real_successors(rule, g)

    monkeypatch.setattr(oracle, "GroundBelief", counting_belief)
    monkeypatch.setattr(oracle, "successors", recording_successors)
    for seed in range(4):
        trace, _ = generate_trace(domain, seed=seed, length=10)
        step, calls[:] = -1, []
        ground_filter_trace(domain, trace)
        assert calls
        assert {trace[i].action for i, _ in calls} == {a.action for a in trace}
        assert all(name == trace[i].action for i, name in calls)


def test_the_ground_filter_finds_applicable_rules_once_per_domain(monkeypatch):
    """The ground reference keeps each ground state's applicable rules for
    its domain's lifetime: a trace filtered again on the same domain asks
    ``ground_options`` nothing for applicability, a domain loaded afresh
    asks as often as the first run did, and all three runs conclude the
    same.  Successors stay per trace: each run builds as many."""
    import mhgfilter.oracle as oracle
    asked, built = [], []
    real_options, real_successors = oracle.ground_options, oracle.successors

    def counting_options(rule, g):
        asked.append(rule.name)
        return real_options(rule, g)

    def counting_successors(rule, g):
        built.append(rule.name)
        return real_successors(rule, g)

    monkeypatch.setattr(oracle, "ground_options", counting_options)
    monkeypatch.setattr(oracle, "successors", counting_successors)
    domain = builtin_domain("mini")
    trace, _ = generate_trace(domain, seed=2, length=15)
    runs = []
    for d in (domain, domain, builtin_domain("mini")):
        asked[:], built[:] = [], []
        result = ground_filter_trace(d, trace)
        runs.append(([b.as_dict() for b in result.beliefs], result.stats,
                     result.log_likelihood, len(asked), len(built)))
    (*first, asked_cold, built_cold), (*warm, asked_warm, built_warm), \
        (*fresh, asked_fresh, built_fresh) = runs
    assert warm == first and fresh == first
    assert asked_cold > 0 and asked_warm == 0 and asked_fresh == asked_cold
    assert built_cold > 0 and built_warm == built_fresh == built_cold


def unchecked_document() -> dict:
    """A domain whose install rule meets ``unchecked_lifted_apply``'s raw
    interval arithmetic: with it patched in, the lifted filter drifts away
    from the ground truth."""
    slots = [["at", ["e", "s1"]], ["at", ["e", "s2"]]]
    return {
        "format": "mhg-domain/1", "name": "unchecked", "agent": "agent",
        "labels": {"locations": ["table"], "agent_locations": ["table"],
                   "holdable": ["eccentric"]},
        "conservation": {"edges": ["at", "holds"], "vertices": ["eccentric"]},
        "vertices": [{"id": "agent", "label": "agent"},
                     {"id": "table", "label": "table"},
                     {"id": "e", "label": "eccentric", "multiplicity": 2},
                     {"id": "s1", "label": "slot_a"},
                     {"id": "s2", "label": "slot_b"}],
        "edges": [{"label": "at", "incidence": ["agent", "table"]},
                  {"label": "holds", "incidence": ["agent", "e"]}],
        "bounded_edges": [{"label": label, "incidence": inc, "lower": 0, "upper": 1}
                          for label, inc in slots],
        "constraints": [{"name": "installed", "edges": slots, "total": 1}],
        "rules": [{
            "name": "install",
            "pattern": {"vertices": [{"var": "A", "label": "agent"},
                                     {"var": "E", "label": "eccentric"},
                                     {"var": "T", "label": "table"},
                                     {"var": "SL", "label_any_of": ["slot_a", "slot_b"]}],
                        "edges": [{"label": "at", "vars": ["A", "T"]},
                                  {"label": "holds", "vars": ["A", "E"]}]},
            "effect": {"retract": [{"label": "holds", "vars": ["A", "E"]}],
                       "assert": [{"label": "at", "vars": ["E", "SL"], "cap": 1}]}}],
    }


def test_compare_flags_unchecked_divergence(monkeypatch):
    monkeypatch.setattr("mhgfilter.filtering.lifted_apply", unchecked_lifted_apply)
    domain = parse_domain(unchecked_document(), "unchecked")
    trace = [AnnotationTuple("install", "table", "table",
                             {"eccentric": 1}, {"eccentric": 0})]
    report = compare(domain, trace)
    assert report.divergent
    assert report.max_tv == pytest.approx(2 / 3)


def test_the_oracle_tests_each_distinct_ground_state_once(monkeypatch):
    """Within a trace the oracle asks ``ground_options`` once per rule and
    distinct ground state (by canonical form), however many steps and
    belief entries that state recurs in, and its beliefs are bit-identical
    to those of testing every entry at every step, pinned here by hash."""
    import hashlib

    import mhgfilter.oracle
    domain = builtin_domain("mini")
    trace, _ = generate_trace(domain, seed=3, length=20)
    tested = []
    real = mhgfilter.oracle.ground_options

    def counting(rule, g):
        tested.append((rule.name, g.canonical_form().data))
        return real(rule, g)

    monkeypatch.setattr(mhgfilter.oracle, "ground_options", counting)
    result = ground_filter_trace(domain, trace)
    predicted = [g for belief in result.beliefs[:-1] for g, _ in belief]
    forms = {g.canonical_form().data for g in predicted}
    assert sorted(tested) == sorted((r.name, f) for r in domain.rules for f in forms)
    assert (len(forms), len(predicted)) == (10, 23)
    h = hashlib.sha256()
    for belief in result.beliefs:
        h.update(b"belief")
        for g, w in belief:
            h.update(g.canonical_form().data)
            h.update(repr(w).encode())
    assert h.hexdigest() == (
        "e866427ec62e51a62953ba99afe8eeb9218d17abb183079ff7d523ca8c44b411")


def test_the_reference_shares_no_arithmetic_with_the_lifted_filter():
    """The ground reference is an independent check only while it computes
    its own rule weights, conditioning and Z and reads an annotation side
    its own way: ``oracle.py`` names none of the lifted filter's arithmetic
    or compiled observation, and takes from ``filtering`` only the belief
    container, the trace bookkeeping, ``agent_location``, the ``at`` label
    and the logger."""
    import ast
    from pathlib import Path

    import mhgfilter.oracle as oracle
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    lifted_arithmetic = {"predict", "update", "lifted_apply", "_condition_state",
                         "conditioned", "Particle", "JointPrediction",
                         "LiftedApplyResult", "ObservationSchema", "_Side",
                         "_summary", "verdict", "excluded"}
    enclosing = {inner: f.name for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) for inner in ast.walk(f)}
    used = set()
    imported_from_filtering = {}   # name -> importing function, None at top
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(a.name for a in node.names)
            used.update(a.asname for a in node.names if a.asname)
            if isinstance(node, ast.ImportFrom) and node.module == "filtering":
                imported_from_filtering.update(
                    (a.name, enclosing.get(node)) for a in node.names)
    assert used & lifted_arithmetic == set()
    assert imported_from_filtering == {
        **dict.fromkeys(["AT_LABEL", "Belief", "FilterResult", "_run_trace",
                         "agent_location", "logger"]),
        "filter_trace": "compare"}
