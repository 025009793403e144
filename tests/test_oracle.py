from __future__ import annotations

import math

import pytest

from mhgfilter import (AnnotationTuple, Belief, BoundedEdge, GroundBelief,
                       IntegrityError, LiftedMultiHypergraph, TotalConstraint,
                       TraceInconsistencyError, Vertex, builtin_domain,
                       compare, expand, generate_trace, ground_filter_trace,
                       parse_domain, total_variation)
from oracles import unchecked_lifted_apply


def symmetric_pair():
    """One screw across two indistinguishable slots: groundings collapse."""
    return LiftedMultiHypergraph(
        [Vertex("e", "screw"), Vertex("s1", "slot"), Vertex("s2", "slot")],
        [],
        [BoundedEdge("at", ("e", "s1"), 0, 1), BoundedEdge("at", ("e", "s2"), 0, 1)],
        [TotalConstraint(frozenset({("at", ("e", "s1")),
                                    ("at", ("e", "s2"))}), 1)])


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
