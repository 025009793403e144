"""Vertex layouts: every derived state shares its source's layout, each
pattern compiles once per layout, and compiled forms change no result."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

from mhgfilter import (EffectEdge, Effect, LiftedMultiHypergraph, Pattern,
                       PatternEdge, PatternVertex, Rule, Vertex, apply, compare,
                       generate_trace, ground_options, lifted_apply,
                       mini_bookshelf_domain)
from mhgfilter import rewrite
from mhgfilter.canon import (canonical_form, canonical_form_lifted, pinned_form,
                             pinned_form_lifted)
from oracles import random_graph, random_lifted, symmetric_lifted


def test_derived_states_share_the_layout():
    domain = mini_bookshelf_domain()
    l = domain.initial_state
    walk = domain.rule("walk")
    g = next(l.iter_groundings())
    derived = [lifted_apply(walk, l).outputs()[0][0],
               l.shifted({}),
               l.rebuild(bounded=l.bounded_edges),
               g,
               LiftedMultiHypergraph.from_graph(g),
               g.replace_edges(g.edge_dict()),
               apply(walk, g, ground_options(walk, g)[0])]
    assert all(s.layout is l.layout for s in derived)
    fresh = LiftedMultiHypergraph(list(l.vertices), l.fixed_edges, (), (),
                                  l.conservation_labels, l.conserved_vertex_labels)
    assert fresh.layout is not l.layout


def test_each_pattern_compiles_once_per_domain(monkeypatch):
    """Over a mini ``compare`` run, which also runs the ground oracle, each
    rule's pattern is compiled once, over its domain's initial layout."""
    compiles: Counter = Counter()
    compile_pattern = rewrite._compile_pattern

    def counted(pattern, layout):
        compiles[id(pattern), id(layout)] += 1
        return compile_pattern(pattern, layout)

    monkeypatch.setattr(rewrite, "_compile_pattern", counted)
    domains = [mini_bookshelf_domain(), mini_bookshelf_domain()]
    for domain in domains:
        trace, _ = generate_trace(domain, seed=3, length=12)
        assert not compare(domain, trace).divergent
    assert compiles == Counter({(id(r.pattern), id(d.initial_state.layout)): 1
                                for d in domains for r in d.rules})


def test_domains_with_the_same_ids_share_no_compiled_entry():
    """A second domain with the same vertex ids and the same rule objects,
    but ``floor`` and ``table`` relabelled the other way round, compiles its
    own entries after the first domain has filled its layout."""
    first = mini_bookshelf_domain()
    swap = {"floor": "table", "table": "floor"}
    l = first.initial_state
    second = dataclasses.replace(first, initial_state=LiftedMultiHypergraph(
        [Vertex(v.id, swap.get(v.label, v.label), v.multiplicity) for v in l.vertices],
        l.fixed_edges, l.bounded_edges, l.constraints,
        l.conservation_labels, l.conserved_vertex_labels))
    for domain in (first, second):
        trace, _ = generate_trace(domain, seed=1, length=10)
        assert not compare(domain, trace).divergent
    layouts = [d.initial_state.layout for d in (first, second)]
    entries = [{id(e) for e in layout.compiled.values()} for layout in layouts]
    assert entries[0] and entries[1] and not entries[0] & entries[1]
    install = first.rule("installEccentric").pattern
    assert [layout.compiled[id(install)][2]["T"] for layout in layouts] == [
        ["table"], ["floor"]]


def random_rule(rng: random.Random, state) -> Rule:
    """A rule over the state's vertex and edge labels: one to three pattern
    variables, up to two pattern edges, each retracted half the time, and
    up to two asserts over the variables, capped one time in three."""
    labels = sorted({v.label for v in state.vertices})
    edge_labels = sorted({e.label for e in state.fixed_edges + state.bounded_edges}
                         | {"new"})
    variables = [f"V{i}" for i in range(rng.randint(1, 3))]

    def label():
        pick = rng.randrange(3)
        if pick == 0:
            return None
        if pick == 1:
            return rng.choice(labels)
        return frozenset(rng.sample(labels, rng.randint(1, len(labels))))

    def over():
        return tuple(rng.choice(variables) for _ in range(rng.randint(1, 2)))

    pattern = Pattern(
        tuple(PatternVertex(x, label(), rng.choice([1, 1, 2])) for x in variables),
        tuple(PatternEdge(rng.choice(edge_labels), over())
              for _ in range(rng.randint(0, 2))))
    retract = tuple(EffectEdge(e.label, e.vars) for e in pattern.edges
                    if rng.random() < 0.5)
    assert_ = tuple(EffectEdge(rng.choice(edge_labels), over(), rng.randint(1, 2),
                               rng.choice([None, None, rng.randint(1, 3)]))
                    for _ in range(rng.randint(0, 2)))
    return Rule("random", pattern, Effect(retract, assert_))


def results(state, rule, pins) -> tuple:
    """Everything a compiled form feeds, computed on one state."""
    t = lifted_apply(rule, state)
    g = next(state.iter_groundings())
    return (ground_options(rule, state),
            t.n_applicable, t.n_groundings,
            [(s.canonical_form().data, p) for s, p in t.outputs()],
            canonical_form_lifted(state), pinned_form_lifted(state, pins),
            canonical_form(g), pinned_form(g, pins))


def test_a_warm_layout_gives_the_results_of_a_fresh_one():
    """On random states from the test oracle's generators and random rules,
    a state whose layout is already compiled gives the same matches,
    transition, successor bytes and probabilities, and canonical and pinned
    forms as an equal state built from a fresh vertex list."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def scenes(draw):
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        kind = draw(st.sampled_from(["lifted", "symmetric", "ground"]))
        if kind == "lifted":
            state = random_lifted(rng)
        elif kind == "symmetric":
            state = symmetric_lifted(lambda a, b: draw(st.integers(a, b)))
        else:
            state = LiftedMultiHypergraph.from_graph(random_graph(rng))
        hypothesis.assume(not state.is_empty)
        pinned = rng.sample(state.vertices, rng.randint(0, 2))
        return state, random_rule(rng, state), {v.id: i for i, v in enumerate(pinned)}

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(scenes())
    def check(scene):
        state, rule, pins = scene
        cold = results(state, rule, pins)
        warm = state.rebuild(bounded=state.bounded_edges)
        assert warm.layout is state.layout and warm.layout.compiled
        fresh = LiftedMultiHypergraph(
            list(state.vertices), state.fixed_edges, state.bounded_edges,
            state.constraints, state.conservation_labels,
            state.conserved_vertex_labels)
        assert fresh.layout is not state.layout
        assert results(warm, rule, pins) == cold == results(fresh, rule, pins)

    check()
