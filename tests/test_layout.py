"""Vertex layouts: every derived state shares its source's layout, each
rule compiles once per layout, compiled forms change no result, and a
state derived from another equals a fresh build while every construction
check still runs."""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from mhgfilter import (EffectEdge, Effect, EffectError, IntegrityError,
                       LiftedMultiHypergraph, Match, MultiHypergraph, Pattern,
                       PatternEdge, PatternVertex, Rule, StructuralError,
                       Vertex, apply, compare, filter_trace,
                       generate_trace, builtin_domain, ground_options,
                       index_vertices, lifted_apply)
from mhgfilter import rewrite
from mhgfilter.canon import (canonical_form, canonical_form_lifted, pinned_form,
                             pinned_form_lifted)
from oracles import (_admits, box_groundings, brute_fire, brute_matches,
                     brute_transition, fresh_layout, lifted_distribution,
                     lifted_state, random_graph, random_lifted, symmetric_lifted,
                     tv_distance)


def test_derived_states_share_the_layout():
    domain = builtin_domain("mini")
    l = domain.initial_state
    walk = domain.rule("walk")
    g = next(l.iter_groundings())
    derived = [lifted_apply(walk, l).outputs()[0][0],
               l.shifted({}),
               g,
               LiftedMultiHypergraph.from_graph(g),
               g.shifted({}),
               apply(walk, g, ground_options(walk, g)[0])]
    assert all(s.layout is l.layout for s in derived)
    assert l.layout.conservation_labels == {"at", "holds"}
    fresh = LiftedMultiHypergraph(list(l.vertices), l.bounds)
    assert fresh.layout is not l.layout


def test_a_layout_is_declared_once():
    """Conservation is declared when a layout is made from a vertex list.
    Declaring again on an existing layout raises; passed on alone, the
    layout keeps its declaration."""
    layout = index_vertices([Vertex("e", "screw", 2), Vertex("s", "slot")],
                            {"at"}, {"screw"})
    assert layout.conserved == {"e": 2}
    for again in (({"at"}, {"screw"}), ({"at"}, ()), ((), {"slot"})):
        with pytest.raises(StructuralError, match="declared once"):
            index_vertices(layout, *again)
    assert index_vertices(layout) is layout
    assert index_vertices(layout.vertices).conserved == {}
    assert index_vertices(layout.vertices, {"at"}).conserved == {}


def test_derived_states_keep_the_declaration():
    """States made by ``shifted``, of a lifted state or a grounding,
    ``from_graph`` and grounding share their source's layout, declaration
    included, so a derived state that breaks conservation still raises
    IntegrityError."""
    layout = index_vertices([Vertex("a", "agent"), Vertex("e", "screw", 2),
                             Vertex("s1", "slot"), Vertex("s2", "slot")],
                            {"at", "holds"}, {"screw"})
    at1, at2, held = ("at", ("e", "s1")), ("at", ("e", "s2")), ("holds", ("a", "e"))
    l = LiftedMultiHypergraph(layout, {at1: (0, 1), at2: (0, 1), held: (1, 1)},
                              [({at1, at2}, 1)])
    groundings = list(l.iter_groundings())
    g = groundings[0]
    derived = [l.shifted({}), l.shifted({held: -1}, (frozenset({at1, at2}), 2)),
               *groundings,
               g.shifted({}), LiftedMultiHypergraph.from_graph(g)]
    assert all(s.layout is layout for s in derived)
    for build in (lambda: l.shifted({held: -1}),
                  lambda: g.shifted({held: -1}),
                  lambda: g.shifted({k: 1 - g.edge_multiplicity(*k) for k in (at1, at2)})):
        with pytest.raises(IntegrityError, match="vertex 'e'"):
            build()
    # the same edges over an undeclared layout are a valid state
    MultiHypergraph(layout.vertices, {at1: 1, at2: 1, held: 1})


def test_each_rule_compiles_once_per_domain(monkeypatch):
    """Over a mini ``compare`` run, which also runs the ground oracle, each
    rule is compiled once, over its domain's initial layout, into one
    entry."""
    compiles: Counter = Counter()
    compiled = rewrite._compiled

    def counted(rule, layout):
        if id(rule) not in layout.compiled:
            compiles[id(rule), id(layout)] += 1
        return compiled(rule, layout)

    monkeypatch.setattr(rewrite, "_compiled", counted)
    domains = [builtin_domain("mini"), builtin_domain("mini")]
    for domain in domains:
        trace, _ = generate_trace(domain, seed=3, length=12)
        assert not compare(domain, trace).divergent
        entries = {k: e for k, e in domain.initial_state.layout.compiled.items()
                   if isinstance(e, rewrite._CompiledRule)}
        assert set(entries) == {id(r) for r in domain.rules}
        assert all(entries[id(r)].rule is r for r in domain.rules)
    assert compiles == Counter({(id(r), id(d.initial_state.layout)): 1
                                for d in domains for r in d.rules})


def test_domains_with_the_same_ids_share_no_compiled_entry():
    """A second domain with the same vertex ids and the same rule objects,
    but ``floor`` and ``table`` relabelled the other way round, compiles its
    own entries after the first domain has filled its layout."""
    first = builtin_domain("mini")
    swap = {"floor": "table", "table": "floor"}
    l = first.initial_state
    second = dataclasses.replace(first, initial_state=LiftedMultiHypergraph(
        fresh_layout(l, [Vertex(v.id, swap.get(v.label, v.label), v.multiplicity)
                         for v in l.vertices]),
        l.bounds, l._groups()))
    for domain in (first, second):
        trace, _ = generate_trace(domain, seed=1, length=10)
        assert not compare(domain, trace).divergent
    layouts = [d.initial_state.layout for d in (first, second)]
    entries = [{id(e) for e in layout.compiled.values()} for layout in layouts]
    assert entries[0] and entries[1] and not entries[0] & entries[1]
    install = first.rule("installEccentric")
    assert [layout.compiled[id(install)].candidates["T"] for layout in layouts] == [
        ["table"], ["floor"]]


def random_rule(rng: random.Random, state) -> Rule:
    """A rule over the state's vertex and edge labels: one to three pattern
    variables, up to two pattern edges, each retracted half the time, and
    up to two asserts over the variables, capped one time in three.  Three
    pattern edges in four copy one of the state's edges onto the variables, and
    the variables they use admit its vertices, so that some assignment can
    meet them."""
    labels = sorted({v.label for v in state.vertices})
    # the state's keys, fixed ones first
    present = sorted(state.bounds,
                     key=lambda k: (state.bounds[k][0] < state.bounds[k][1], k))
    edge_labels = sorted({label for label, _ in present} | {"new"})
    variables = [f"V{i}" for i in range(rng.randint(1, 3))]
    witness: dict[str, Vertex] = {}     # variable -> a vertex it should admit

    def over():
        return tuple(rng.choice(variables) for _ in range(rng.randint(1, 2)))

    def pattern_edge():
        e = rng.choice(present) if present and rng.random() < 0.75 else None
        ids = sorted(set(e[1])) if e is not None else ()
        if not ids or len(ids) > len(variables):
            return PatternEdge(rng.choice(edge_labels), over())
        names = dict(zip(ids, rng.sample(variables, len(ids))))
        for vid, var in names.items():
            witness.setdefault(var, state.vertex(vid))
        return PatternEdge(e[0], tuple(names[x] for x in e[1]), rng.choice([1, 1, 2]))

    def pattern_vertex(var):
        v = witness.get(var)
        pick = rng.randrange(3)
        if pick == 0:
            label = None
        elif pick == 1:
            label = v.label if v else rng.choice(labels)
        else:
            label = frozenset(rng.sample(labels, rng.randint(1, len(labels)))
                              + ([v.label] if v else []))
        return PatternVertex(var, label, rng.randint(1, min(2, v.multiplicity))
                             if v else rng.choice([1, 1, 2]))

    edges = tuple(pattern_edge() for _ in range(rng.randint(0, 2)))
    pattern = Pattern(tuple(pattern_vertex(x) for x in variables), edges)
    retract = tuple(EffectEdge(e.label, e.vars) for e in pattern.edges
                    if rng.random() < 0.5)
    assert_ = tuple(EffectEdge(rng.choice(edge_labels), over(), rng.randint(1, 2),
                               rng.choice([None, None, rng.randint(1, 3)]))
                    for _ in range(rng.randint(0, 2)))
    return Rule("random", pattern, Effect(retract, assert_))


def oracle_state(draw, rng) -> LiftedMultiHypergraph:
    """A lifted state from one of the test oracle's generators, picked and
    driven by Hypothesis's ``draw`` and by ``rng``."""
    from hypothesis import strategies as st
    kind = draw(st.sampled_from(["lifted", "symmetric", "ground"]))
    if kind == "lifted":
        return random_lifted(rng)
    if kind == "symmetric":
        return symmetric_lifted(lambda a, b: draw(st.integers(a, b)))
    return LiftedMultiHypergraph.from_graph(random_graph(rng))


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
        rng = draw(st.randoms(use_true_random=True))
        state = oracle_state(draw, rng)
        hypothesis.assume(not state.is_empty)
        pinned = rng.sample(state.vertices, rng.randint(0, 2))
        return state, random_rule(rng, state), {v.id: i for i, v in enumerate(pinned)}

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(scenes())
    def check(scene):
        state, rule, pins = scene
        cold = results(state, rule, pins)
        warm = state.shifted({})
        assert warm.layout is state.layout and warm.layout.compiled
        fresh = LiftedMultiHypergraph(fresh_layout(state), state.bounds,
                                      state._groups())
        assert fresh.layout is not state.layout
        assert results(warm, rule, pins) == cold == results(fresh, rule, pins)

    check()


def test_matches_and_transitions_equal_the_brute_force_reference():
    """On random states from the test oracle's generators and four random
    rules each, the match tree's matches, ``ground_options``, the
    ``lifted_apply`` counts and its ``outputs`` equal the brute-force
    reference, on a cold layout and again on one whose trees and effect
    keys grew on other states: the state's groundings, each checked
    against the reference too.  On each grounding, ``apply`` at a sure
    match gives the reference's successor when the match is an option and
    raises EffectError otherwise; at random assignments that are not
    matches it raises EffectError, and one that does not bind each variable
    to a distinct candidate leaves the rule's caches as they were."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def scenes(draw):
        rng = draw(st.randoms(use_true_random=True))
        state = oracle_state(draw, rng)
        hypothesis.assume(not state.is_empty)
        return state, [random_rule(rng, state) for _ in range(4)]

    draws = random.Random(0)    # the non-matches' own stream
    drawn: Counter = Counter()  # non-matches drawn, by whether they bind

    def check_state(rule, state, want_options):
        matches = rewrite._raw_matches(rewrite._compiled(rule, state.layout), state)
        assert [(m.assignment, sure) for m, sure in matches] == brute_matches(
            rule.pattern, state)
        options = ground_options(rule, state)
        assert [m.assignment for m in options] == want_options
        return [m for m, sure in matches if sure], options

    def check_apply(rule, g):
        """``apply`` fires exactly at the options, as the reference does."""
        sure, options = check_state(rule, g, brute_transition(
            rule, LiftedMultiHypergraph.from_graph(g))[0])
        for m in sure:
            if m in options:
                assert apply(rule, g, m).edge_dict() == brute_fire(
                    rule.effect, g.edge_dict(), m.as_dict())
            else:
                with pytest.raises(EffectError):
                    apply(rule, g, m)
        # random non-matches: mostly admitted vertices, sometimes any id or
        # an unknown one, and sometimes a variable too few or too many
        c = rewrite._compiled(rule, g.layout)
        admitted = {pv.var: [v.id for v in g.vertices if _admits(pv, v)]
                    for pv in rule.pattern.vertices}
        ids = [v.id for v in g.vertices] + ["ghost"]
        for _ in range(4):
            names = list(admitted)
            if draws.random() < 0.2:
                names = names[1:] if names and draws.random() < 0.5 else names + ["W"]
            m = Match(tuple((x, draws.choice(admitted[x] if admitted.get(x)
                                             and draws.random() < 0.7 else ids))
                            for x in names))
            if m in sure:
                continue
            binds = (set(names) == set(admitted)
                     and len({vid for _, vid in m.assignment}) == len(names)
                     and all(vid in admitted[x] for x, vid in m.assignment))
            drawn[binds] += 1
            before = (len(c.keys), len(c.pattern_keys))  # caches only grow
            with pytest.raises(EffectError):
                apply(rule, g, m)
            if not binds:
                assert (len(c.keys), len(c.pattern_keys)) == before

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(scenes())
    def check(scene):
        state, rules = scene
        for rule in rules:
            options, n_app, n_tot, dist = brute_transition(rule, state)
            assert id(rule) not in state.layout.compiled
            for l in (state, state.shifted({})):
                check_state(rule, l, options)
                t = lifted_apply(rule, l)
                assert (t.n_applicable, t.n_groundings) == (n_app, n_tot)
                assert tv_distance(lifted_distribution(t.outputs()), dist) <= 1e-9
                for g in itertools.islice(state.iter_groundings(), 6):
                    check_apply(rule, g)

    check()
    assert drawn[True] and drawn[False]


def test_an_unknown_vertex_in_an_effect_raises_on_every_call():
    g = MultiHypergraph([Vertex("a", "agent"), Vertex("e", "screw")],
                        {("holds", ("a", "e")): 1})
    rule = Rule("drop", Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw")),
                                (PatternEdge("holds", ("A", "E")),)),
                Effect(retract=(EffectEdge("holds", ("A", "E")),),
                       assert_=(EffectEdge("at", ("E", "floor")),)))
    m = Match((("A", "a"), ("E", "e")))
    l = LiftedMultiHypergraph.from_graph(g)
    unmatched = MultiHypergraph(list(g.vertices))   # no holds edge, no match
    for call in (lambda: ground_options(rule, g), lambda: apply(rule, g, m),
                 lambda: lifted_apply(rule, l),
                 lambda: ground_options(rule, unmatched)):
        for _ in range(2):
            with pytest.raises(EffectError, match="unknown vertex 'floor'"):
                call()
    assert id(rule) not in g.layout.compiled


def test_a_pattern_without_variables_matches_once():
    g = MultiHypergraph([Vertex("a", "agent")])
    rule = Rule("mark", Pattern(), Effect(assert_=(EffectEdge("marked", ("a",)),)))
    l = LiftedMultiHypergraph.from_graph(g)
    for _ in range(2):
        assert ground_options(rule, g) == [Match(())]
        assert apply(rule, g, Match(())).edge_dict() == {("marked", ("a",)): 1}
        t = lifted_apply(rule, l)
        assert (t.n_applicable, t.n_groundings) == (1, 1)
        [(h, p)] = t.outputs()
        assert p == 1.0 and h.multiplicity_bounds(("marked", ("a",))) == (1, 1)


# -- derived states and fresh builds --------------------------------------------

def fresh_vertices(state):
    """A new layout over fresh copies of the state's vertices, with its
    conservation declaration."""
    return fresh_layout(state, [Vertex(v.id, v.label, v.multiplicity)
                                for v in state.vertices])


def fresh_ground(state, mults) -> MultiHypergraph:
    """The ground state with these edge multiplicities, built by the public
    constructor from fresh vertices."""
    return MultiHypergraph(fresh_vertices(state),
                           {k: m for k, m in mults.items() if m > 0})


def fresh_lifted(state, fixed, bounds, totals) -> LiftedMultiHypergraph:
    """The lifted state with these fixed multiplicities, bounds and groups
    (keys -> total), built from fresh vertices."""
    return lifted_state(fresh_vertices(state),
                        {k: m for k, m in fixed.items() if m > 0}, bounds,
                        totals.items())


def assert_same(derived, fresh):
    """``derived`` equals ``fresh`` in its bounds map, groups and grounding
    count and by canonical bytes."""
    assert derived.layout is not fresh.layout
    if isinstance(fresh, MultiHypergraph):
        assert derived == fresh and hash(derived) == hash(fresh)
    assert derived._groups() == fresh._groups()
    assert derived.is_empty == fresh.is_empty
    assert derived.canonical_form().data == fresh.canonical_form().data
    assert derived.bounds == fresh.bounds
    assert derived.count_groundings() == fresh.count_groundings()
    for k in fresh.bounds:
        assert derived.multiplicity_bounds(k) == fresh.multiplicity_bounds(k)
        assert derived.group_of(k) == fresh.group_of(k)


def assert_same_or_both_raise(derive, build):
    """``derive()`` equals the fresh ``build()``, or both raise
    IntegrityError with the same message."""
    try:
        fresh = build()
    except IntegrityError as e:
        with pytest.raises(IntegrityError) as got:
            derive()
        assert str(got.value) == str(e)
        return False
    assert_same(derive(), fresh)
    return True


def parts(l: LiftedMultiHypergraph):
    """(fixed multiplicities, bounds of the other keys, groups) of a lifted
    state, each in key order."""
    items = sorted(l.bounds.items())
    return ({k: lo for k, (lo, up) in items if lo == up},
            {k: (lo, up) for k, (lo, up) in items if lo < up},
            {c.edge_keys: c.total for c in l._groups()})


SPARE = ("spare_a", "spare_b")    # conserved edge labels of no edge


def declared(l: LiftedMultiHypergraph, rng) -> LiftedMultiHypergraph:
    """``l`` over a new layout that declares conservation: on a random subset
    of its edge labels and the ``SPARE`` ones, for a random subset of the
    vertex labels whose every vertex has one conserved sum, at least 1, in
    all groundings; each such vertex's multiplicity becomes that sum."""
    fixed, bounds, _ = parts(l)
    edge_labels = {k[0] for k in (*fixed, *bounds) if rng.random() < 0.6} | set(SPARE)
    sums: dict[str, set[int]] = {v.id: set() for v in l.vertices}
    for g in box_groundings(l):
        for vid in sums:
            sums[vid].add(sum(m * incidence.count(vid)
                              for (label, incidence), m in g.edge_dict().items()
                              if label in edge_labels))
    by_label: dict[str, list[str]] = {}
    for v in l.vertices:
        by_label.setdefault(v.label, []).append(v.id)
    vertex_labels = {label for label, ids in by_label.items()
                     if all(len(sums[i]) == 1 and min(sums[i]) >= 1 for i in ids)
                     and rng.random() < 0.8}
    vertices = [Vertex(v.id, v.label, min(sums[v.id]) if v.label in vertex_labels
                       else v.multiplicity) for v in l.vertices]
    return LiftedMultiHypergraph(index_vertices(vertices, edge_labels, vertex_labels),
                                 l.bounds, l._groups())


def test_derived_states_equal_fresh_builds():
    """On random states from the test oracle's generators, half of them
    declaring conservation, every state built from another -- by
    ``conditioned``, ``shifted`` (of the state and of its groundings),
    ``iter_groundings``, the constructor over its layout and ``from_graph``
    -- equals the state the public constructors build from fresh vertices
    or raises IntegrityError with its message.  A
    key given with unsorted incidence is read in sorted order.  An
    infeasible step gives the empty state, and a step group that partly
    overlaps a group raises."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def scenes(draw):
        rng = draw(st.randoms(use_true_random=True))
        state = oracle_state(draw, rng)
        hypothesis.assume(not state.is_empty)
        if draw(st.booleans()):
            state = declared(state, rng)
        return state, rng

    outcomes: Counter = Counter()

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(scenes())
    def check(scene):
        l, rng = scene
        l.count_groundings()    # a derived state carries the unchanged counts
        fixed, bounds, groups = parts(l)
        ids = [v.id for v in l.vertices]

        # one bounded edge narrowed to one value: by the constructor over the
        # layout, and by conditioning
        if bounds:
            k = rng.choice(sorted(bounds))
            v = rng.randint(*bounds[k])
            narrowed = {**bounds, k: (v, v)}
            fresh = fresh_lifted(l, fixed, narrowed, groups)
            assert_same(LiftedMultiHypergraph(l.layout, {**l.bounds, k: (v, v)},
                                              l._groups()), fresh)
            assert_same(l.conditioned(k, v), fresh)
            assert l.conditioned(k, bounds[k][1] + 1).is_empty

        # shifted: a fixed key and a bounded key move, and the step's group
        # is an existing one whose total after the delta rises by one, fresh
        # keys that open a group of total 1, a fixed edge's unit moved into
        # a group of two spare-labelled edges over its incidence (or two
        # units: conservation breaks), a group that no grounding meets, or
        # none
        delta = {}
        kinds = ["fresh", "infeasible", None] + ["grow"] * bool(groups)
        # fixed keys at a conserved vertex, when there are any
        touching = [k for k in sorted(fixed) if set(k[1]) & l.layout.conserved.keys()]
        if fixed:
            k = rng.choice(touching or sorted(fixed))
            delta[k] = rng.choice([-fixed[k], -1, 1])
            kinds.append("transfer")
        if bounds:
            k = rng.choice(sorted(bounds))
            delta[k] = rng.choice([-bounds[k][0], 1])
        kind = rng.choice(kinds)
        if kind == "transfer":
            k = rng.choice(touching or sorted(fixed))
            delta = {k: -1}
        want_fixed, want_bounds, want_groups = dict(fixed), dict(bounds), dict(groups)
        for k, d in delta.items():
            if k in bounds:
                want_bounds[k] = (bounds[k][0] + d, bounds[k][1] + d)
                for keys, t in groups.items():
                    if k in keys:
                        want_groups[keys] = t + d
            else:
                want_fixed[k] += d
        fresh = frozenset({("fresh", (rng.choice(ids),)), ("fresh", tuple(ids[:2]))})
        group = None
        if kind == "grow":
            keys = rng.choice(sorted(groups, key=sorted))
            group = (keys, want_groups[keys] + 1)
            # the same keys with fresh ones added, or some of them, overlap
            # the group
            for overlapping in (keys | fresh, frozenset(sorted(keys)[1:])):
                with pytest.raises(StructuralError, match="overlap"):
                    l.shifted(delta, (overlapping, 1))
        elif kind in ("fresh", "infeasible"):
            group = (fresh, 1 if kind == "fresh" else len(fresh) + 1)
        elif kind == "transfer":
            group = (frozenset((label, k[1]) for label in SPARE), rng.choice([1, 1, 2]))
        if group is not None:
            want_bounds.update((k, (0, 1)) for k in group[0] if k not in bounds)
            want_groups[group[0]] = group[1]
        conserved = assert_same_or_both_raise(
            lambda: l.shifted(delta, group),
            lambda: fresh_lifted(l, want_fixed, want_bounds, want_groups))
        outcomes[kind, conserved] += 1
        if kind == "infeasible":
            assert l.shifted(delta, group).is_empty

        # iter_groundings, then from_graph and shifted on groundings
        expected = {frozenset(g.edge_dict().items()): g for g in box_groundings(l)}
        groundings = list(l.iter_groundings())
        assert len(groundings) == len(expected) == l.count_groundings()
        for g in itertools.islice(groundings, 8):
            assert_same(g, expected[frozenset(g.edge_dict().items())])
            mults = g.edge_dict()
            assert_same(LiftedMultiHypergraph.from_graph(g),
                        fresh_lifted(g, mults, {}, {}))
            changes = {}    # the keys moved; the others keep their edges
            if mults:
                changes[rng.choice(sorted(mults))] = rng.randrange(4)
            changes["fresh", (ids[-1], ids[0])] = rng.randrange(1, 3)
            outcomes["ground", assert_same_or_both_raise(
                lambda: g.shifted({k: m - mults.get(k, 0) for k, m in changes.items()}),
                lambda: fresh_ground(g, {**mults, **changes}))] += 1

    check()
    # conserving and violating steps both come up, for each kind of group
    assert all(outcomes[kind, ok] for kind in ("grow", "fresh", "transfer", None,
                                               "ground") for ok in (True, False))


def test_groundings_equal_constructor_builds():
    """On random states from the test oracle's generators, half of them
    declaring conservation, and on a state conditioned from each, every
    grounding -- built from the state's parts, with no conservation check
    of its own -- equals the graph the constructor builds over the same
    layout from its edges, whose check passes.  Its multiplicity map,
    bounds map and hash agree too."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def scenes(draw):
        rng = draw(st.randoms(use_true_random=True))
        state = oracle_state(draw, rng)
        hypothesis.assume(not state.is_empty)
        if draw(st.booleans()):
            state = declared(state, rng)
        return state, rng

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(scenes())
    def check(scene):
        l, rng = scene
        states = [l]
        bounded = sorted(k for k, (lo, up) in l.bounds.items() if lo < up)
        if bounded:
            k = rng.choice(bounded)
            states.append(l.conditioned(k, rng.randint(*l.bounds[k])))
        for state in states:
            for g in state.iter_groundings():
                built = MultiHypergraph(state.layout, g.edge_dict())
                assert g == built and hash(g) == hash(built)
                assert g.edge_dict() == built.edge_dict()
                assert g.bounds == built.bounds

    check()


def test_a_key_checked_in_one_layout_is_checked_again_in_another():
    key = ("at", ("a", "b"))
    MultiHypergraph([Vertex("a", "x"), Vertex("b", "y")], {key: 1})
    b = MultiHypergraph([Vertex("a", "x"), Vertex("c", "y")])
    for build in (lambda: MultiHypergraph(b.layout, {key: 1}),
                  lambda: LiftedMultiHypergraph(b.layout, {key: (1, 1)}),
                  lambda: b.shifted({key: 1}),
                  lambda: b.shifted({}, ([key], 1))):
        with pytest.raises(StructuralError, match="unknown vertex 'b'"):
            build()


def test_shifted_still_checks_conservation():
    g = MultiHypergraph(index_vertices([Vertex("e", "screw", 2), Vertex("s", "slot")],
                                       {"at"}, {"screw"}),
                        {("at", ("e", "s")): 2})
    for _ in range(2):  # a failed shift leaves the state as it was
        with pytest.raises(IntegrityError, match=r"vertex 'e' \(screw\): conserved "
                           r"multiplicity sum ranges over \[1, 1\] across "
                           r"groundings, expected exactly 2"):
            g.shifted({("at", ("e", "s")): -1})
    assert g.shifted(dict.fromkeys(g.edge_dict(), 0)) == g


def test_duplicate_keys_still_sum_and_incidence_still_sorts():
    """``shifted`` sums the deltas of one key given in two incidence
    orders, and every entry point reads a key sorted.  The constructors
    reject a key given twice instead; the domain parser sums such
    ``edges`` entries."""
    g = MultiHypergraph([Vertex("a", "x"), Vertex("b", "y")], {("at", ("b", "a")): 1})
    assert g.edge_dict() == {("at", ("a", "b")): 1}
    twice = {("at", ("b", "a")): 1, ("at", ("a", "b")): 2}
    for build in (lambda: MultiHypergraph(g.layout, twice),
                  lambda: LiftedMultiHypergraph(
                      g.layout, {k: (0, m) for k, m in twice.items()})):
        with pytest.raises(StructuralError, match="duplicate"):
            build()
    unsorted = g.shifted({("at", ("b", "a")): 2, ("at", ("a", "b")): 1})
    assert unsorted.edge_dict() == {("at", ("a", "b")): 4}
    assert unsorted.edge_multiplicity("at", ("b", "a")) == 4
    assert unsorted.multiplicity_bounds(("at", ("a", "b"))) == (4, 4)
    # a lifted state's shift and step group read keys the same way
    l = LiftedMultiHypergraph([Vertex("a", "x"), Vertex("b", "y")])
    once = l.shifted({("at", ("b", "a")): 1})
    assert once.bounds == {("at", ("a", "b")): (1, 1)}
    grouped = l.shifted({}, ([("at", ("b", "a")), ("on", ("a",))], 1))
    assert grouped._groups() == [({("at", ("a", "b")), ("on", ("a",))}, 1)]
    assert grouped.multiplicity_bounds(("at", ("a", "b"))) == (0, 1)


def test_all_states_of_a_compare_share_equal_edges(monkeypatch):
    """Over one mini ``compare``, every state, whether built by a
    constructor or derived from another state, shares the initial layout
    and holds only keys over its vertices, with 0 <= lower <= upper."""
    states = []
    for cls in (MultiHypergraph, LiftedMultiHypergraph):
        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            states.append(self)
        monkeypatch.setattr(cls, "__init__", recording)
    # a ground state derives by the lifted methods: ``apply`` shifts
    for cls, name in ((LiftedMultiHypergraph, "shifted"),
                      (LiftedMultiHypergraph, "conditioned")):
        def derived(*args, _derive=getattr(cls, name), **kwargs):
            states.append(_derive(*args, **kwargs))
            return states[-1]
        monkeypatch.setattr(cls, name, derived)
    domain = builtin_domain("mini")
    trace, _ = generate_trace(domain, seed=3, length=12)
    assert not compare(domain, trace).divergent
    assert {type(s) for s in states} == {MultiHypergraph, LiftedMultiHypergraph}
    edges = set()
    for s in states:
        assert s.layout is domain.initial_state.layout
        assert all(v in s.layout.by_id for _, incidence in s.bounds for v in incidence)
        assert all(0 <= lo <= up for lo, up in s.bounds.values())
        edges.update((k, lo) for k, (lo, up) in s.bounds.items() if lo == up)
    assert len(edges) > 10


def test_filtering_derives_every_state(monkeypatch):
    """Filtering a 30-step bookshelf ``install_heavy`` trace, whose belief
    grows to thousands of groundings, runs the lifted constructor for no
    state: each successor and each conditioned state is derived from its
    predecessor's parts."""
    domain = builtin_domain("bookshelf")
    trace, _ = generate_trace(domain, seed=0, length=30, policy="install_heavy")
    runs = []
    init = LiftedMultiHypergraph.__init__

    def counted(self, *args, **kwargs):
        runs.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LiftedMultiHypergraph, "__init__", counted)
    result = filter_trace(domain, trace)
    assert max(s.ground_count for s in result.stats) == 3432
    assert len(runs) == 0
