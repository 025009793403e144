from __future__ import annotations

import itertools
import math
import random
from collections.abc import Mapping

import pytest

from mhgfilter import (MAX_GROUNDINGS, Effect, EffectEdge, EnumerationLimitError,
                       IntegrityError, LiftedMultiHypergraph, Match, MultiHypergraph,
                       Pattern, PatternEdge, PatternVertex, Rule, StructuralError,
                       Vertex, apply, builtin_domain, filter_trace, generate_trace,
                       index_vertices)
from mhgfilter.canon import canonical_form_lifted
from mhgfilter.lifted import _CONTENT_MEMOS, _count_compositions
from oracles import box_groundings, lifted_state, random_lifted, raw_groundings


def hull_example():
    """Two bounded piles of four screws with a shared exact total."""
    return LiftedMultiHypergraph(
        [Vertex("e", "screw", 4), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        {("at", ("e", "s1")): (0, 2), ("at", ("e", "s2")): (0, 4)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 4)])


def test_bounded_edge_validation():
    vertices = [Vertex("a", "x"), Vertex("b", "y")]
    for bad in ({("", ("a",)): (0, 1)}, {("at", ()): (0, 1)},
                {("at", ("a",)): (-1, 1)}, {("at", ("a",)): (2, 1)},
                {("at", ("a", "ghost")): (0, 1)}):
        with pytest.raises(StructuralError):
            LiftedMultiHypergraph(vertices, bad)
    at, on = ("at", ("b", "a")), ("on", ("b",))
    l = LiftedMultiHypergraph(vertices, {at: (0, 1), on: (0, 1)}, [([at, on], 1)])
    assert l.bounds == {("at", ("a", "b")): (0, 1), ("on", ("b",)): (0, 1)}
    assert l.group_of(("at", ("a", "b"))).total == 1


def test_total_constraint_validation():
    with pytest.raises(StructuralError, match="negative"):
        LiftedMultiHypergraph([Vertex("a", "x")], {("at", ("a",)): (0, 1)},
                              [({("at", ("a",))}, -1)])


def test_duplicate_bounded_keys_rejected():
    with pytest.raises(StructuralError, match="duplicate"):
        LiftedMultiHypergraph([Vertex("a", "x"), Vertex("b", "y")],
                              {("at", ("a", "b")): (0, 1), ("at", ("b", "a")): (0, 2)})


def test_constraint_must_reference_known_edges():
    with pytest.raises(StructuralError):
        LiftedMultiHypergraph([Vertex("a", "x")], {("at", ("a",)): (0, 1)},
                              [({("at", ("b",))}, 1)])


def test_overlapping_groups_rejected():
    key1, key2 = ("at", ("a",)), ("on", ("a",))
    with pytest.raises(StructuralError):
        LiftedMultiHypergraph([Vertex("a", "x")], {key1: (0, 1), key2: (0, 1)},
                              [({key1, key2}, 1), ({key1}, 1)])


def test_degenerate_bounds_become_fixed():
    l = LiftedMultiHypergraph([Vertex("a", "x")],
                              {("at", ("a",)): (2, 2), ("on", ("a",)): (0, 0)})
    assert l.bounds == {("at", ("a",)): (2, 2)}
    assert l.count_groundings() == 1


def test_saturated_group_collapses_to_fixed():
    l = LiftedMultiHypergraph(
        [Vertex("a", "x"), Vertex("b", "y")],
        {("at", ("a",)): (0, 1), ("at", ("b",)): (0, 1)},
        [({("at", ("a",)), ("at", ("b",))}, 2)])
    assert l.group_of(("at", ("a",))) is None
    assert l.bounds == {("at", ("a",)): (1, 1), ("at", ("b",)): (1, 1)}


def test_infeasible_total_yields_empty_state():
    l = LiftedMultiHypergraph(
        [Vertex("a", "x"), Vertex("b", "y")],
        {("at", ("a",)): (0, 1), ("at", ("b",)): (0, 1)},
        [({("at", ("a",)), ("at", ("b",))}, 3)])
    assert l.is_empty
    assert l.count_groundings() == 0
    assert l.groundings() == []
    assert l.canonical_form().data == b"\x00empty"
    assert repr(l) == "LiftedMultiHypergraph(empty)"
    assert l.shifted({("at", ("a",)): 1}) is l


def test_constraint_over_no_edges_must_total_zero():
    l = LiftedMultiHypergraph([Vertex("a", "x")], {}, [((), 0)])
    assert not l.is_empty and not l.bounds
    l = LiftedMultiHypergraph([Vertex("a", "x")], {}, [((), 1)])
    assert l.is_empty


def test_composition_count_equals_the_brute_force_product():
    """The count of tuples within bounds that meet a total equals a
    brute-force pass over the product of the ranges, with zero-width
    members, totals outside the range and no members at all, and for groups
    of unit-width members, which are counted as C(n, t), up to slot sizes."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    def brute(bounds, total):
        return sum(sum(xs) == total for xs in itertools.product(
            *(range(lo, up + 1) for lo, up in bounds)))

    assert _count_compositions([], 0) == 1
    assert _count_compositions([], 1) == 0
    assert _count_compositions([(2, 2), (0, 1)], 2) == 1
    for total in range(16):
        assert _count_compositions([(0, 1)] * 14, total) == math.comb(14, total)
    assert _count_compositions([(1, 2)] * 6, 9) == math.comb(6, 3)

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               max_size=5),
                      st.integers(-2, 32))
    def check(spans, total):
        bounds = [(lo, lo + width) for lo, width in spans]
        assert _count_compositions(bounds, total) == brute(bounds, total)

    @st.composite
    def unit_groups(draw):
        bounds = [(lo, lo + 1) for lo in draw(
            st.lists(st.integers(0, 2), min_size=1, max_size=10))]
        base = sum(lo for lo, _ in bounds)
        return bounds, draw(st.integers(-1, len(bounds) + base + 1))

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(unit_groups())
    def check_unit(group):
        bounds, total = group
        assert _count_compositions(bounds, total) == brute(bounds, total)

    check()
    check_unit()


def test_bound_hull_is_tightened():
    l = hull_example()
    assert sorted(l.bounds.values()) == [(0, 2), (2, 4)]
    assert l.count_groundings() == 3


def test_hull_example_grounds_to_three_states():
    grounds = hull_example().groundings()
    assert len(grounds) == 3
    splits = sorted((g.edge_multiplicity("at", ("e", "s1")),
                     g.edge_multiplicity("at", ("e", "s2"))) for g in grounds)
    assert splits == [(0, 4), (1, 3), (2, 2)]


def test_grounding_count_matches_enumeration():
    rng = random.Random(20260814)
    for _ in range(150):
        l = random_lifted(rng)
        brute = box_groundings(l)
        assert l.count_groundings() == len(brute)
        mine = [g.canonical_form().data for g in l.groundings()]
        assert sorted(mine) == sorted(g.canonical_form().data for g in brute)


def test_groundings_sorted_by_canonical_form():
    rng = random.Random(11)
    for _ in range(20):
        keys = [g.canonical_form().data for g in random_lifted(rng).groundings()]
        assert keys == sorted(keys)


def test_conservation_must_pin_the_sum():
    layout = index_vertices([Vertex("e", "screw", 2), Vertex("s1", "slot_a"),
                             Vertex("s2", "slot_b")], ("at",), ("screw",))
    s1, s2 = ("at", ("e", "s1")), ("at", ("e", "s2"))
    bounded = {s1: (0, 2), s2: (0, 2)}
    l = LiftedMultiHypergraph(layout, bounded, [({s1, s2}, 2)])
    assert l.count_groundings() == 3
    with pytest.raises(IntegrityError):
        LiftedMultiHypergraph(layout, bounded)
    with pytest.raises(IntegrityError):
        LiftedMultiHypergraph(layout, {s1: (1, 3), s2: (0, 2)}, [({s2}, 2)])


def test_from_graph_and_skeleton():
    g = MultiHypergraph(
        index_vertices([Vertex("a", "agent"), Vertex("t", "table"),
                        Vertex("e", "screw", 2)], ("at",), ("screw",)),
        {("at", ("a", "t")): 1, ("at", ("e", "t")): 2})
    l = LiftedMultiHypergraph.from_graph(g)
    assert l.bounds == {("at", ("a", "t")): (1, 1), ("at", ("e", "t")): (2, 2)}
    assert l.count_groundings() == 1
    assert l.groundings()[0] == g
    assert l.layout is g.layout
    assert l.layout.conservation_labels == {"at"}
    assert l.layout.conserved_vertex_labels == {"screw"}


def test_derivations_keep_the_ground_class_and_tag():
    """A ground state is a lifted state without bounded edges.  ``apply``,
    ``shifted`` and ``conditioned`` of one give a ground state whose ground
    bytes equal a fresh constructor build's; a step that leaves a key
    bounded, or no grounding, gives a plain lifted state; ``from_graph``
    gives a plain lifted state with the lifted bytes; and the ground
    constructor takes no bounded edges."""
    declared = ({"at", "holds"}, {"screw"})

    def fresh_layout():
        return index_vertices([Vertex("a", "agent"), Vertex("e", "screw"),
                               Vertex("s", "slot"), Vertex("t", "slot")], *declared)

    held, at_s, at_t = ("holds", ("a", "e")), ("at", ("e", "s")), ("at", ("e", "t"))
    g = MultiHypergraph(fresh_layout(), {held: 1})
    drop = Rule("drop", Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw"),
                                 PatternVertex("S", "slot")),
                                (PatternEdge("holds", ("A", "E")),)),
                Effect(retract=(EffectEdge("holds", ("A", "E")),),
                       assert_=(EffectEdge("at", ("E", "S")),)))
    derived = [(apply(drop, g, Match((("A", "a"), ("E", "e"), ("S", "s")))), at_s),
               (g.shifted({held: -1, at_t: 1}), at_t),
               (g.conditioned(held, 1), held)]
    for h, key in derived:
        fresh = MultiHypergraph(fresh_layout(), {key: 1})
        assert type(h) is MultiHypergraph and h == fresh
        assert h.canonical_form().data[0] == 0x01
        assert h.canonical_form().data == fresh.canonical_form().data

    lifted = [g.shifted({held: -1}, ({at_s, at_t}, 1)), g.conditioned(held, 0),
              LiftedMultiHypergraph.from_graph(g)]
    assert all(type(h) is LiftedMultiHypergraph for h in lifted)
    assert lifted[0].count_groundings() == 2 and lifted[1].is_empty
    l = lifted[2]
    assert l.bounds == {held: (1, 1)}
    assert l.canonical_form().data[0] == 0x02
    assert l.canonical_form().data == canonical_form_lifted(
        LiftedMultiHypergraph(fresh_layout(), {held: (1, 1)})).data
    with pytest.raises(TypeError):
        MultiHypergraph(fresh_layout(), {}, [({at_s}, 1)])


def test_a_state_over_the_same_layout_replaces_parts():
    l = hull_example()
    s1, s2 = ("at", ("e", "s1")), ("at", ("e", "s2"))
    loosened = LiftedMultiHypergraph(l.layout, {s1: (0, 4), s2: (0, 4)},
                                     [l.group_of(s1)])
    assert loosened.count_groundings() == 5
    assert loosened.vertices == l.vertices


def test_shifted_moves_every_grounding_by_the_delta():
    rng = random.Random(11)
    for _ in range(200):
        l = random_lifted(rng)
        keys = sorted(l.bounds.keys() | {("e0", ("v0",))})
        delta = {k: rng.randint(-l.multiplicity_bounds(k)[0], 2)
                 for k in rng.sample(keys, rng.randint(1, len(keys)))}
        expected = []
        for g in l.iter_groundings():
            mults = g.edge_dict()
            for k, d in delta.items():
                mults[k] = mults.get(k, 0) + d
            expected.append(sorted((k, m) for k, m in mults.items() if m))
        moved = l.shifted(delta)
        assert sorted(sorted(g.edge_dict().items())
                      for g in moved.iter_groundings()) == sorted(expected)


def test_shifted_grows_a_group_and_adds_fresh_ones():
    l = hull_example()
    s1, s2 = ("at", ("e", "s1")), ("at", ("e", "s2"))
    g = l.group_of(s1)
    for total in (g.total + 1, g.total - 1):
        moved = l.shifted({}, (g.edge_keys, total))
        assert moved.group_of(s1).total == total
        assert {h.edge_multiplicity(*s1) + h.edge_multiplicity(*s2)
                for h in moved.iter_groundings()} == {total}

    marks = frozenset({("mark", ("s1",)), ("mark", ("s2",))})
    marked = l.shifted({}, (marks, 1))
    assert marked.count_groundings() == l.count_groundings() * len(marks)
    assert all(sum(h.edge_multiplicity(*k) for k in marks) == 1
               for h in marked.iter_groundings())
    # a second fresh group is a group of its own
    tags = frozenset({("tag", ("s1",)), ("tag", ("s2",)), ("tag", ("e",))})
    tagged = marked.shifted({}, (tags, 2))
    assert len(tagged._groups()) == 3
    assert tagged.count_groundings() == marked.count_groundings() * 3
    # keys that partly overlap a group are no group of their own
    for keys in ({s1}, {s1, ("mark", ("s1",))}, marks | {s2}):
        with pytest.raises(StructuralError):
            l.shifted({}, (frozenset(keys), 1))


def test_shifted_rejects_a_negative_multiplicity():
    l = LiftedMultiHypergraph([Vertex("e", "screw"), Vertex("s", "slot")],
                              {("at", ("e", "s")): (1, 1)})
    assert l.shifted({("at", ("e", "s")): -1}).bounds == {}
    with pytest.raises(StructuralError):
        l.shifted({("at", ("e", "s")): -2})
    with pytest.raises(StructuralError):
        l.shifted({("mark", ("s",)): -1})


def test_conditioned_reads_a_key_as_edge_key_builds_it():
    """An unsorted incidence names the same key as the sorted one, as in
    ``shifted``, whether the key is ungrouped or a group member."""
    vertices = [Vertex("agent", "agent"), Vertex("floor", "floor"),
                Vertex("table", "table")]
    at_t, at_f = ("at", ("agent", "table")), ("at", ("agent", "floor"))
    for l in (LiftedMultiHypergraph(vertices, {at_t: (0, 1)}),
              LiftedMultiHypergraph(vertices, {at_t: (0, 1), at_f: (0, 1)},
                                    [({at_t, at_f}, 1)])):
        for value in (0, 1):
            sorted_key = l.conditioned(at_t, value)
            unsorted = l.conditioned(("at", ("table", "agent")), value)
            assert unsorted.count_groundings() == sorted_key.count_groundings() == 1
            assert unsorted.bounds == sorted_key.bounds
    assert l.conditioned(("at", ("floor", "agent")), 1).bounds == {at_f: (1, 1)}


def test_enumeration_limit():
    def free_marks(n):
        ids = [f"m{i}" for i in range(n)]
        return LiftedMultiHypergraph(
            [Vertex(vid, "x") for vid in ids],
            {("mark", (vid,)): (0, 9) for vid in ids})

    at_cap = free_marks(6)
    assert at_cap.count_groundings() == 10 ** 6 == MAX_GROUNDINGS
    assert next(at_cap.iter_groundings()).edge_dict() == {}
    with pytest.raises(EnumerationLimitError) as exc:
        next(free_marks(7).iter_groundings())
    assert exc.value.count == 10 ** 7
    assert exc.value.limit == MAX_GROUNDINGS


def test_normalisation_is_exact_on_raw_parts():
    """One tightening pass gives the exact support and attained bounds."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def raw_parts(draw):
        ids = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
        incidences = st.lists(st.sampled_from(ids), min_size=1, max_size=2)
        keys = draw(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                                       incidences.map(lambda x: tuple(sorted(x)))),
                             min_size=1, max_size=5, unique=True))
        bounds = {}
        for key in keys:
            lo = draw(st.integers(0, 3))
            bounds[key] = (lo, lo + draw(st.integers(0, 3)))
        n_groups = draw(st.sampled_from((2, 1, 0)))
        owners = [draw(st.sampled_from([*range(n_groups), None])) for _ in keys]
        groups = [([k for k, owner in zip(keys, owners) if owner == i],
                   draw(st.integers(0, 8)))
                  for i in range(n_groups)]
        return [Vertex(vid, "x") for vid in ids], bounds, groups

    def sorted_dicts(dicts):
        return sorted(sorted(d.items()) for d in dicts)

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(raw_parts())
    def check(parts):
        vertices, bounds, groups = parts
        l = LiftedMultiHypergraph(vertices, bounds, groups)
        expected = raw_groundings(bounds, groups)
        assert l.is_empty == (not expected)
        grounds = [g.edge_dict() for g in l.iter_groundings()]
        assert sorted_dicts(grounds) == sorted_dicts(expected)
        if l.is_empty:
            return
        keys = {k for g in grounds for k in g} | l.bounds.keys()
        for k in keys:
            seen = [g.get(k, 0) for g in grounds]
            assert l.multiplicity_bounds(k) == (min(seen), max(seen))

    check()


def test_vertices_are_sorted_and_equal_states_share_canonicals():
    l1 = hull_example()
    l2 = LiftedMultiHypergraph(
        [Vertex("s2", "slot_b"), Vertex("s1", "slot_a"), Vertex("e", "screw", 4)],
        {("at", ("s2", "e")): (0, 4), ("at", ("s1", "e")): (0, 2)},
        [({("at", ("e", "s1")), ("at", ("s2", "e"))}, 4)])
    assert [v.id for v in l2.vertices] == ["e", "s1", "s2"]
    assert l1.canonical_form() == l2.canonical_form()


def groups_of(l: LiftedMultiHypergraph) -> list[tuple[frozenset, int]]:
    """A state's groups as (key set, total) pairs, for its constructor."""
    return [(c.edge_keys, c.total) for c in {l.group_of(k) for k in l.bounds} - {None}]


def test_a_derived_state_shares_the_memo_of_its_rebuilt_content():
    """From random states, along random chains of ``shifted`` (with and
    without ``group``), ``conditioned``, ``_ground`` and ``from_graph``, a
    state asked for its content memo mid-chain, and the last state, share
    one memo with the state the constructor rebuilds from its maps."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    ids = ["v0", "v1", "v2"]
    keys = st.tuples(st.sampled_from(["a", "b"]),
                     st.lists(st.sampled_from(ids), min_size=1, max_size=2)
                     .map(lambda vs: tuple(sorted(vs))))

    def check_against_rebuilt(l):
        rebuilt = LiftedMultiHypergraph(l.layout, l.bounds, groups_of(l))
        assert l.content_memo() is rebuilt.content_memo()

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        draw = data.draw
        fixed = draw(st.dictionaries(keys, st.integers(1, 2), max_size=3))
        bounded = {k: (lo, lo + w) for k, lo, w in draw(st.lists(
            st.tuples(keys, st.integers(0, 1), st.integers(1, 2)),
            max_size=4, unique_by=lambda t: t[0]))}
        groups = []
        pool = sorted(bounded)
        if len(pool) >= 2 and draw(st.booleans()):
            members = pool[:draw(st.integers(2, len(pool)))]
            groups.append((members, draw(st.integers(
                sum(bounded[k][0] for k in members), sum(bounded[k][1] for k in members)))))
        l = lifted_state([Vertex(v, "x") for v in ids], fixed, bounded, groups)
        if draw(st.booleans()):
            l.content_memo()
        for op in draw(st.lists(st.sampled_from(
                ["memo", "shift", "group", "condition", "ground", "lift"]), max_size=8)):
            if op == "memo":
                check_against_rebuilt(l)
                continue
            if op == "shift":
                delta = {}
                for k in draw(st.lists(keys, min_size=1, max_size=3, unique=True)):
                    delta[k] = draw(st.integers(-l.multiplicity_bounds(k)[0], 2))
                l = l.shifted(delta)
            elif op == "group":
                grouped = {l.group_of(k) for k in l.bounds} - {None}
                free = [k for k in l.bounds if l.group_of(k) is None]
                options = [c.edge_keys for c in grouped]
                if len(free) >= 2:
                    options.append(frozenset(free[:draw(st.integers(2, len(free)))]))
                if not options:
                    continue
                step = draw(st.sampled_from(sorted(options, key=sorted)))
                delta = {k: 1 for k in draw(st.lists(keys, max_size=2, unique=True))
                         if k not in step and l.group_of(k) is None}
                l = l.shifted(delta, (step, draw(st.integers(0, len(step) + 2))))
            elif op == "condition":
                k = draw(st.sampled_from(sorted(l.bounds) or [("a", ("v0",))]))
                lo, up = l.multiplicity_bounds(k)
                l = l.conditioned(k, draw(st.integers(max(0, lo - 1), up + 1)))
            elif op == "ground":
                if l.is_empty or l.count_groundings() > 50:
                    continue
                l = l._ground(draw(st.sampled_from(list(l._iter_assignments()))))
            elif isinstance(l, MultiHypergraph):
                l = LiftedMultiHypergraph.from_graph(l)
            if l.is_empty:
                return
        check_against_rebuilt(l)

    check()


def test_a_content_memo_is_keyed_by_both_maps_and_holds_no_state():
    """States with equal bounds maps but different groups get different
    memos; the empty state shares none with an edgeless one; and after a
    filter run the layout's memos hold maps, plans, successor parts and
    forms, never a state or another memo."""
    l = hull_example()
    s1, s2 = ("at", ("e", "s1")), ("at", ("e", "s2"))
    ungrouped = LiftedMultiHypergraph(l.layout, {s1: (0, 2), s2: (2, 4)})
    assert ungrouped.bounds == l.bounds
    assert ungrouped.content_memo() is not l.content_memo()
    assert (LiftedMultiHypergraph(l.layout, l.bounds, groups_of(l)).content_memo()
            is l.content_memo())

    edgeless = LiftedMultiHypergraph(l.layout)
    empty = l.conditioned(s1, 3)
    assert empty.is_empty and (empty.bounds, empty._group_of) == ({}, {})
    assert empty.content_memo() is not edgeless.content_memo()
    assert empty.content_memo() is empty.content_memo()

    domain = builtin_domain("mini")
    filter_trace(domain, generate_trace(domain, seed=1, length=20)[0])
    memos = domain.initial_state.layout.compiled[_CONTENT_MEMOS]
    assert any(memos.values())
    memo_ids = {id(memo) for memo in memos.values()}
    stack = list(memos)     # the keys, both maps frozen, and what each memo holds
    for memo in memos.values():
        stack.extend(memo.items())
    built = 0
    while stack:
        obj = stack.pop()
        assert not isinstance(obj, LiftedMultiHypergraph)
        assert id(obj) not in memo_ids
        if isinstance(obj, Mapping):
            stack.extend(obj.items())
        elif isinstance(obj, (tuple, frozenset, list)):
            stack.extend(obj)
            built += isinstance(obj, list) and any(obj)
    assert built
