from __future__ import annotations

import itertools
import logging
import random
from collections import Counter

import pytest

import mhgfilter.canon
from mhgfilter import LiftedMultiHypergraph, MultiHypergraph, Vertex, edge_key
from mhgfilter.canon import (canonical_form, canonical_form_lifted, merged,
                             pinned_form, pinned_form_lifted)
from oracles import (brute_isomorphic, lifted_state, random_graph, random_lifted, ranked,
                     reference_individualize, reference_refine, relabel,
                     symmetric_graph, symmetric_lifted, unpruned_canonical_bytes)

# Pinned serializations of two reference states.  These freeze the byte
# layout: any change to it silently invalidates stored digests, so it must
# show up here as a deliberate test update.
GROUND_SNAPSHOT = (
    "01000000030000000f00056167656e7400000000000000010000000f000573637265"
    "7700000000000000030000000f00057461626c65000000000000000100000003000000"
    "18000261740000000200000000000000020000000000000001000000180002617400"
    "000002000000010000000200000000000000020000001b0005686f6c647300000002"
    "00000000000000010000000000000001")
LIFTED_SNAPSHOT = (
    "02000000030000000f000573637265770000000000000002000000100006736c6f74"
    "5f610000000000000001000000100006736c6f745f62000000000000000100000000"
    "0000000200000020000261740000000200000000000000010000000000000000000"
    "000000000000100000020000261740000000200000000000000020000000000000000"
    "000000000000000100000001000000140000000000000001000000020000000000000001")
# Pinned variants of the same states (reserved tags 0xFE/0xFF): a pin index
# is appended to each vertex record.
PINNED_GROUND_SNAPSHOT = (
    "fe000000030000001300056167656e74000000000000000100000000000000130005"
    "73637265770000000000000003000000010000001300057461626c65000000000000"
    "00010000000200000003000000180002617400000002000000000000000200000000"
    "00000001000000180002617400000002000000010000000200000000000000020000"
    "001b0005686f6c64730000000200000000000000010000000000000001")
PINNED_LIFTED_SNAPSHOT = (
    "ff000000030000001300057363726577000000000000000200000000000000140006"
    "736c6f745f61000000000000000100000001000000140006736c6f745f6200000000"
    "00000001000000000000000000000002000000200002617400000002000000000000"
    "00010000000000000000000000000000000100000020000261740000000200000000"
    "00000002000000000000000000000000000000010000000100000014000000000000"
    "0001000000020000000000000001")


def reference_ground():
    return MultiHypergraph(
        [Vertex("a", "agent"), Vertex("t", "table"), Vertex("s", "screw", 3)],
        {("at", ("a", "t")): 1, ("at", ("s", "t")): 2, ("holds", ("a", "s")): 1})


def reference_lifted():
    return LiftedMultiHypergraph(
        [Vertex("e", "screw", 2), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        {("at", ("e", "s1")): (0, 1), ("at", ("e", "s2")): (0, 1)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 1)])


def test_ground_snapshot():
    assert canonical_form(reference_ground()).data.hex() == GROUND_SNAPSHOT


def test_lifted_snapshot():
    assert canonical_form_lifted(reference_lifted()).data.hex() == LIFTED_SNAPSHOT


def test_pinned_ground_snapshot():
    pins = {"s": 0, "t": 1}
    assert pinned_form(reference_ground(), pins).hex() == PINNED_GROUND_SNAPSHOT


def test_pinned_lifted_snapshot():
    pins = {"s1": 0}
    assert pinned_form_lifted(reference_lifted(), pins).hex() == PINNED_LIFTED_SNAPSHOT


def test_version_bytes_differ():
    assert canonical_form(reference_ground()).data[0] == 0x01
    assert canonical_form_lifted(reference_lifted()).data[0] == 0x02


def test_digest_is_prefix_of_sha256():
    c = canonical_form(reference_ground())
    assert len(c.digest()) == 12
    assert len(c.digest(20)) == 20
    assert c.digest(20).startswith(c.digest())
    assert repr(c) == f"CanonicalForm({c.digest()})"


def test_canonical_form_is_deterministic():
    g = reference_ground()
    h = reference_ground()
    assert canonical_form(g) == canonical_form(h)
    assert g.canonical_form() is g.canonical_form()  # cached


def test_permutation_invariance_random():
    """Renaming vertex ids never changes the canonical bytes."""
    rng = random.Random(7)
    for _ in range(400):
        g = random_graph(rng, n_vertices=rng.randrange(1, 8))
        h = relabel(g, rng)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_equality_matches_brute_isomorphism():
    rng = random.Random(13)
    for _ in range(250):
        g = random_graph(rng, n_vertices=4, n_labels=2, n_edges=4)
        h = random_graph(rng, n_vertices=4, n_labels=2, n_edges=4)
        assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)


def test_distinguishes_multiplicity():
    g = MultiHypergraph([Vertex("a", "x"), Vertex("b", "x")], {("e", ("a", "b")): 1})
    h = MultiHypergraph([Vertex("a", "x"), Vertex("b", "x")], {("e", ("a", "b")): 2})
    assert canonical_form(g) != canonical_form(h)


def test_distinguishes_regular_but_nonisomorphic():
    """Two 6-cycles versus two triangles: same degrees, different graphs."""
    def cycle(ids):
        return {edge_key("e", (ids[i], ids[(i + 1) % len(ids)])): 1
                for i in range(len(ids))}

    ids = [f"v{i}" for i in range(6)]
    verts = [Vertex(i, "n") for i in ids]
    hexagon = MultiHypergraph(verts, cycle(ids))
    triangles = MultiHypergraph(verts, cycle(ids[:3]) | cycle(ids[3:]))
    assert not brute_isomorphic(hexagon, triangles)
    assert canonical_form(hexagon) != canonical_form(triangles)


def test_hyperedge_arity_three_invariance():
    rng = random.Random(99)
    verts = [Vertex(f"v{i}", "n") for i in range(5)]
    edges = {("tri", ("v0", "v1", "v2")): 1, ("tri", ("v2", "v3", "v4")): 2,
             ("tri", ("v0", "v0", "v4")): 1}
    g = MultiHypergraph(verts, edges)
    for _ in range(50):
        assert canonical_form(relabel(g, rng)) == canonical_form(g)


def test_pinned_form_separates_asymmetric_choices():
    """Pinning distinguishable vertices gives different bytes; pinning
    vertices related by an automorphism gives identical bytes."""
    verts = [Vertex("m", "mid"), Vertex("l", "leaf"), Vertex("r", "leaf")]
    g = MultiHypergraph(verts, {("e", ("l", "m")): 1, ("e", ("m", "r")): 1})
    # l and r are swappable, so pinning either one looks the same
    assert pinned_form(g, {"l": 0}) == pinned_form(g, {"r": 0})
    assert pinned_form(g, {"l": 0}) != pinned_form(g, {"m": 0})

    h = MultiHypergraph(verts, {("e", ("l", "m")): 1, ("f", ("m", "r")): 1})
    # now the leaves differ structurally
    assert pinned_form(h, {"l": 0}) != pinned_form(h, {"r": 0})


def test_lifted_bounds_matter():
    base = reference_lifted()
    other = LiftedMultiHypergraph(
        [Vertex("e", "screw", 2), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        {("at", ("e", "s1")): (0, 1), ("at", ("e", "s2")): (0, 1)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 2)])
    # total 2 forces both slots full; the state degenerates to fixed edges
    assert canonical_form_lifted(base) != canonical_form_lifted(other)
    assert set(other.bounds.values()) == {(1, 1)}


def test_lifted_permutation_invariance():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 5)
        verts = [Vertex(f"v{i}", "slot") for i in range(n)] + \
                [Vertex("e", "screw", 2)]
        bounded = dict.fromkeys([("at", ("e", f"v{i}")) for i in range(n)], (0, 1))
        total = rng.randrange(0, n + 1)
        l = LiftedMultiHypergraph(verts, bounded, [(bounded, min(total, 2))])
        ids = [f"v{i}" for i in range(n)]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        mapping["e"] = "e"
        verts2 = [Vertex(mapping[v.id], v.label, v.multiplicity) for v in verts]
        bounded2 = {(label, tuple(mapping[x] for x in inc)): b
                    for (label, inc), b in bounded.items()}
        l2 = LiftedMultiHypergraph(verts2, bounded2, [(bounded2, min(total, 2))])
        assert canonical_form_lifted(l) == canonical_form_lifted(l2)


def test_pinned_lifted_form_separates_slots():
    l = LiftedMultiHypergraph(
        [Vertex("e", "screw", 2), Vertex("s1", "slot"), Vertex("s2", "slot"),
         Vertex("t", "table")],
        {("at", ("e", "s1")): (0, 1), ("at", ("e", "s2")): (0, 1),
         ("near", ("s1", "t")): (1, 1)},
        [({("at", ("e", "s1")), ("at", ("e", "s2"))}, 1)])
    # s1 sits near the table, s2 does not: pinning them differs
    assert pinned_form_lifted(l, {"s1": 0}) != pinned_form_lifted(l, {"s2": 0})


# -- automorphism pruning -------------------------------------------------------

def star(n: int):
    """One board holding ``n`` interchangeable slots."""
    return MultiHypergraph([Vertex("board", "board")]
                           + [Vertex(f"s{i}", "slot") for i in range(n)],
                           {("has", ("board", f"s{i}")): 1 for i in range(n)})


def dealt_pairs():
    """Six slots on one board in three interchangeable two-slot groups, dealt
    in turn.  Refinement does not see groups, so after one slot is
    individualised its group-mate shares a cell with the other four; an
    automorphism that moves the prefix fuses the two kinds of child.  Random
    draws reach this shape only a few times in a thousand."""
    slots = [f"s{i}" for i in range(6)]
    bounded = [("at", ("item", s)) for s in slots]
    return lifted_state(
        [Vertex("board", "board"), Vertex("item", "item", 3)]
        + [Vertex(s, "slot") for s in slots],
        {("has", ("board", s)): 1 for s in slots}, dict.fromkeys(bounded, (0, 1)),
        [(bounded[j::3], 1) for j in range(3)])


def cycles_6_and_3():
    """A 6-cycle and a 3-cycle over nine like vertices.  The jump on an equal
    leaf must return to the node where the two paths part and no higher:
    one level higher skips children whose subtrees hold the minimum."""
    ids = [f"v{i:02d}" for i in range(9)]
    ring = [(ids[i], ids[(i + 1) % 6]) for i in range(6)]
    ring += [(ids[6 + i], ids[6 + (i + 1) % 3]) for i in range(3)]
    return MultiHypergraph([Vertex(v, "v") for v in ids],
                           {("e", pair): 1 for pair in ring})


def installed_slots():
    """Four eccentrics installed, unobserved, into six identical slots on one
    board: one lifted state with a single constraint group."""
    slots = [f"slot_{i}" for i in range(6)]
    bounded = dict.fromkeys([("at", ("eccentric", s)) for s in slots], (0, 1))
    fixed = {("at", ("agent", "table")): 1, ("holds", ("agent", "screwdriver")): 1}
    return lifted_state(
        [Vertex(v, v) for v in ("agent", "board", "floor", "screwdriver", "table")]
        + [Vertex("eccentric", "eccentric", 4)] + [Vertex(s, "slot") for s in slots],
        fixed | {("has", ("board", s)): 1 for s in slots}, bounded, [(bounded, 4)])


def search_size(caplog) -> str:
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("canonical search")]
    caplog.clear()
    assert len(lines) == 1
    return lines[0].split(" vertices, ")[1]


def test_an_equal_leaf_jumps_back_to_where_the_paths_part(caplog):
    """A leaf with the best bytes ends the search below the node where its
    path parts from the best leaf's: a star of n slots searches n leaves and
    finds n - 1 automorphisms, and four installs into six slots 6 leaves."""
    caplog.set_level(logging.DEBUG, logger="mhgfilter")
    for n in (6, 8, 10):
        canonical_form(star(n))
        assert search_size(caplog) == f"{n} leaves, {n - 1} automorphisms"
    canonical_form_lifted(installed_slots())
    assert search_size(caplog).startswith("6 leaves, ")


def test_colour_profile_matches_a_counter_over_the_incidence():
    """Refinement's per-edge profile keeps its former definition, so ranks
    and bytes do not move."""
    rng = random.Random(3)
    for _ in range(2000):
        colors = [rng.randrange(4) for _ in range(5)]
        inc = tuple(rng.randrange(5) for _ in range(rng.randrange(5)))
        pairs = tuple(Counter(inc).items())
        assert mhgfilter.canon._colour_profile(colors, pairs) == \
            tuple(sorted(Counter(colors[j] for j in inc).items()))


def test_pruned_search_equals_unpruned_reference():
    """All four forms equal the minimum over every leaf of the unpruned
    search, on states built to have many automorphisms."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        def randint(a, b):
            return draw(st.integers(a, b))
        make = symmetric_lifted if randint(0, 1) else symmetric_graph
        state = make(randint, 7)
        ids = [v.id for v in state.vertices]
        # up to two pinned vertices, pin indices 0 or 1
        pins = {ids[randint(0, len(ids) - 1)]: randint(0, 1)
                for _ in range(randint(0, 2))}
        return state, pins

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(cases())
    @hypothesis.example((dealt_pairs(), {}))
    @hypothesis.example((cycles_6_and_3(), {}))
    def check(case):
        state, pins = case
        if isinstance(state, MultiHypergraph):     # a ground state is a lifted one too
            assert canonical_form(state).data == \
                unpruned_canonical_bytes(state, None, 0x01)
            assert pinned_form(state, pins) == \
                unpruned_canonical_bytes(state, pins, 0xFE)
        else:
            assert canonical_form_lifted(state).data == \
                unpruned_canonical_bytes(state, None, 0x02)
            assert pinned_form_lifted(state, pins) == \
                unpruned_canonical_bytes(state, pins, 0xFF)

    check()


def test_refinement_equals_the_reference_at_every_node():
    """Incremental refinement gives the colours of recomputing every row in
    every round, at the root and after each of a random sequence of
    individualisations down to a leaf, pinned and unpinned."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        def randint(a, b):
            return data.draw(st.integers(a, b))
        lifted = randint(0, 1)
        state = (symmetric_lifted if lifted else symmetric_graph)(randint, 9)
        ids = [v.id for v in state.vertices]
        pins = ({ids[randint(0, len(ids) - 1)]: randint(0, 1)
                 for _ in range(randint(1, 2))} if randint(0, 1) else None)
        version = ((0x02 if lifted else 0x01) if pins is None
                   else (0xFF if lifted else 0xFE))
        structure = mhgfilter.canon._structure(state, pins, version)
        start = ranked(structure.init_keys)
        colors = mhgfilter.canon._refine(structure, start)
        assert colors == reference_refine(structure, start)
        while True:
            ties = [v for v, c in enumerate(colors) if colors.count(c) > 1]
            if not ties:
                break
            v = ties[randint(0, len(ties) - 1)]
            colors, expected = (mhgfilter.canon._individualize(structure, colors, v),
                                reference_individualize(structure, colors, v))
            assert colors == expected

    check()


def counting_refine(monkeypatch) -> list[int]:
    """Patch ``_refine`` to count its calls, at the root and after each
    individualisation alike, into the returned one-item list."""
    calls = [0]
    refine = mhgfilter.canon._refine

    def counting(st, colors, touched=None):
        calls[0] += 1
        return refine(st, colors, touched)

    monkeypatch.setattr(mhgfilter.canon, "_refine", counting)
    return calls


def test_symmetric_star_search_is_polynomial(monkeypatch):
    """Refinement calls, not wall time: the unpruned search refines once per
    node of a tree with 12!/(12-k)! nodes at depth k."""
    calls = counting_refine(monkeypatch)
    canonical_form(star(12))
    assert calls[0] <= 400
    calls[0] = 0
    canonical_form(star(16))
    assert 0 < calls[0] <= 1000


def test_distinct_vertex_records_run_no_search(monkeypatch):
    """When every vertex record (label, multiplicity) is unique, the initial
    colouring is the one leaf, so no refinement runs; a repeated record
    still searches."""
    calls = counting_refine(monkeypatch)
    canonical_form(reference_ground())
    pinned_form(reference_ground(), {"s": 0, "t": 1})
    canonical_form_lifted(reference_lifted())
    pinned_form_lifted(reference_lifted(), {"s1": 0})
    assert calls[0] == 0
    canonical_form(star(6))
    assert calls[0] >= 1


def test_distinct_vertex_records_give_the_search_bytes():
    """On states whose vertex records are pairwise distinct, ground and
    lifted (with constraint groups), all four forms equal the minimum over
    every leaf of the unpruned search."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    def distinct(state) -> bool:
        recs = [(v.label, v.multiplicity) for v in state.vertices]
        return len(set(recs)) == len(recs)

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1), st.booleans())
    def check(seed, lifted):
        rng = random.Random(seed)
        while True:
            state = (random_lifted(rng, rng.randrange(1, 6)) if lifted
                     else random_graph(rng, rng.randrange(1, 7), n_labels=4))
            if distinct(state) and not (lifted and state.is_empty):
                break
        ids = [v.id for v in state.vertices]
        pins = {rng.choice(ids): rng.randrange(2) for _ in range(rng.randrange(3))}
        if lifted:
            assert canonical_form_lifted(state).data == \
                unpruned_canonical_bytes(state, None, 0x02)
            assert pinned_form_lifted(state, pins) == \
                unpruned_canonical_bytes(state, pins, 0xFF)
        else:
            assert canonical_form(state).data == \
                unpruned_canonical_bytes(state, None, 0x01)
            assert pinned_form(state, pins) == \
                unpruned_canonical_bytes(state, pins, 0xFE)

    check()


def test_a_warm_layout_gives_the_bytes_of_a_cold_one():
    """States derived over one layout whose vertex records are distinct
    (by ``shifted``, ``conditioned``, ``iter_groundings`` and
    ``from_graph``) share its cached edge records.  Their forms, ground and
    lifted, pinned or not, computed in a random order, equal the forms of
    the same states rebuilt on a fresh layout, whose cache is cold, and the
    minimum over every leaf of the unpruned search."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    def derived(rng, root) -> list:
        states = [root]
        grounds = list(itertools.islice(root.iter_groundings(), 8))
        states += grounds + [LiftedMultiHypergraph.from_graph(g) for g in grounds]
        for k, (lo, up) in root.bounds.items():
            if lo != up:
                states += [root.conditioned(k, v) for v in range(lo, up + 1)]
                states.append(root.shifted({k: rng.randint(-lo, 2)}))
        ids = [v.id for v in root.vertices]
        for g in grounds:
            keys = list(g.bounds) + [edge_key("e0", rng.sample(ids, 1))]
            k = rng.choice(keys)
            states.append(g.shifted({k: rng.randint(-g.bounds.get(k, (0, 0))[0], 2)}))
        return [s for s in states if not s.is_empty]

    def cold(state):
        if isinstance(state, MultiHypergraph):
            return MultiHypergraph(list(state.vertices), state.edge_dict())
        return LiftedMultiHypergraph(list(state.vertices), dict(state.bounds),
                                     state._groups())

    def forms(state, pins) -> list[bytes]:
        out = [canonical_form_lifted(state).data, pinned_form_lifted(state, pins)]
        if isinstance(state, MultiHypergraph):
            out += [canonical_form(state).data, pinned_form(state, pins)]
        return out

    def reference(state, pins) -> list[bytes]:
        versions = [(None, 0x02), (pins, 0xFF)]
        if isinstance(state, MultiHypergraph):
            versions += [(None, 0x01), (pins, 0xFE)]
        return [unpruned_canonical_bytes(state, p, v) for p, v in versions]

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = random.Random(seed)
        while True:
            root = random_lifted(rng, rng.randrange(1, 6))
            recs = [(v.label, v.multiplicity) for v in root.vertices]
            if len(set(recs)) == len(recs) and not root.is_empty:
                break
        states = derived(rng, root)
        rng.shuffle(states)
        ids = [v.id for v in root.vertices]
        for state in states:
            assert state.layout is root.layout
            pins = {rng.choice(ids): rng.randrange(2) for _ in range(rng.randrange(3))}
            fresh = cold(state)
            assert fresh.layout is not root.layout
            assert forms(state, pins) == forms(fresh, pins) == reference(state, pins)

    check()


def test_multi_leaf_search_is_logged_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="mhgfilter")
    canonical_form(star(6))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("canonical search")]
    assert len(lines) == 1
    assert lines[0].startswith("canonical search: 7 vertices, ")
    assert "leaves" in lines[0] and "automorphisms" in lines[0]
    caplog.clear()
    canonical_form(reference_ground())  # a single leaf: nothing logged
    assert not [r for r in caplog.records
                if r.getMessage().startswith("canonical search")]


def test_factorial_search_warns(caplog):
    """Nine slots dealt into three interchangeable groups of total 1 take
    2,285 leaves, and the search warns once; a star of six slots, whose
    automorphisms prune the search, does not warn."""
    slots = [f"s{i}" for i in range(9)]
    bounded = [("at", ("item", s)) for s in slots]
    dealt = lifted_state(
        [Vertex("board", "board"), Vertex("item", "item", 3)]
        + [Vertex(s, "slot") for s in slots],
        {("has", ("board", s)): 1 for s in slots}, dict.fromkeys(bounded, (0, 1)),
        [(bounded[j::3], 1) for j in range(3)])
    caplog.set_level(logging.WARNING, logger="mhgfilter")
    canonical_form(star(6))
    assert not caplog.records
    canonical_form_lifted(dealt)
    warnings = [r.getMessage() for r in caplog.records
                if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("canonical search: 11 vertices, 1000 leaves")
    assert "interchangeable constraint groups" in warnings[0]


def incidence_graph(nx, state):
    """The state as a networkx graph: one node per vertex, edge, bounded edge
    and constraint, carrying labels, multiplicities, bounds and totals;
    links carry occurrence counts."""
    g = nx.Graph()
    for v in state.vertices:
        g.add_node(("v", v.id), kind=("v", v.label, v.multiplicity))
    for i, ((label, incidence), (lo, up)) in enumerate(sorted(state.bounds.items())):
        node = ("e", i) if lo == up else ("b", i)
        g.add_node(node, kind=("e", label, lo) if lo == up else ("b", label, lo, up))
        for x, occ in Counter(incidence).items():
            g.add_edge(node, ("v", x), occ=occ)
    keys = sorted(state.bounds)
    for i, c in enumerate(state._groups()):
        g.add_node(("c", i), kind=("c", c.total))
        for k in c.edge_keys:
            g.add_edge(("c", i), ("b", keys.index(k)), occ=0)
    return g


class _FailWideSearch(logging.Handler):
    """Raises at any warning, such as a canonical search's ``WARN_LEAVES``
    one, so a search that would run on for minutes fails at once."""

    def emit(self, record):
        if record.levelno >= logging.WARNING:
            raise AssertionError(record.getMessage())


def test_canonical_equality_matches_networkx_isomorphism():
    """Equal canonical forms iff isomorphic, on symmetric states of 8 to 14
    vertices, too many for ``brute_isomorphic``; its largest search visits
    a few hundred leaves, and one that reaches ``WARN_LEAVES`` fails."""
    nx = pytest.importorskip("networkx")
    logger = logging.getLogger("mhgfilter")
    handler = _FailWideSearch()
    logger.addHandler(handler)
    try:
        _networkx_agreement(nx)
    finally:
        logger.removeHandler(handler)


def _networkx_agreement(nx):
    rng = random.Random(31)

    def two_groups(randint, max_vertices):
        # three interchangeable groups over a dozen slots still search
        # exponentially many leaves, so at most two groups here
        return symmetric_lifted(randint, max_vertices, max_groups=2)

    same = differ = 0
    for trial in range(120):
        lifted = trial % 2 == 1
        make = two_groups if lifted else symmetric_graph
        form = canonical_form_lifted if lifted else canonical_form
        while True:
            a = make(rng.randint, 14)
            # every fourth pair is a renamed copy, the rest are independent
            b = relabel(a, rng) if trial % 4 < 2 else make(rng.randint, 14)
            if 8 <= len(a.vertices) == len(b.vertices) <= 14:
                break
        iso = nx.is_isomorphic(incidence_graph(nx, a), incidence_graph(nx, b),
                               node_match=lambda x, y: x["kind"] == y["kind"],
                               edge_match=lambda x, y: x["occ"] == y["occ"])
        assert (form(a) == form(b)) == iso
        same += iso
        differ += not iso
    assert same >= 40 and differ >= 40


# -- merging ------------------------------------------------------------------

class Formless:
    """A state whose canonical form must not be asked for."""

    def canonical_form(self):
        raise AssertionError("a form was computed with nothing to merge")


def test_merging_fewer_than_two_pairs_computes_no_form():
    assert merged([]) == []
    assert merged(iter(())) == []
    s = Formless()
    assert merged([(s, 0.25)]) == [(s, 0.25)]
    assert merged((pair for pair in [(s, 3)])) == [(s, 3)]
    with pytest.raises(AssertionError, match="nothing to merge"):
        merged([(s, 1), (Formless(), 1)])


def test_merging_sums_isomorphic_weights_in_input_order():
    """Renamed copies merge into the first one seen, ground and lifted, and
    their weights are summed left to right: (0.1 + 0.2) + 0.3 differs from
    0.1 + (0.2 + 0.3) in the last bit."""
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
    rng = random.Random(5)
    for make in (random_graph, random_lifted):
        a = make(rng)
        copies = [a, relabel(a, rng), relabel(a, rng)]
        [(state, w)] = merged(zip(copies, (0.1, 0.2, 0.3)))
        assert state is a and w == (0.1 + 0.2) + 0.3
        [(state, w)] = merged(zip(copies[::-1], (0.3, 0.2, 0.1)))
        assert state is copies[-1] and w == (0.3 + 0.2) + 0.1


def test_merged_states_come_in_canonical_byte_order():
    """Over random ground states with renamed copies mixed in, each form
    appears once, with its first state and the sum of its weights, and
    the forms ascend bytewise."""
    rng = random.Random(11)
    for _ in range(50):
        states = [random_graph(rng, n_vertices=3, n_labels=2, n_edges=2)
                  for _ in range(rng.randrange(2, 6))]
        states += [relabel(rng.choice(states), rng) for _ in range(3)]
        rng.shuffle(states)
        pairs = [(g, rng.randrange(1, 10)) for g in states]
        first: dict[bytes, MultiHypergraph] = {}
        total: Counter[bytes] = Counter()
        for g, w in pairs:
            first.setdefault(g.canonical_form().data, g)
            total[g.canonical_form().data] += w
        out = merged(pairs)
        assert [(id(g), w) for g, w in out] == [(id(first[k]), total[k])
                                                for k in sorted(first)]


# -- bounds map order ---------------------------------------------------------

def reordered(state, rng) -> list:
    """``state`` built again with its bounds map in other orders: by the
    constructor over its layout from its shuffled map and groups, and twice
    by taking its fixed edges out in one shift and putting them back one
    shift at a time, in a random order."""
    items, groups = list(state.bounds.items()), state._groups()
    rng.shuffle(items)
    rng.shuffle(groups)
    fixed = [(k, lo) for k, (lo, up) in items if lo == up]
    builds = [MultiHypergraph(state.layout, dict(fixed))
              if isinstance(state, MultiHypergraph)
              else LiftedMultiHypergraph(state.layout, dict(items), groups)]
    bare = state.shifted({k: -m for k, m in fixed})
    for _ in range(2):
        rng.shuffle(fixed)
        derived = bare
        for k, m in fixed:
            derived = derived.shifted({k: m})
        builds.append(derived)
    return builds


def test_canonical_bytes_ignore_the_bounds_map_order():
    """Forms are built from a state's bounds map in its order, and every
    byte section is sorted: the same state with its map in another order,
    built by the constructor from a shuffled map or by derivations applied
    in other orders, has the same ground or lifted bytes, pinned or not,
    and a ground state the same hash.  This holds on layouts whose vertex
    records are distinct (the one leaf) and on symmetric ones (the
    search)."""
    def distinct(state) -> bool:
        recs = [(v.label, v.multiplicity) for v in state.vertices]
        return len(set(recs)) == len(recs)

    def forms(state, pins) -> tuple[bytes, bytes]:
        if isinstance(state, MultiHypergraph):
            return canonical_form(state).data, pinned_form(state, pins)
        return canonical_form_lifted(state).data, pinned_form_lifted(state, pins)

    rng = random.Random(11)
    states = []
    while len(states) < 80:
        state = (random_lifted(rng, rng.randrange(1, 6)) if len(states) % 2
                 else random_graph(rng, rng.randrange(1, 7), n_labels=4))
        if distinct(state) and not state.is_empty:
            states.append(state)
    while len(states) < 160:
        state = (symmetric_lifted if len(states) % 2 else symmetric_graph)(rng.randint, 7)
        if not distinct(state):
            states.append(state)
    moved = 0
    for state in states:
        ids = [v.id for v in state.vertices]
        pins = {rng.choice(ids): rng.randrange(2) for _ in range(rng.randrange(3))}
        want = forms(state, pins)
        builds = reordered(state, rng)
        moved += len({tuple(b.bounds) for b in builds}) > 1
        for b in builds:
            assert type(b) is type(state) and b.bounds == state.bounds
            assert forms(b, pins) == want
            if isinstance(state, MultiHypergraph):
                assert b == state and hash(b) == hash(state)
    assert moved > 120
