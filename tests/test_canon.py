from __future__ import annotations

import random

from mhgfilter import (BoundedEdge, Hyperedge, LiftedMultiHypergraph,
                       TotalConstraint, Vertex, build_graph)
from mhgfilter.canon import (canonical_form, canonical_form_lifted,
                             pinned_form, pinned_form_lifted)
from oracles import brute_isomorphic, random_graph, relabel

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
    return build_graph(
        [Vertex("a", "agent"), Vertex("t", "table"), Vertex("s", "screw", 3)],
        [Hyperedge("at", ("a", "t")), Hyperedge("at", ("s", "t"), 2),
         Hyperedge("holds", ("a", "s"))])


def reference_lifted(group_name="g"):
    return LiftedMultiHypergraph(
        [Vertex("e", "screw", 2), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        [],
        [BoundedEdge("at", ("e", "s1"), 0, 1),
         BoundedEdge("at", ("e", "s2"), 0, 1)],
        [TotalConstraint(group_name,
                         frozenset({("at", ("e", "s1")), ("at", ("e", "s2"))}),
                         1)])


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
    g = build_graph([Vertex("a", "x"), Vertex("b", "x")],
                    [Hyperedge("e", ("a", "b"), 1)])
    h = build_graph([Vertex("a", "x"), Vertex("b", "x")],
                    [Hyperedge("e", ("a", "b"), 2)])
    assert canonical_form(g) != canonical_form(h)


def test_distinguishes_regular_but_nonisomorphic():
    """Two 6-cycles versus two triangles: same degrees, different graphs."""
    def cycle(ids):
        edges = [Hyperedge("e", (ids[i], ids[(i + 1) % len(ids)]))
                 for i in range(len(ids))]
        return edges

    ids = [f"v{i}" for i in range(6)]
    verts = [Vertex(i, "n") for i in ids]
    hexagon = build_graph(verts, cycle(ids))
    triangles = build_graph(verts, cycle(ids[:3]) + cycle(ids[3:]))
    assert not brute_isomorphic(hexagon, triangles)
    assert canonical_form(hexagon) != canonical_form(triangles)


def test_hyperedge_arity_three_invariance():
    rng = random.Random(99)
    verts = [Vertex(f"v{i}", "n") for i in range(5)]
    edges = [Hyperedge("tri", ("v0", "v1", "v2")),
             Hyperedge("tri", ("v2", "v3", "v4"), 2),
             Hyperedge("tri", ("v0", "v0", "v4"))]
    g = build_graph(verts, edges)
    for _ in range(50):
        assert canonical_form(relabel(g, rng)) == canonical_form(g)


def test_pinned_form_separates_asymmetric_choices():
    """Pinning distinguishable vertices gives different bytes; pinning
    vertices related by an automorphism gives identical bytes."""
    verts = [Vertex("m", "mid"), Vertex("l", "leaf"), Vertex("r", "leaf")]
    g = build_graph(verts, [Hyperedge("e", ("m", "l")),
                            Hyperedge("e", ("m", "r"))])
    # l and r are swappable, so pinning either one looks the same
    assert pinned_form(g, {"l": 0}) == pinned_form(g, {"r": 0})
    assert pinned_form(g, {"l": 0}) != pinned_form(g, {"m": 0})

    h = build_graph(verts, [Hyperedge("e", ("m", "l")),
                            Hyperedge("f", ("m", "r"))])
    # now the leaves differ structurally
    assert pinned_form(h, {"l": 0}) != pinned_form(h, {"r": 0})


def test_lifted_group_names_do_not_matter():
    a = reference_lifted("installed")
    b = reference_lifted("anything_else")
    assert canonical_form_lifted(a) == canonical_form_lifted(b)


def test_lifted_bounds_matter():
    base = reference_lifted()
    other = LiftedMultiHypergraph(
        [Vertex("e", "screw", 2), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        [],
        [BoundedEdge("at", ("e", "s1"), 0, 1),
         BoundedEdge("at", ("e", "s2"), 0, 1)],
        [TotalConstraint("g",
                         frozenset({("at", ("e", "s1")), ("at", ("e", "s2"))}),
                         2)])
    # total 2 forces both slots full; the state degenerates to fixed edges
    assert canonical_form_lifted(base) != canonical_form_lifted(other)
    assert not other.bounded_edges


def test_lifted_permutation_invariance():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 5)
        verts = [Vertex(f"v{i}", "slot") for i in range(n)] + \
                [Vertex("e", "screw", 2)]
        bounded = [BoundedEdge("at", ("e", f"v{i}"), 0, 1) for i in range(n)]
        total = rng.randrange(0, n + 1)
        l = LiftedMultiHypergraph(
            verts, [], bounded,
            [TotalConstraint("g", frozenset(b.key for b in bounded),
                             min(total, 2))])
        ids = [f"v{i}" for i in range(n)]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        mapping["e"] = "e"
        verts2 = [Vertex(mapping[v.id], v.label, v.multiplicity) for v in verts]
        bounded2 = [BoundedEdge(b.label,
                                tuple(mapping[x] for x in b.incidence),
                                b.lower, b.upper) for b in bounded]
        l2 = LiftedMultiHypergraph(
            verts2, [], bounded2,
            [TotalConstraint("g", frozenset(b.key for b in bounded2),
                             min(total, 2))])
        assert canonical_form_lifted(l) == canonical_form_lifted(l2)


def test_pinned_lifted_form_separates_slots():
    l = LiftedMultiHypergraph(
        [Vertex("e", "screw", 2), Vertex("s1", "slot"), Vertex("s2", "slot"),
         Vertex("t", "table")],
        [Hyperedge("near", ("s1", "t"))],
        [BoundedEdge("at", ("e", "s1"), 0, 1),
         BoundedEdge("at", ("e", "s2"), 0, 1)],
        [TotalConstraint("g",
                         frozenset({("at", ("e", "s1")), ("at", ("e", "s2"))}),
                         1)])
    # s1 sits near the table, s2 does not: pinning them differs
    assert pinned_form_lifted(l, {"s1": 0}) != pinned_form_lifted(l, {"s2": 0})
