"""Ground states as labeled multi-hypergraphs.

Builds a small assembly scene, then shows how canonical forms turn
isomorphism checks into byte comparisons and how pinning breaks symmetry
when a particular vertex must be told apart from its twins.
"""

from mhgfilter import MultiHypergraph, Vertex, index_vertices, pinned_form


def scene(slot_a="s1", slot_b="s2"):
    """Two interchangeable slots, one installed screw, one held screw."""
    vertices = [
        Vertex("agent", "agent"),
        Vertex("table", "table"),
        Vertex(slot_a, "slot"),
        Vertex(slot_b, "slot"),
        Vertex("screw", "eccentric", multiplicity=2),
    ]
    # An edge is its key, (label, incidence), mapped to its multiplicity;
    # the incidence is a multiset, so its order does not matter.
    edges = {
        ("at", ("agent", "table")): 1,
        ("at", ("screw", slot_a)): 1,
        ("holds", ("agent", "screw")): 1,
        ("adj", (slot_a, slot_b)): 1,
    }
    # Conservation is declared once, on the vertex layout that every state
    # over these vertices shares.
    layout = index_vertices(vertices, conservation_labels=("at", "holds"),
                            conserved_vertex_labels=("eccentric",))
    return MultiHypergraph(layout, edges)


def main():
    g = scene()
    print("scene vertices:")
    for v in g.vertices:
        print(f"  {v.id:7s} label={v.label!r} multiplicity={v.multiplicity}")
    print("scene edges:")
    for (label, incidence), m in sorted(g.edge_dict().items()):
        print(f"  {label}{incidence} x{m}")

    # Conservation is validated at construction time: the two eccentric
    # screws are accounted for by one installed copy and one held copy.
    print("\nconservation labels:", sorted(g.layout.conservation_labels))

    # Renaming vertex ids changes nothing observable.  The canonical form
    # is identical bytes, so equality is O(1) after the first computation.
    h = scene(slot_a="left", slot_b="right")
    print("\nrenamed-slot scene isomorphic:",
          g.canonical_form() == h.canonical_form())
    print("canonical digests:", g.canonical_form().digest(),
          h.canonical_form().digest())

    # Moving the installed screw to the other slot produces the same
    # canonical form too, because the two slots are symmetric.
    swapped = scene(slot_a="s2", slot_b="s1")
    print("slot-swapped scene isomorphic:",
          g.canonical_form() == swapped.canonical_form())

    # A real structural change does show up.  The new state keeps g's
    # layout, and with it the conservation declaration.
    no_adj = g.shifted({k: -m for k, m in g.edge_dict().items() if k[0] == "adj"})
    print("adjacency-dropped scene isomorphic:",
          g.canonical_form() == no_adj.canonical_form())

    # Pinning distinguishes vertices that are otherwise interchangeable.
    # Pinning s1 (occupied) and s2 (empty) gives different forms, because
    # the pinned vertex plays a different role in each case.
    pin_occupied = pinned_form(g, {"s1": 0})
    pin_empty = pinned_form(g, {"s2": 0})
    print("\npinned(s1) == pinned(s2):", pin_occupied == pin_empty)
    print("pinned byte lengths:", len(pin_occupied), len(pin_empty))


if __name__ == "__main__":
    main()
