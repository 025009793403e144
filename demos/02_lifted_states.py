"""Lifted states: intervals plus exact totals instead of ground sets.

A lifted state keeps most edges at known multiplicities and leaves a few
as [lower, upper] intervals tied together by exact-total constraints.  One
such object stands for its whole set of groundings, and the filter treats
it as the uniform distribution over them.
"""

from mhgfilter import (BoundedEdge, LiftedMultiHypergraph, TotalConstraint,
                       Vertex, expand)


def four_screws_two_piles():
    """Four screws split between two piles, each pile only interval-known."""
    return LiftedMultiHypergraph(
        [Vertex("e", "screw", 4), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        [],
        [BoundedEdge("at", ("e", "s1"), 0, 2),
         BoundedEdge("at", ("e", "s2"), 0, 4)],
        [TotalConstraint(frozenset({("at", ("e", "s1")),
                                    ("at", ("e", "s2"))}), 4)])


def main():
    l = four_screws_two_piles()

    # Normalisation already ran inside the constructor.  The declared
    # intervals were [0,2] and [0,4]; the exact total of 4 forces at least
    # 2 screws into the second pile, so its interval tightens to [2,4].
    print("normalised bounded edges:")
    for b in l.bounded_edges:
        print(f"  {b.label}{b.incidence} in [{b.lower}, {b.upper}]")

    n = l.count_groundings()
    print("\nground support size:", n)
    print("groundings (pile sizes):")
    for g in l.groundings():
        s1 = g.edge_multiplicity("at", ("e", "s1"))
        s2 = g.edge_multiplicity("at", ("e", "s2"))
        print(f"  s1={s1} s2={s2}")

    # expand() is the bridge to the ground oracle: the uniform distribution
    # over groundings, merged by canonical form.
    print("\nuniform expansion:")
    for g, w in expand(l):
        print(f"  weight {w:.6f} digest {g.canonical_form().digest()}")

    # A saturated constraint collapses back to an ordinary ground state.
    tight = LiftedMultiHypergraph(
        [Vertex("e", "screw", 4), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        [],
        [BoundedEdge("at", ("e", "s1"), 0, 2),
         BoundedEdge("at", ("e", "s2"), 0, 2)],
        [TotalConstraint(frozenset({("at", ("e", "s1")),
                                    ("at", ("e", "s2"))}), 4)])
    print("\nsaturated state bounded edges:", len(tight.bounded_edges))
    print("saturated state fixed edges:")
    for e in tight.fixed_edges:
        print(f"  {e.label}{e.incidence} x{e.multiplicity}")


if __name__ == "__main__":
    main()
