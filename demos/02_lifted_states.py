"""Lifted states: intervals plus exact totals instead of ground sets.

A lifted state keeps most edges at known multiplicities and leaves a few
as [lower, upper] intervals tied together by exact-total constraints.  One
such object stands for its whole set of groundings, and the filter treats
it as the uniform distribution over them.
"""

from mhgfilter import LiftedMultiHypergraph, Vertex, expand

PILE_1, PILE_2 = ("at", ("e", "s1")), ("at", ("e", "s2"))


def four_screws_two_piles():
    """Four screws split between two piles, each pile only interval-known.

    The state is built from its bounds map, edge key -> (lower, upper), and
    its groups, each (edge keys, exact total)."""
    return LiftedMultiHypergraph(
        [Vertex("e", "screw", 4), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        {PILE_1: (0, 2), PILE_2: (0, 4)},
        [({PILE_1, PILE_2}, 4)])


def main():
    l = four_screws_two_piles()

    # Normalisation already ran inside the constructor.  The declared
    # intervals were [0,2] and [0,4]; the exact total of 4 forces at least
    # 2 screws into the second pile, so its interval tightens to [2,4].
    print("normalised bounds:")
    for (label, incidence), (lower, upper) in sorted(l.bounds.items()):
        print(f"  {label}{incidence} in [{lower}, {upper}]")

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
    # Its bounds close to single values: lower = upper on every key.
    tight = LiftedMultiHypergraph(
        [Vertex("e", "screw", 4), Vertex("s1", "slot_a"), Vertex("s2", "slot_b")],
        {PILE_1: (0, 2), PILE_2: (0, 2)},
        [({PILE_1, PILE_2}, 4)])
    print("\nsaturated state groundings:", tight.count_groundings())
    print("saturated state bounds:")
    for (label, incidence), (lower, upper) in sorted(tight.bounds.items()):
        print(f"  {label}{incidence} in [{lower}, {upper}]")


if __name__ == "__main__":
    main()
