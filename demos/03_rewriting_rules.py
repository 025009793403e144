"""Rewriting rules: ground application and its exact lifted counterpart.

A rule is a pattern (what must be present) and an effect (edges retracted
and asserted, optionally capped).  An install into an unknown slot is a
pattern variable over the slots plus an assert capped at 1.  Applying a
rule to a lifted state must give the same output distribution as grounding
first and applying to every ground state, and this script checks that
numerically on a small install step.
"""

from collections import defaultdict

from mhgfilter import (Effect, EffectEdge, LiftedMultiHypergraph,
                       MultiHypergraph, Pattern, PatternEdge, PatternVertex,
                       Rule, Vertex, expand, ground_options, index_vertices,
                       lifted_apply, successors, total_variation)


def install_rule():
    """Retract a held screw and assert it installed in some free slot."""
    return Rule(
        "install",
        Pattern((PatternVertex("A", "agent"), PatternVertex("E", "screw"),
                 PatternVertex("SL", "slot")),
                (PatternEdge("holds", ("A", "E")),)),
        Effect(retract=(EffectEdge("holds", ("A", "E")),),
               assert_=(EffectEdge("at", ("E", "SL"), cap=1),)))


def workbench():
    layout = index_vertices(
        [Vertex("agent", "agent"), Vertex("e", "screw", 2),
         Vertex("s1", "slot"), Vertex("s2", "slot"), Vertex("s3", "slot")],
        conservation_labels=("holds", "at"), conserved_vertex_labels=("screw",))
    return MultiHypergraph(layout, {("holds", ("agent", "e")): 2})


def main():
    rule = install_rule()
    g = workbench()

    # One option per free slot.  All three slots are empty and
    # interchangeable, so the uniform choice over the three options
    # collapses to a single successor after merging.
    options = ground_options(rule, g)
    print("ground options:", len(options))
    for m in options:
        print("  assignment:", m.as_dict())
    succ = successors(rule, g)
    print("distinct successors after canonical merge:")
    for out, p in succ:
        installed = sum(m for (label, _), m in out.edge_dict().items() if label == "at")
        print(f"  p={p:.4f} installed={installed}")

    # The same step on a lifted state.  Start from the output of one
    # unobserved install: one screw somewhere among the three slots.
    l1 = lifted_apply(rule, LiftedMultiHypergraph.from_graph(g))
    assert l1.n_applicable == l1.n_groundings == 1
    state_after_one = l1.outputs()[0][0]
    print("\nafter one unobserved install:")
    for (label, incidence), (lower, upper) in sorted(state_after_one.bounds.items()):
        if lower < upper:
            print(f"  {label}{incidence} in [{lower}, {upper}]")
    print("  ground support:", state_after_one.count_groundings())

    # Apply the rule again, now to a genuinely uncertain state.
    l2 = lifted_apply(rule, state_after_one)
    print("\nsecond application:")
    print("  applicable groundings:", l2.n_applicable, "of", l2.n_groundings)
    outputs = l2.outputs()
    print("  lifted outputs:", len(outputs))

    # Brute-force oracle: expand, push every grounding through the ground
    # semantics, and compare the two distributions over canonical forms.
    brute = defaultdict(float)
    for ground, w in expand(state_after_one):
        for out, p in successors(rule, ground):
            brute[out.canonical_form().data] += w * p
    lifted_dist = defaultdict(float)
    for out, p in outputs:
        for ground, w in expand(out):
            lifted_dist[ground.canonical_form().data] += p * w
    tv = total_variation(dict(brute), dict(lifted_dist))
    print("  total variation vs ground enumeration:", tv)
    assert tv < 1e-12


if __name__ == "__main__":
    main()
