"""Seeded input builders for the benchmark workloads.

Every builder is a pure function of its arguments and its seed: the same
seed gives the same domain and the same annotation trace.  Inputs are built
only through the library's public API (``generate_trace``, ``ground_options``,
``apply``, ``held_counts``, ``agent_location`` and ``parse_domain``), so the
benchmark keeps working when the library's internals change.
"""

from __future__ import annotations

import math
import random

from mhgfilter import (AnnotationTuple, agent_location, apply, generate_trace,
                       ground_options, held_counts, parse_domain)


def _initial_ground_state(domain):
    grounds = domain.initial_state.groundings()
    if len(grounds) != 1:
        raise ValueError(f"domain {domain.name!r}: initial state must be ground")
    return grounds[0]


def _simulate(domain, plan, rng) -> list[AnnotationTuple]:
    """Run a plan of (rule name, pattern variable, vertex id) steps from the
    initial state and record the annotations, as ``generate_trace`` does.

    Each step applies a random option of the rule among those binding the
    variable to the vertex (any option when the variable is None)."""
    g = _initial_ground_state(domain)
    trace = []
    for name, var, vid in plan:
        rule = domain.rule(name)
        opts = [m for m in ground_options(rule, g) if var is None or m.get(var) == vid]
        if not opts:
            raise ValueError(f"no {name!r} option in the simulated state")
        g2 = apply(rule, g, opts[rng.randrange(len(opts))])
        trace.append(AnnotationTuple(name, agent_location(domain, g),
                                     agent_location(domain, g2),
                                     held_counts(domain, g), held_counts(domain, g2)))
        g = g2
    return trace


# -- bookshelf_install ---------------------------------------------------------

PREFIX_LENGTH = 80   # steps generated, of which the install phase takes 30


def install_prefix(domain, seed: int) -> list[AnnotationTuple]:
    """An ``install_heavy`` bookshelf trace cut just after its last
    ``installEccentric``.

    The greedy policy installs all 14 eccentrics in its first 30 steps, two
    steps per install, before any ``connectBoards``.  Cutting there gives
    every seed the same amount of lifted work; the steps after it act on a
    single ground state, and an unobserved ``connectBoards`` would widen the
    belief, which is the ``bookshelf_connect`` workload's job.
    """
    trace, _ = generate_trace(domain, seed=seed, length=PREFIX_LENGTH,
                              policy="install_heavy")
    actions = [a.action for a in trace]
    last = len(actions) - 1 - actions[::-1].index("installEccentric")
    if "connectBoards" in actions[:last]:
        raise ValueError(f"seed {seed}: connectBoards before the last install")
    return trace[:last + 1]


def install_traces(domain, seed: int, count: int) -> list[list[AnnotationTuple]]:
    """Install prefixes of ``count`` consecutive trace seeds from ``1000 * seed``."""
    return [install_prefix(domain, seed * 1000 + i) for i in range(count)]


# -- bookshelf_connect ---------------------------------------------------------

def connect_trace(domain, seed: int, rounds: int = 3) -> list[AnnotationTuple]:
    """Walk to the table, take the wrench, then ``rounds`` times take a bolt
    and connect a seed-chosen adjacent pair of boards.

    Which pair gets connected is not observed, so after k rounds the belief
    holds one state per set of k connected pairs: C(13, k) of them.  The seed
    only picks the pairs, so the work does not depend on it.
    """
    plan = [("walk", "Y", "table"), ("take", "I", "wrench")]
    plan += [("take", "I", "bolt"), ("connectBoards", None, None)] * rounds
    return _simulate(domain, plan, random.Random(seed))


# -- symmetric_slots -----------------------------------------------------------

SYMMETRIC_SLOTS = 6
SYMMETRIC_INSTALLS = 4


def symmetric_slots_document() -> dict:
    """An ``mhg-domain/1`` scene: one board with ``SYMMETRIC_SLOTS``
    identically labelled slots, one eccentric per install and a screwdriver
    on the table.

    Identical slot labels leave every slot vertex in one colour class, so a
    canonical form individualises through all ``SYMMETRIC_SLOTS!`` orderings.
    The scene goes through the documented JSON format rather than the Python
    constructors, which keeps it loadable as the rule classes evolve.
    """
    slot_ids = [f"slot_{i}" for i in range(SYMMETRIC_SLOTS)]
    eccentrics = SYMMETRIC_INSTALLS
    places = ["floor", "table"]
    holdable = ["eccentric", "screwdriver"]

    def var(name, label):
        key = "label_any_of" if isinstance(label, list) else "label"
        return {"var": name, key: label}

    def edge(label, *vs):
        return {"label": label, "vars": list(vs)}

    return {
        "format": "mhg-domain/1",
        "name": "symmetric_slots",
        "agent": "agent",
        "labels": {"locations": places + ["slot"], "agent_locations": places,
                   "holdable": holdable},
        "conservation": {"edges": ["at", "holds"], "vertices": holdable},
        "vertices": ([{"id": v, "label": v}
                      for v in ("agent", "floor", "table", "board", "screwdriver")]
                     + [{"id": "eccentric", "label": "eccentric",
                         "multiplicity": eccentrics}]
                     + [{"id": s, "label": "slot"} for s in slot_ids]),
        "edges": ([{"label": "at", "incidence": ["agent", "floor"]},
                   {"label": "at", "incidence": ["screwdriver", "table"]},
                   {"label": "at", "incidence": ["eccentric", "table"],
                    "multiplicity": eccentrics}]
                  + [{"label": "has", "incidence": ["board", s]} for s in slot_ids]),
        "rules": [
            {"name": "walk",
             "pattern": {"vertices": [var("A", "agent"), var("X", places),
                                      var("Y", places)],
                         "edges": [edge("at", "A", "X")]},
             "effect": {"retract": [edge("at", "A", "X")],
                        "assert": [edge("at", "A", "Y")]}},
            {"name": "take",
             "pattern": {"vertices": [var("A", "agent"), var("I", holdable),
                                      var("L", places)],
                         "edges": [edge("at", "A", "L"), edge("at", "I", "L")]},
             "effect": {"retract": [edge("at", "I", "L")],
                        "assert": [edge("holds", "A", "I")]}},
            {"name": "putDown",
             "pattern": {"vertices": [var("A", "agent"), var("I", holdable),
                                      var("L", places)],
                         "edges": [edge("at", "A", "L"), edge("holds", "A", "I")]},
             "effect": {"retract": [edge("holds", "A", "I")],
                        "assert": [edge("at", "I", "L")]}},
            {"name": "installEccentric",
             "pattern": {"vertices": [var("A", "agent"), var("E", "eccentric"),
                                      var("S", "screwdriver"), var("T", "table")],
                         "edges": [edge("at", "A", "T"), edge("holds", "A", "E"),
                                   edge("holds", "A", "S")]},
             "effect": {"retract": [edge("holds", "A", "E")]},
             "lifted_effect": {"group": "installed_eccentrics",
                               "slots": [{"label": "at", "incidence": ["E", s]}
                                         for s in slot_ids]}},
        ],
    }


def symmetric_slots_domain():
    return parse_domain(symmetric_slots_document(), "symmetric_slots")


def symmetric_trace(domain, seed: int) -> list[AnnotationTuple]:
    """Walk to the table, take the screwdriver, then take and install
    ``SYMMETRIC_INSTALLS`` eccentrics.

    The seed picks whether the screwdriver or the first eccentric is taken
    first, and which slot each install fills (unobserved).  Every seed gives
    the same number of steps and the same belief sizes.
    """
    rng = random.Random(seed)
    first = ["screwdriver", "eccentric"]
    rng.shuffle(first)
    install = ("installEccentric", None, None)
    plan = [("walk", "Y", "table")] + [("take", "I", item) for item in first]
    plan += [install] + [("take", "I", "eccentric"), install] * (SYMMETRIC_INSTALLS - 1)
    return _simulate(domain, plan, rng)


# -- references ----------------------------------------------------------------

def replay_log_likelihood(domain, trace) -> float:
    """Log likelihood of the trace along one ground trajectory consistent with it.

    At each step the evidence is the action-model probability of the observed
    rule times the share of its options whose successor matches the
    observation.  On the bookshelf and symmetric-slot workloads every state in
    the posterior support gives the same evidence (the unobserved choices are
    interchangeable), so this one trajectory yields the exact trace log
    likelihood without touching any lifted or belief representation.
    """
    g = _initial_ground_state(domain)
    total = 0.0
    for i, a in enumerate(trace):
        loc = agent_location(domain, g)
        if loc != a.loc_t or held_counts(domain, g) != dict(a.held_t):
            raise ValueError(f"step {i}: replayed state does not match the trace")
        options = {r.name: ground_options(r, g) for r in domain.rules}
        weights = {r.name: domain.action_model.rule_weight(r.name, loc)
                   for r in domain.rules if options[r.name]}
        matching = []
        for m in options.get(a.action, ()):
            g2 = apply(domain.rule(a.action), g, m)
            if (agent_location(domain, g2) == a.loc_next
                    and held_counts(domain, g2) == dict(a.held_next)):
                matching.append(g2)
        if not matching or weights.get(a.action, 0) <= 0:
            raise ValueError(f"step {i}: the trace is impossible")
        total += math.log(weights[a.action] / sum(weights.values())
                          * len(matching) / len(options[a.action]))
        g = matching[0]
    return total
