"""Brute-force reference implementations used only by the tests.

Everything here is deliberately naive: bijection search for isomorphism,
permutation search for pattern matches, cartesian-product enumeration for
groundings, explicit ground-state mixtures for rule pushforwards, and a
canonical-form search that visits every leaf with a refinement that
recomputes every row in every round.  The point is to share no code path
with the library internals being checked; the unpruned search shares only
the library's prepared view of a state and its leaf serialiser.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable, Mapping

from mhgfilter import (Effect, LiftedApplyResult, LiftedMultiHypergraph,
                       MultiHypergraph, Rule, agent_location, apply, edge_key,
                       ground_options, held_counts, index_vertices, lifted_apply)
from mhgfilter.canon import _structure
from mhgfilter.filtering import AT_LABEL
from mhgfilter.graphs import EdgeKey, Vertex


def lifted_state(vertices, fixed: Mapping[EdgeKey, int] = {},
                 bounded: Mapping[EdgeKey, tuple[int, int]] = {},
                 groups: Iterable[tuple[Iterable[EdgeKey], int]] = ()
                 ) -> LiftedMultiHypergraph:
    """The lifted state with the ``bounded`` (lower, upper) intervals, the
    ``fixed`` multiplicities and the groups, (keys, total), as one bounds
    map, bounded keys first.  A fixed multiplicity on a bounded key adds to
    its interval and to its group's total, as the domain parser reads a
    document that lists the key in ``edges`` and ``bounded_edges``."""
    bounds = dict(bounded)
    for k, m in fixed.items():
        lo, up = bounds.get(k, (0, 0))
        bounds[k] = (lo + m, up + m)
    return LiftedMultiHypergraph(
        vertices, bounds,
        [(keys, total + sum(fixed.get(k, 0) for k in keys)) for keys, total in groups])


def builtin_document(name: str) -> dict:
    """The shipped ``mhg-domain/1`` document of a built-in scene, read afresh
    so that a test may edit it."""
    path = resources.files("mhgfilter") / "domains" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def renamed_mini_document() -> dict:
    """The mini document with ``walk``'s destination variable named ``TO``
    and ``take``'s item variable ``ITEM``: the same dynamics under names
    the ``install_heavy`` policy does not look for."""
    doc = builtin_document("mini")
    for rule in doc["rules"]:
        old = {"walk": "Y", "take": "I"}.get(rule["name"])
        if old is not None:
            new = {"Y": "TO", "I": "ITEM"}[old]
            for pv in rule["pattern"]["vertices"]:
                pv["var"] = new if pv["var"] == old else pv["var"]
            for e in (rule["pattern"].get("edges", []) + rule["effect"]["retract"]
                      + rule["effect"]["assert"]):
                e["vars"] = [new if v == old else v for v in e["vars"]]
    return doc


def reference_agent_location(domain, state) -> str | None:
    """``agent_location`` as a scan of the state's ``at`` keys in key order:
    the other end of the agent's one binary ``at`` edge of multiplicity 1,
    or None when the agent has no such edge, another ``at`` edge, or a
    bounded ``at`` key, which some grounding may hold and another not."""
    found = None
    for (label, incidence), (m, upper) in sorted(state.bounds.items()):
        if label != AT_LABEL or domain.agent_id not in incidence:
            continue
        others = [v for v in incidence if v != domain.agent_id]
        if (m != upper or len(incidence) != 2 or len(others) != 1 or m != 1
                or found is not None):
            return None
        found = others[0]
    return found


def fresh_layout(state, vertices=None):
    """A new vertex layout over the state's vertices, or the given ones,
    with the state's conservation declaration."""
    layout = state.layout
    return index_vertices(state.vertices if vertices is None else vertices,
                          layout.conservation_labels, layout.conserved_vertex_labels)


def brute_isomorphic(g1: MultiHypergraph, g2: MultiHypergraph) -> bool:
    """Try every label/multiplicity-preserving vertex bijection."""
    v1 = list(g1.vertices)
    v2 = list(g2.vertices)
    if len(v1) != len(v2):
        return False
    if sorted((v.label, v.multiplicity) for v in v1) != \
       sorted((v.label, v.multiplicity) for v in v2):
        return False
    e1 = g1.edge_dict()
    e2 = g2.edge_dict()
    if len(e1) != len(e2):
        return False
    groups: dict[tuple[str, int], list[str]] = {}
    for v in v2:
        groups.setdefault((v.label, v.multiplicity), []).append(v.id)

    def ok(mapping: dict[str, str]) -> bool:
        for (label, incidence), mult in e1.items():
            image = tuple(sorted(mapping[x] for x in incidence))
            if e2.get((label, image), 0) != mult:
                return False
        return True

    keys = sorted(groups)
    pools = []
    for key in keys:
        mine = sorted(v.id for v in v1 if (v.label, v.multiplicity) == key)
        pools.append((mine, groups[key]))
    for perms in itertools.product(*(itertools.permutations(theirs)
                                     for _, theirs in pools)):
        mapping = {}
        for (mine, _), perm in zip(pools, perms):
            mapping.update(zip(mine, perm))
        if ok(mapping):
            return True
    return False


def ranked(keys) -> list[int]:
    """Dense ranks of ``keys``: equal keys share a rank, in ascending order."""
    palette = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [palette[k] for k in keys]


def _colour_counts(colors: list[int], pairs) -> dict[int, int]:
    count: dict[int, int] = {}
    for v, occ in pairs:
        count[colors[v]] = count.get(colors[v], 0) + occ
    return count


def reference_refine(st, colors: list[int]) -> list[int]:
    """Colour refinement that recomputes every vertex's row in every round.

    A round ranks each vertex by its colour, then its sorted row of (edge
    summary, occurrences, edge colour profile) over its incident edges, where
    an edge's profile is the sorted (colour, total occurrences) pairs of its
    incidence.  It stops when a round splits no cell.
    """
    while True:
        eco = [tuple(sorted(_colour_counts(colors, pairs).items()))
               for pairs in st.occurrences]
        sigs = []
        for i in range(st.n):
            row = sorted((st.descs[e], occ, eco[e]) for e, occ in st.incident[i])
            sigs.append((colors[i], tuple(row)))
        new = ranked(sigs)
        if new == colors:
            return colors
        colors = new


def reference_individualize(st, colors: list[int], v: int) -> list[int]:
    """Individualise ``v`` (a colour just before the rest of its cell) and
    refine from scratch."""
    split = [c * 2 for c in colors]
    split[v] -= 1
    return reference_refine(st, ranked(split))


def unpruned_canonical_bytes(state, pins: Mapping[str, int] | None,
                             version: int) -> bytes:
    """Canonical bytes as the minimum over every leaf of the
    individualisation tree, with no automorphism pruning.

    ``version`` picks the layout as in ``mhgfilter.canon._structure``:
    ``0x01`` ground, ``0x02`` lifted, ``0xFE``/``0xFF`` their pinned forms.
    """
    st = _structure(state, pins, version)
    best: bytes | None = None

    def rec(colors: list[int]) -> None:
        nonlocal best
        counts = Counter(colors)
        target = min((c for c, k in counts.items() if k > 1), default=None)
        if target is None:
            b = st.serialize(colors)
            if best is None or b < best:
                best = b
            return
        for v in range(st.n):
            if colors[v] == target:
                rec(reference_individualize(st, colors, v))

    rec(reference_refine(st, ranked(st.init_keys)))
    assert best is not None
    return best


def brute_automorphism_count(g: MultiHypergraph) -> int:
    edges = g.edge_dict()
    groups: dict[tuple[str, int], list[str]] = {}
    for v in g.vertices:
        groups.setdefault((v.label, v.multiplicity), []).append(v.id)
    count = 0
    pools = [(sorted(ids), sorted(ids)) for _, ids in sorted(groups.items())]
    for perms in itertools.product(*(itertools.permutations(theirs)
                                     for _, theirs in pools)):
        mapping = {}
        for (mine, _), perm in zip(pools, perms):
            mapping.update(zip(mine, perm))
        if all(edges.get((label, tuple(sorted(mapping[x] for x in inc))), 0) == m
               for (label, inc), m in edges.items()):
            count += 1
    return count


def box_groundings(l: LiftedMultiHypergraph) -> list[MultiHypergraph]:
    """Enumerate groundings as a plain box product filtered by the totals."""
    if l.is_empty:
        return []
    return [MultiHypergraph(fresh_layout(l), g)
            for g in raw_groundings(dict(sorted(l.bounds.items())), l._groups())]


def raw_groundings(bounds: Mapping[EdgeKey, tuple[int, int]],
                   groups: Iterable[tuple[Iterable[EdgeKey], int]]
                   ) -> list[dict[EdgeKey, int]]:
    """Groundings of a bounds map and groups as given, before any
    normalisation: a plain box product filtered by the totals.

    Every key takes each value within its own bounds, and a group's total
    counts its members' values.  Returns each grounding as its edge dict
    (key to positive multiplicity).
    """
    keys = list(bounds)
    # each group as (positions of its members in ``keys``, total)
    totals = [([keys.index(k) for k in members], total) for members, total in groups]
    out = []
    for values in itertools.product(*(range(lo, up + 1) for lo, up in bounds.values())):
        if any(sum(values[i] for i in members) != total
               for members, total in totals):
            continue
        out.append({k: v for k, v in zip(keys, values) if v})
    return out


def ground_pushforward(rule: Rule, l: LiftedMultiHypergraph,
                       grounds: list[MultiHypergraph] | None = None
                       ) -> tuple[dict[bytes, float], int, int]:
    """Push the uniform grounding distribution through the rule by hand.

    ``grounds`` may pass ``box_groundings(l)`` in when it is already at hand.
    Returns (canonical successor distribution conditioned on applicability,
    number of applicable groundings, number of groundings).
    """
    if grounds is None:
        grounds = box_groundings(l)
    dist: dict[bytes, float] = {}
    n_app = 0
    for g in grounds:
        options = ground_options(rule, g)
        if not options:
            continue
        n_app += 1
        for m in options:
            h = apply(rule, g, m)
            key = h.canonical_form().data
            dist[key] = dist.get(key, 0.0) + 1.0 / len(options)
    if n_app:
        dist = {k: w / n_app for k, w in dist.items()}
    return dist, n_app, len(grounds)


def _admits(pv, v: Vertex) -> bool:
    if v.multiplicity < pv.min_multiplicity:
        return False
    if pv.label is None:
        return True
    return v.label in pv.label if isinstance(pv.label, frozenset) else v.label == pv.label


def brute_matches(pattern, state) -> list[tuple[tuple[tuple[str, str], ...], bool]]:
    """Every injective assignment of the pattern's variables, found by trying
    each ordered choice of distinct vertices, whose labels and
    multiplicities the variables admit and whose pattern edges reach their
    minimum on upper bounds; each with whether they reach it on lower
    bounds too.  Sorted by assignment, each sorted by variable."""
    bounds = state.bounds
    out = []
    for chosen in itertools.permutations(state.vertices, len(pattern.vertices)):
        if not all(_admits(pv, v) for pv, v in zip(pattern.vertices, chosen)):
            continue
        assignment = {pv.var: v.id for pv, v in zip(pattern.vertices, chosen)}
        ok = sure = True
        for pe in pattern.edges:
            lo, up = bounds.get(
                (pe.label, tuple(sorted(assignment[x] for x in pe.vars))), (0, 0))
            ok = ok and up >= pe.min_multiplicity
            sure = sure and lo >= pe.min_multiplicity
        if ok:
            out.append((tuple(sorted(assignment.items())), sure))
    return sorted(out)


def brute_fire(effect, edges: Mapping[tuple, int], assignment: Mapping[str, str]
               ) -> dict[tuple, int] | None:
    """The edge dict after the effect, each edge in turn, or None when a
    retract goes below zero or an assert passes its cap."""
    after = dict(edges)

    def key(e):
        return e.label, tuple(sorted(assignment.get(x, x) for x in e.vars))

    for e in effect.retract:
        if after.get(key(e), 0) < e.multiplicity:
            return None
        after[key(e)] -= e.multiplicity
    for e in effect.assert_:
        after[key(e)] = after.get(key(e), 0) + e.multiplicity
        if e.cap is not None and after[key(e)] > e.cap:
            return None
    return {k: m for k, m in after.items() if m}


def brute_transition(rule: Rule, l: LiftedMultiHypergraph
                     ) -> tuple[list[tuple], int, int, dict[bytes, float]]:
    """The rule on the uniform grounding distribution, from ``box_groundings``
    and ``brute_matches`` alone.

    Returns (the options in every grounding, as sorted assignments; the
    number of groundings with an option; the number of groundings; the
    canonical successor distribution, conditioned on applicability).
    """
    grounds = box_groundings(l)
    every = None
    dist: dict[bytes, float] = {}
    n_app = 0
    for g in grounds:
        edges = g.edge_dict()
        successors = {}
        for assignment, _ in brute_matches(rule.pattern, g):
            after = brute_fire(rule.effect, edges, dict(assignment))
            if after is not None:
                successors[assignment] = after
        every = set(successors) if every is None else every & set(successors)
        if not successors:
            continue
        n_app += 1
        for after in successors.values():
            h = MultiHypergraph(fresh_layout(l), after)
            key = h.canonical_form().data
            dist[key] = dist.get(key, 0.0) + 1.0 / len(successors)
    if n_app:
        dist = {k: w / n_app for k, w in dist.items()}
    return sorted(every or ()), n_app, len(grounds), dist


def observed(domain, g: MultiHypergraph, loc: str, held: Mapping[str, int]) -> bool:
    """Whether the ground state g shows one annotation side as
    ``generate_trace`` records it: the agent's ``at`` edge to ``loc`` has
    multiplicity 1, and the held counts are the side's non-zero ones."""
    return (g.edge_multiplicity(AT_LABEL, (domain.agent_id, loc)) == 1
            and held_counts(domain, g) == {k: v for k, v in held.items() if v})


class BruteSide:
    """An observation side for ``LiftedApplyResult.outputs`` from exact-count
    conditions, (key set, required total): ``excluded`` marks a plan step
    when no grounding of its successor, built afresh by ``shifted``, meets
    every condition."""

    def __init__(self, conditions):
        self.conditions = conditions

    def meets(self, g: MultiHypergraph) -> bool:
        return all(sum(g.edge_multiplicity(*k) for k in keys) == required
                   for keys, required in self.conditions)

    def excluded(self, l: LiftedMultiHypergraph, plan) -> list[bool]:
        return [not any(self.meets(g) for g in l.shifted(delta, group).iter_groundings())
                for _, delta, group in plan]


def merge_free_log_likelihood(domain, trace) -> float:
    """Log likelihood of the trace under ground enumeration that merges
    nothing: ground states are keyed by their exact edge dict, vertex ids
    included, so two isomorphic states stay two hypotheses.

    Each step follows the filter's model: dead ends drop out and the rest
    is renormalised, the observed rule is chosen with its action-model
    weight among the applicable rules, and then one of its options
    uniformly; the agent's location and the held counts on both sides must
    match the annotation exactly (``observed``).
    """
    grounds = domain.initial_state.groundings()
    belief = {frozenset(g.edge_dict().items()): (g, 1.0 / len(grounds))
              for g in grounds}
    log_likelihood = 0.0
    for a in trace:
        live = z = 0.0
        nxt: dict[frozenset, tuple[MultiHypergraph, float]] = {}
        for g, w in belief.values():
            options = {r.name: (r, ground_options(r, g)) for r in domain.rules}
            loc = agent_location(domain, g)
            weights = {name: domain.action_model.rule_weight(name, loc)
                       for name, (_, opts) in options.items() if opts}
            total = sum(weights.values())
            if total <= 0:
                continue
            live += w
            if not weights.get(a.action) or not observed(domain, g, a.loc_t, a.held_t):
                continue
            rule, opts = options[a.action]
            for m in opts:
                h = apply(rule, g, m)
                if observed(domain, h, a.loc_next, a.held_next):
                    mass = w * weights[a.action] / total / len(opts)
                    z += mass
                    key = frozenset(h.edge_dict().items())
                    nxt[key] = (h, nxt.get(key, (h, 0.0))[1] + mass)
        if z <= 0:
            raise ValueError(f"annotation {a!r} kills all mass")
        log_likelihood += math.log(z / live)
        belief = {k: (h, m / z) for k, (h, m) in nxt.items()}
    return log_likelihood


@dataclass(frozen=True)
class _RawTransition(LiftedApplyResult):
    """A transition whose ``outputs`` are fixed raw successors."""

    raw: tuple = ()

    def outputs(self, side=None):
        return self.raw


def unchecked_lifted_apply(rule: Rule, l: LiftedMultiHypergraph) -> LiftedApplyResult:
    """A deliberately wrong ``lifted_apply``, for divergence-detection tests.

    A rule with a capped assert skips the exactness precondition and takes
    raw interval arithmetic at each match of the rest of its effect: the
    rest moves fixed edges, the group holding the capped assert's key grows
    its total by one, and every member's upper bound grows by one, capped at
    the new total.  The result is exact only by accident.  Other rules take
    the library's path.  The capped branch's ``outputs`` ignore the
    observation side and return every successor, so the update's own
    conditioning alone keeps it exact where the arithmetic is.  Tests patch
    it in at ``mhgfilter.filtering.lifted_apply``.
    """
    capped = next((e for e in rule.effect.assert_ if e.cap is not None), None)
    if capped is None:
        return lifted_apply(rule, l)
    n = l.count_groundings()
    rest = Rule(rule.name, rule.pattern,
                Effect(rule.effect.retract,
                       tuple(e for e in rule.effect.assert_ if e is not capped)))
    matches = ground_options(rest, l)
    if not matches:
        return LiftedApplyResult(rule, l, 0, n)

    def key(e, assignment):
        return edge_key(e.label, [assignment.get(x, x) for x in e.vars])

    group = next(g for g in (l.group_of(key(capped, m.as_dict())) for m in matches)
                 if g is not None)
    total = group.total + 1
    bounded = {k: (lo, min(up + 1, total)) if k in group.edge_keys else (lo, up)
               for k, (lo, up) in l.bounds.items() if lo < up}
    groups = [(c.edge_keys, total) if c == group else c for c in l._groups()]
    outputs = []
    for m in matches:
        assignment = m.as_dict()
        fixed = {k: lo for k, (lo, up) in l.bounds.items() if lo == up}
        for e in rest.effect.retract:
            fixed[key(e, assignment)] -= e.multiplicity
        for e in rest.effect.assert_:
            fixed[key(e, assignment)] = fixed.get(key(e, assignment), 0) + e.multiplicity
        state = lifted_state(fresh_layout(l), {k: c for k, c in fixed.items() if c},
                             bounded, groups)
        outputs.append((state, 1.0 / len(matches)))
    return _RawTransition(rule, l, n, n, raw=tuple(outputs))


def lifted_distribution(outputs: Iterable[tuple[LiftedMultiHypergraph, float]]
                        ) -> dict[bytes, float]:
    """Expand lifted successor states into a ground canonical distribution."""
    dist: dict[bytes, float] = {}
    for state, w in outputs:
        grounds = box_groundings(state)
        for g in grounds:
            key = g.canonical_form().data
            dist[key] = dist.get(key, 0.0) + w / len(grounds)
    return dist


def tv_distance(p: dict[bytes, float], q: dict[bytes, float]) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def random_graph(rng, n_vertices: int = 5, n_labels: int = 3,
                 n_edges: int = 6, max_arity: int = 3,
                 max_multiplicity: int = 3) -> MultiHypergraph:
    """A random labeled multi-hypergraph (no conservation declared)."""
    vertices = [Vertex(f"v{i}", f"L{rng.randrange(n_labels)}",
                       rng.randrange(1, max_multiplicity + 1))
                for i in range(n_vertices)]
    ids = [v.id for v in vertices]
    edges = Counter()
    for _ in range(rng.randrange(n_edges + 1)):
        arity = rng.randrange(1, max_arity + 1)
        edges[edge_key(f"e{rng.randrange(n_labels)}",
                       [rng.choice(ids) for _ in range(arity)])] += \
            rng.randrange(1, max_multiplicity + 1)
    return MultiHypergraph(vertices, edges)


def relabel(g, rng):
    """Rename vertex ids by a random permutation (an isomorphic copy) of a
    ground or lifted state."""
    ids = [v.id for v in g.vertices]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(ids, shuffled))
    vertices = [Vertex(mapping[v.id], v.label, v.multiplicity)
                for v in g.vertices]

    def key(k):
        return edge_key(k[0], [mapping[x] for x in k[1]])

    if isinstance(g, MultiHypergraph):     # a ground state is a lifted one too
        return MultiHypergraph(fresh_layout(g, vertices),
                               {key(k): m for k, m in g.edge_dict().items()})
    return LiftedMultiHypergraph(
        fresh_layout(g, vertices), {key(k): b for k, b in g.bounds.items()},
        [([key(k) for k in keys], total) for keys, total in g._groups()])


def random_lifted(rng, n_vertices: int = 4) -> LiftedMultiHypergraph:
    """A random feasible lifted state (no conservation declared).

    Bounds are kept narrow so the grounding count stays in the hundreds.
    """
    vertices = [Vertex(f"v{i}", f"L{rng.randrange(3)}", rng.randrange(1, 4))
                for i in range(n_vertices)]
    ids = [v.id for v in vertices]
    fixed = Counter()
    for _ in range(rng.randrange(4)):
        arity = rng.randrange(1, 3)
        fixed[edge_key(f"e{rng.randrange(2)}",
                       [rng.choice(ids) for _ in range(arity)])] += rng.randrange(1, 3)
    bounded = {}
    for _ in range(rng.randrange(1, 6)):
        arity = rng.randrange(1, 3)
        inc = [rng.choice(ids) for _ in range(arity)]
        key = edge_key(f"b{rng.randrange(2)}", inc)
        if key in bounded:
            continue
        lo = rng.randrange(3)
        bounded[key] = (lo, lo + rng.randrange(3))
    groups = []
    pool = sorted(bounded)
    rng.shuffle(pool)
    if len(pool) >= 2 and rng.random() < 0.8:
        members = pool[:rng.randrange(2, min(3, len(pool)) + 1)]
        lo_sum = sum(bounded[k][0] for k in members)
        up_sum = sum(bounded[k][1] for k in members)
        groups.append((members, rng.randint(lo_sum, up_sum)))
    return lifted_state(vertices, fixed, bounded, groups)


def symmetric_graph(randint: Callable[[int, int], int],
                    max_vertices: int = 8) -> MultiHypergraph:
    """A ground state with few labels and many same-label vertices.

    ``randint(a, b)`` draws an integer in ``[a, b]``, so a Hypothesis
    ``draw`` or a ``random.Random`` can drive it.  The shape is a star (one
    board holding same-label slots), disjoint cycles, or disjoint copies of a
    small random graph; up to two extra edges then break some symmetry.
    """
    shape = randint(0, 2)
    if shape == 0:
        n = randint(1, max_vertices - 1)
        verts = [Vertex("board", "board")] + [Vertex(f"s{i}", "slot") for i in range(n)]
        edges = [("has", ("board", f"s{i}"), 1) for i in range(n)]
    elif shape == 1:
        verts, edges, left = [], [], randint(3, max_vertices)
        while left >= 3:
            size = left if left < 6 else randint(3, left)
            ids = [f"c{len(verts) + i}" for i in range(size)]
            verts += [Vertex(x, "node") for x in ids]
            edges += [("e", (ids[i], ids[(i + 1) % size]), 1) for i in range(size)]
            left -= size
    else:
        copies = randint(2, 3)
        size = randint(1, max(1, max_vertices // copies))
        labels = [f"L{randint(0, 1)}" for _ in range(size)]
        template = [(randint(0, size - 1), randint(0, size - 1), randint(1, 2))
                    for _ in range(randint(0, 3))]
        verts, edges = [], []
        for c in range(copies):
            verts += [Vertex(f"k{c}_{i}", labels[i]) for i in range(size)]
            edges += [("t", (f"k{c}_{a}", f"k{c}_{b}"), m) for a, b, m in template]
    ids = [v.id for v in verts]
    for _ in range(randint(0, 2)):
        edges.append(("x", (ids[randint(0, len(ids) - 1)],
                            ids[randint(0, len(ids) - 1)]), 1))
    mults = Counter()
    for label, incidence, m in edges:
        mults[edge_key(label, incidence)] += m
    return MultiHypergraph(verts, mults)


def symmetric_lifted(randint: Callable[[int, int], int], max_vertices: int = 8,
                     max_groups: int = 3) -> LiftedMultiHypergraph:
    """A lifted state over ``symmetric_graph``: an item vertex and one bounded
    ``at`` edge from it to every vertex of the largest label class, dealt in
    turn or in blocks into up to ``max_groups`` total-constraint groups.
    Three times in four the groups share one total, so equal groups are
    interchangeable."""
    g = symmetric_graph(randint, max_vertices)
    by_label: dict[str, list[str]] = {}
    for v in g.vertices:
        by_label.setdefault(v.label, []).append(v.id)
    slots = max(by_label.values(), key=len)
    upper = randint(1, 2)
    bounded = [edge_key("at", ("item", s)) for s in slots]
    k = randint(1, max_groups)
    dealt = randint(0, 1)
    groups = [[b for i, b in enumerate(bounded)
               if (i % k if dealt else i * k // len(bounded)) == j] for j in range(k)]
    shared = randint(0, upper) if randint(0, 3) else None
    totals = [(group, randint(0, upper * len(group)) if shared is None
               else min(shared, upper * len(group)))
              for j, group in enumerate(groups) if group]
    return lifted_state(
        list(g.vertices) + [Vertex("item", "item", randint(1, 3))],
        g.edge_dict(), dict.fromkeys(bounded, (0, upper)), totals)


def random_mini_document(rng) -> dict:
    """A random ``mhg-domain/1`` document in the mini family.

    The scene has one board with 1-5 slots, whose labels are distinct or
    (one time in four) drawn with repeats, 1-4 eccentrics and a
    screwdriver, under mini's rules with an install cap of 1 or 2.  With cap
    1, half the time the agent also holds a dowel that installs like an
    eccentric, and half the time no annotation observes the eccentrics'
    held count; either makes plans of several steps whose weights no
    observation settles.  (Unobserved installs under cap 2 are lifted by
    no plan, and the belief grows past a thousand states.)  The start is
    uncertain: the agent's and the screwdriver's locations may each be a
    [0,1] group over floor and table, and the eccentrics not known to be
    on a pile, at floor or table, are one group over some of the slots,
    each holding up to the cap, and sometimes the pile too.  The known ones
    are an ``edges`` entry on the pile's key, which the parser folds into
    that key when it is bounded too.  The action model has random
    ``weights`` and ``by_location`` tables; one time in four they give a
    rule weight 0, everywhere or at one place.
    """
    places = ["floor", "table"]

    def edge(label, *incidence, **extra):
        return {"label": label, "incidence": list(incidence), **extra}

    def somewhere(item, known):
        """``item`` at floor or table: known, or a [0,1] group of the two."""
        if rng.random() < known:
            doc["edges"].append(edge("at", item, rng.choice(places)))
            return
        doc["bounded_edges"] += [edge("at", item, p, lower=0, upper=1) for p in places]
        doc["constraints"].append({"edges": [["at", [item, p]] for p in places],
                                   "total": 1})

    n = rng.randint(1, 5)
    slots = [f"slot_{i}" for i in range(n)]
    shared = rng.random() < 0.25
    labels = {s: f"slot_{rng.randrange(n)}" if shared else s for s in slots}
    items = {"eccentric": rng.randint(1, 4)}
    cap = rng.randint(1, 2)
    if cap == 1 and rng.random() < 0.5:
        items["dowel"] = rng.randint(1, 2)
    unobserved = cap == 1 and rng.random() < 0.5    # the eccentrics' held count
    doc = {
        "format": "mhg-domain/1", "name": "random-mini", "agent": "agent",
        "labels": {"locations": places + sorted(set(labels.values())),
                   "agent_locations": places,
                   "holdable": ["eccentric", "screwdriver"][unobserved:]},
        "conservation": {"edges": ["at", "holds"],
                         "vertices": sorted(items) + ["screwdriver"]},
        "vertices": ([{"id": v, "label": v} for v in ["agent", "board"] + places]
                     + [{"id": s, "label": labels[s]} for s in slots]
                     + [{"id": i, "label": i, "multiplicity": m}
                        for i, m in items.items()]
                     + [{"id": "screwdriver", "label": "screwdriver"}]),
        "edges": [edge("has", "board", s) for s in slots],
        "bounded_edges": [], "constraints": []}
    somewhere("agent", 1 / 3)
    somewhere("screwdriver", 1 / 2)
    if "dowel" in items:
        doc["edges"].append(edge("holds", "agent", "dowel", multiplicity=items["dowel"]))
    m = items["eccentric"]
    # eccentrics known to be on a pile, which is where the install rule
    # can take them from when their installs are unobserved
    known, pile = rng.randint(0, m), "table" if cap == 1 else rng.choice(places)
    homes = slots[:rng.randint(1, n)]
    if rng.random() < 0.5:              # the rest are in the slots or on the pile
        homes.append(pile)
    else:                               # the rest are in the slots
        known = max(known, m - cap * len(homes))
    if known:
        doc["edges"].append(edge("at", "eccentric", pile, multiplicity=known))
    if known < m:
        doc["bounded_edges"] += [edge("at", "eccentric", p, lower=0,
                                      upper=m - known if p == pile else cap)
                                 for p in homes]
        doc["constraints"].append({"edges": [["at", ["eccentric", p]] for p in homes],
                                   "total": m - known})
    agent = {"var": "A", "label": "agent"}
    at_table = [agent, {"var": "E", "label_any_of": sorted(items)},
                {"var": "S", "label": "screwdriver"}, {"var": "T", "label": "table"},
                {"var": "SL", "label_any_of": sorted(set(labels.values()))}]
    movable = [agent, {"var": "I", "label_any_of": sorted(items) + ["screwdriver"]},
               {"var": "L", "label_any_of": places}]

    def rule(name, vertices, reads, retract, assert_):
        return {"name": name,
                "pattern": {"vertices": vertices,
                            "edges": [{"label": lb, "vars": v} for lb, v in reads]},
                "effect": {"retract": [retract], "assert": [assert_]}}

    doc["rules"] = [
        rule("walk", [agent, {"var": "X", "label_any_of": places},
                      {"var": "Y", "label_any_of": places}],
             [("at", ["A", "X"])], {"label": "at", "vars": ["A", "X"]},
             {"label": "at", "vars": ["A", "Y"]}),
        rule("take", movable, [("at", ["A", "L"]), ("at", ["I", "L"])],
             {"label": "at", "vars": ["I", "L"]}, {"label": "holds", "vars": ["A", "I"]}),
        rule("putDown", movable, [("at", ["A", "L"]), ("holds", ["A", "I"])],
             {"label": "holds", "vars": ["A", "I"]}, {"label": "at", "vars": ["I", "L"]}),
        rule("installEccentric", at_table,
             [("at", ["A", "T"]), ("holds", ["A", "E"]), ("holds", ["A", "S"])],
             {"label": "holds", "vars": ["A", "E"]},
             {"label": "at", "vars": ["E", "SL"], "cap": cap}),
        rule("uninstall", at_table,
             [("at", ["A", "T"]), ("holds", ["A", "S"]), ("at", ["E", "SL"])],
             {"label": "at", "vars": ["E", "SL"]},
             {"label": "holds", "vars": ["A", "E"]})]

    def weights():
        names = [r["name"] for r in doc["rules"]]
        return {name: rng.choice([0.5, 1, 2, 3])
                for name in rng.sample(names, rng.randint(0, len(names)))}

    doc["action_model"] = {"weights": weights(),
                           "by_location": {p: weights() for p in places
                                           if rng.random() < 1 / 3}}
    # one time in four, a rule has weight 0, everywhere or at one place
    if rng.random() < 1 / 4:
        where = rng.choice([None] + places)
        table = (doc["action_model"]["weights"] if where is None
                 else doc["action_model"]["by_location"].setdefault(where, {}))
        table[rng.choice(doc["rules"])["name"]] = 0
    return doc


def mini_documents():
    """A Hypothesis strategy of ``random_mini_document`` documents, each
    with the domain ``parse_domain`` loads from it."""
    from hypothesis import strategies as st

    from mhgfilter import parse_domain

    def load(rng):
        doc = random_mini_document(rng)
        return doc, parse_domain(doc, "random-mini")

    return st.randoms(use_true_random=True).map(load)
