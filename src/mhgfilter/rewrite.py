"""Rewriting rules over ground and lifted multi-hypergraph states.

A rule consists of a pattern (vertex variables with label and multiplicity
requirements plus minimum edge multiplicities), a deterministic effect
(retract and assert edge deltas, with optional per-edge caps acting as
capacity guards), and optionally a lifted effect that asserts one edge into
one of several capacity-limited slots.

Ground semantics: a rule is applicable via every injective assignment of its
pattern variables whose effect can be applied; for rules with a lifted
effect, each (assignment, free slot) pair is a separate option.  Applying a
rule picks uniformly among its options.

Lifted semantics: ``lifted_apply`` pushes a rule through a lifted state and
returns the exact distribution over successor lifted states, together with
the number of groundings in which the rule is applicable.  Three strategies
are used, most specific first:

* slot aggregation for lifted effects whose slots all have capacity one,
  keeping a single successor per branch (the source of state compression),
* interval shifting when the match set is provably constant across all
  groundings and the effect moves bounded intervals rigidly,
* exact fallback: enumerate groundings, apply the rule in each, and merge
  the results by canonical form.

All three agree with the ground semantics exactly; the fallback is the
definition, the other two are proved-equal fast paths with checked
preconditions.  ``applicability_count`` returns the same two counts without
building any successor; it and ``lifted_apply`` share one precondition pass,
and a failed precondition is logged at debug level with the rule's name.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Union

from .canon import merge_by_form
from .errors import EffectError, StructuralError
from .graphs import EdgeKey, MultiHypergraph, Vertex, edge_key
from .lifted import (DEFAULT_MAX_GROUNDINGS, BoundedEdge, LiftedMultiHypergraph,
                     TotalConstraint)

State = Union[MultiHypergraph, LiftedMultiHypergraph]

logger = logging.getLogger("mhgfilter")

__all__ = ["PatternVertex", "PatternEdge", "Pattern", "EffectEdge", "Effect",
           "SlotTemplate", "LiftedEffect", "Rule", "Match", "LiftedApplyResult",
           "find_matches", "apply", "ground_options", "successors",
           "applicability_count", "lifted_apply"]


@dataclass(frozen=True)
class PatternVertex:
    """A vertex variable; label may be exact, a set of options, or None (any)."""

    var: str
    label: Union[str, frozenset[str], None] = None
    min_multiplicity: int = 1

    def __post_init__(self):
        if not self.var:
            raise StructuralError("pattern variable name must be non-empty")
        if self.min_multiplicity < 1:
            raise StructuralError(f"pattern vertex {self.var!r}: min multiplicity < 1")
        if isinstance(self.label, (set, frozenset)):
            object.__setattr__(self, "label", frozenset(self.label))

    def admits(self, v: Vertex) -> bool:
        if v.multiplicity < self.min_multiplicity:
            return False
        if self.label is None:
            return True
        if isinstance(self.label, frozenset):
            return v.label in self.label
        return v.label == self.label


@dataclass(frozen=True)
class PatternEdge:
    label: str
    vars: tuple[str, ...]
    min_multiplicity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if not self.vars:
            raise StructuralError(f"pattern edge {self.label!r}: no variables")
        if self.min_multiplicity < 1:
            raise StructuralError(f"pattern edge {self.label!r}: min multiplicity < 1")


@dataclass(frozen=True)
class Pattern:
    vertices: tuple[PatternVertex, ...] = ()
    edges: tuple[PatternEdge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        declared = [pv.var for pv in self.vertices]
        if len(declared) != len(set(declared)):
            raise StructuralError("duplicate pattern variable")
        known = set(declared)
        for pe in self.edges:
            for var in pe.vars:
                if var not in known:
                    raise StructuralError(
                        f"pattern edge {pe.label!r} uses undeclared variable {var!r}")


@dataclass(frozen=True)
class EffectEdge:
    """An edge delta; vars may name pattern variables or literal vertex ids.

    ``cap`` (asserts only) rejects applications that would push the edge
    multiplicity above the cap, acting as a declarative capacity guard.
    """

    label: str
    vars: tuple[str, ...]
    multiplicity: int = 1
    cap: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if self.multiplicity < 1:
            raise StructuralError(f"effect edge {self.label!r}: multiplicity < 1")
        if self.cap is not None and self.cap < 0:
            raise StructuralError(f"effect edge {self.label!r}: negative cap")


@dataclass(frozen=True)
class Effect:
    retract: tuple[EffectEdge, ...] = ()
    assert_: tuple[EffectEdge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "retract", tuple(self.retract))
        object.__setattr__(self, "assert_", tuple(self.assert_))


@dataclass(frozen=True)
class SlotTemplate:
    """One slot a lifted effect may fill: an edge key template with capacity."""

    label: str
    incidence: tuple[str, ...]
    capacity: int = 1

    def __post_init__(self):
        object.__setattr__(self, "incidence", tuple(self.incidence))
        if self.capacity < 1:
            raise StructuralError(f"slot {self.label!r}: capacity < 1")


@dataclass(frozen=True)
class LiftedEffect:
    """Assert one edge into an unknown slot, tracked by a constraint group."""

    group: str
    slots: tuple[SlotTemplate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.group:
            raise StructuralError("lifted effect needs a group name")
        if not self.slots:
            raise StructuralError(f"lifted effect {self.group!r}: no slots")


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: Pattern = field(default_factory=Pattern)
    effect: Effect = field(default_factory=Effect)
    lifted_effect: LiftedEffect | None = None

    def __post_init__(self):
        if not self.name:
            raise StructuralError("rule name must be non-empty")


@dataclass(frozen=True, order=True)
class Match:
    """An injective variable assignment, plus the chosen slot for lifted rules."""

    assignment: tuple[tuple[str, str], ...]
    placement: EdgeKey | None = None

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(sorted(self.assignment)))

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)

    def get(self, var: str) -> str:
        for k, v in self.assignment:
            if k == var:
                return v
        raise KeyError(var)


# -- effect keys ---------------------------------------------------------------

def _resolve(entry: str, assignment: Mapping[str, str], state: State) -> str:
    vid = assignment.get(entry, entry)
    if not state.has_vertex(vid):
        raise EffectError(f"unknown vertex {vid!r} in effect")
    return vid


def _effect_key(e: EffectEdge, assignment: Mapping[str, str], state: State) -> EdgeKey:
    return edge_key(e.label, [_resolve(x, assignment, state) for x in e.vars])


def _slot_key(s: SlotTemplate, assignment: Mapping[str, str], state: State) -> EdgeKey:
    return edge_key(s.label, [_resolve(x, assignment, state) for x in s.incidence])


# -- matching ------------------------------------------------------------------

def _raw_matches(pattern: Pattern, state: State, optimistic: bool) -> list[Match]:
    """All injective assignments satisfying the pattern conditions.

    On lifted states, conditions read guaranteed multiplicities (optimistic
    False) or maximal ones (optimistic True); the two coincide on ground
    states.
    """
    verts = state.vertices
    side = 1 if optimistic else 0
    pvs = list(pattern.vertices)
    # most-constrained-first static order keeps backtracking shallow
    candidates = {pv.var: sorted((v.id for v in verts if pv.admits(v)))
                  for pv in pvs}
    pvs.sort(key=lambda pv: len(candidates[pv.var]))
    edges_by_last: dict[str, list[PatternEdge]] = {}
    order_index = {pv.var: i for i, pv in enumerate(pvs)}
    for pe in pattern.edges:
        last = max(pe.vars, key=lambda v: order_index[v]) if pe.vars else None
        if last is None:
            continue
        edges_by_last.setdefault(last, []).append(pe)

    out: list[Match] = []
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def backtrack(i: int):
        if i == len(pvs):
            out.append(Match(tuple(assignment.items())))
            return
        pv = pvs[i]
        for vid in candidates[pv.var]:
            if vid in used:
                continue
            assignment[pv.var] = vid
            used.add(vid)
            ok = True
            for pe in edges_by_last.get(pv.var, ()):
                key = edge_key(pe.label, [assignment[x] for x in pe.vars])
                if state.multiplicity_bounds(key)[side] < pe.min_multiplicity:
                    ok = False
                    break
            if ok:
                backtrack(i + 1)
            del assignment[pv.var]
            used.discard(vid)

    backtrack(0)
    out.sort()
    return out


def _effect_feasible(rule: Rule, state: State, match: Match, optimistic: bool) -> bool:
    """Whether retracts stay non-negative and caps hold (in every grounding
    for optimistic False, in the loosest grounding for optimistic True)."""
    assignment = match.as_dict()
    side = 1 if optimistic else 0
    delta: dict[EdgeKey, int] = {}
    for e in rule.effect.retract:
        k = _effect_key(e, assignment, state)
        delta[k] = delta.get(k, 0) - e.multiplicity
    for k, d in delta.items():
        if state.multiplicity_bounds(k)[side] + d < 0:
            return False
    for e in rule.effect.assert_:
        k = _effect_key(e, assignment, state)
        delta[k] = delta.get(k, 0) + e.multiplicity
        if e.cap is not None and state.multiplicity_bounds(k)[side] + delta[k] > e.cap:
            return False
    return True


def _effect_matches(rule: Rule, state: State) -> list[Match]:
    """Sorted matches whose plain effect fires in every grounding."""
    return [m for m in _raw_matches(rule.pattern, state, optimistic=False)
            if _effect_feasible(rule, state, m, optimistic=False)]


def _free_slot_keys(rule: Rule, g: MultiHypergraph, match: Match) -> list[EdgeKey]:
    assignment = match.as_dict()
    free = []
    for s in rule.lifted_effect.slots:
        k = _slot_key(s, assignment, g)
        if g.multiplicity_bounds(k)[0] + 1 <= s.capacity:
            free.append(k)
    return free


def _has_free_slot(rule: Rule, state: State, match: Match) -> bool:
    census = _slot_census(rule.lifted_effect, state, match)
    if census is not None:
        return census.free_count >= 1
    assignment = match.as_dict()
    return any(state.multiplicity_bounds(_slot_key(s, assignment, state))[1] + 1
               <= s.capacity for s in rule.lifted_effect.slots)


def find_matches(rule: Rule, state: State) -> list[Match]:
    """All applicable injective matches of the rule's pattern, sorted.

    A match counts as applicable only if the effect can actually fire: no
    retraction below zero, no cap exceeded, and for lifted-effect rules at
    least one slot free.  On lifted states, applicability means applicable
    in every grounding.
    """
    matches = _effect_matches(rule, state)
    if rule.lifted_effect is not None:
        matches = [m for m in matches if _has_free_slot(rule, state, m)]
    return matches


def ground_options(rule: Rule, g: MultiHypergraph) -> list[Match]:
    """The rule's equally likely application options in a ground state."""
    matches = _effect_matches(rule, g)
    if rule.lifted_effect is None:
        return matches
    # a match without a free slot contributes no option
    out = [Match(m.assignment, placement=k)
           for m in matches for k in _free_slot_keys(rule, g, m)]
    out.sort()
    return out


def apply(rule: Rule, g: MultiHypergraph, match: Match) -> MultiHypergraph:
    """Apply the rule's effect at the given match; raises EffectError when the
    match is not applicable in g."""
    assignment = match.as_dict()
    mults = g.edge_dict()
    for e in rule.effect.retract:
        k = _effect_key(e, assignment, g)
        have = mults.get(k, 0)
        if have < e.multiplicity:
            raise EffectError(
                f"rule {rule.name!r}: cannot retract {e.multiplicity} of {k!r} "
                f"(present: {have})")
        mults[k] = have - e.multiplicity
    for e in rule.effect.assert_:
        k = _effect_key(e, assignment, g)
        mults[k] = mults.get(k, 0) + e.multiplicity
        if e.cap is not None and mults[k] > e.cap:
            raise EffectError(
                f"rule {rule.name!r}: asserting {k!r} exceeds cap {e.cap}")
    if rule.lifted_effect is not None:
        if match.placement is None:
            raise EffectError(f"rule {rule.name!r}: lifted effect needs a placement")
        slots = {_slot_key(s, assignment, g): s for s in rule.lifted_effect.slots}
        if match.placement not in slots:
            raise EffectError(
                f"rule {rule.name!r}: placement {match.placement!r} is not a slot")
        cap = slots[match.placement].capacity
        mults[match.placement] = mults.get(match.placement, 0) + 1
        if mults[match.placement] > cap:
            raise EffectError(
                f"rule {rule.name!r}: slot {match.placement!r} is full")
    return g.replace_edges(mults)


def successors(rule: Rule, g: MultiHypergraph) -> list[tuple[MultiHypergraph, float]]:
    """Successor distribution of the rule in g: uniform over its options,
    grouped by canonical form.  Empty when the rule is not applicable."""
    options = ground_options(rule, g)
    grouped = merge_by_form((apply(rule, g, m), 1) for m in options)
    return [(h, c / len(options)) for _, (h, c) in sorted(grouped.items())]


# -- lifted application --------------------------------------------------------

@dataclass(frozen=True)
class LiftedApplyResult:
    """Successor lifted states with probabilities, plus applicability counts.

    ``outputs`` is conditional on the rule being applicable; ``n_applicable``
    of the ``n_groundings`` groundings admit at least one option.  Callers
    split the source state when 0 < n_applicable < n_groundings.
    """

    outputs: tuple[tuple[LiftedMultiHypergraph, float], ...]
    n_applicable: int
    n_groundings: int


@dataclass(frozen=True)
class _SlotCensus:
    all_keys: tuple[EdgeKey, ...]
    members: tuple[EdgeKey, ...]      # live group members among the slot keys
    empties: tuple[EdgeKey, ...]      # slot keys with no occupant and no bound
    group_total: int
    free_count: int                   # empties + members - total, per grounding


def _slot_census(le: LiftedEffect, l: LiftedMultiHypergraph, match: Match
                 ) -> _SlotCensus | None:
    """Classify the rule's slot keys in l; None when the aggregation
    precondition fails (fallback required)."""
    assignment = match.as_dict()
    keys = []
    for s in le.slots:
        if s.capacity != 1:
            return None
        keys.append(_slot_key(s, assignment, l))
    if len(set(keys)) != len(keys):
        return None
    group = next((c for c in l.constraints if c.name == le.group), None)
    members: list[EdgeKey] = []
    empties: list[EdgeKey] = []
    for k in keys:
        lo, up = l.multiplicity_bounds(k)
        if lo != up:
            if group is None or k not in group.edge_keys or (lo, up) != (0, 1):
                return None
            members.append(k)
        elif lo == 0:
            empties.append(k)
        elif lo != 1:
            return None
    if group is not None and set(group.edge_keys) - set(keys):
        return None          # foreign members: free-slot count not constant
    total = group.total if group is not None else 0
    return _SlotCensus(tuple(keys), tuple(members), tuple(empties), total,
                       len(empties) + len(members) - total)


def _shift_effect(rule: Rule, l: LiftedMultiHypergraph, match: Match
                  ) -> tuple[dict[EdgeKey, int], dict[EdgeKey, tuple[int, int]],
                             dict[str, int]] | None:
    """Compute the effect as rigid interval shifts; None when not legal.

    Returns (new fixed multiplicities, new bounds, group total deltas).
    Legal iff every retract is covered by fixed multiplicity plus the lower
    bound, and every cap verdict is identical across groundings.
    """
    assignment = match.as_dict()
    fixed = {k: m for k, m in l._fixed_mult.items()}
    shift: dict[EdgeKey, int] = {}
    for e in rule.effect.retract:
        k = _effect_key(e, assignment, l)
        need = e.multiplicity
        take = min(fixed.get(k, 0), need)
        fixed[k] = fixed.get(k, 0) - take
        need -= take
        if need:
            b = l._bounded_by_key.get(k)
            if b is None or b.lower + shift.get(k, 0) < need:
                return None
            shift[k] = shift.get(k, 0) - need
    for e in rule.effect.assert_:
        k = _effect_key(e, assignment, l)
        if l._bounded_by_key.get(k) is not None or shift.get(k, 0):
            shift[k] = shift.get(k, 0) + e.multiplicity
        else:
            fixed[k] = fixed.get(k, 0) + e.multiplicity
        if e.cap is not None:
            b = l._bounded_by_key.get(k)
            base = fixed.get(k, 0) + shift.get(k, 0)
            lo_v = base + (b.lower if b else 0)
            up_v = base + (b.upper if b else 0)
            if (lo_v > e.cap) != (up_v > e.cap):
                return None  # verdict varies across groundings
            if up_v > e.cap:
                return None  # infeasible everywhere; caller filtered already
    bounds: dict[EdgeKey, tuple[int, int]] = {}
    group_delta: dict[str, int] = {}
    for k, d in shift.items():
        b = l._bounded_by_key.get(k)
        if b is None:
            # assert onto a previously fixed-only key stays fixed
            fixed[k] = fixed.get(k, 0) + d
            continue
        bounds[k] = (b.lower + d, b.upper + d)
        c = l._group_of.get(k)
        if c is not None:
            group_delta[c.name] = group_delta.get(c.name, 0) + d
    return fixed, bounds, group_delta


def _rebuild(l: LiftedMultiHypergraph, fixed: Mapping[EdgeKey, int],
             bounds: Mapping[EdgeKey, tuple[int, int]],
             group_delta: Mapping[str, int],
             extra_group: TotalConstraint | None = None
             ) -> LiftedMultiHypergraph:
    bedges = []
    for b in l.bounded_edges:
        lo, up = bounds.get(b.key, (b.lower, b.upper))
        bedges.append(BoundedEdge(b.label, b.incidence, lo, up))
    for k, (lo, up) in bounds.items():
        if k not in l._bounded_by_key:
            bedges.append(BoundedEdge(k[0], k[1], lo, up))
    constraints = [TotalConstraint(c.name, c.edge_keys,
                                   c.total + group_delta.get(c.name, 0))
                   for c in l.constraints]
    if extra_group is not None:
        constraints.append(extra_group)
    return l.rebuild(fixed=fixed, bounded=bedges, constraints=constraints)


def _grouped_outputs(pairs: list[tuple[LiftedMultiHypergraph, float]]
                     ) -> tuple[tuple[LiftedMultiHypergraph, float], ...]:
    return tuple(v for _, v in sorted(merge_by_form(pairs).items()))


def _fallback_counts(rule: Rule, l: LiftedMultiHypergraph, max_groundings: int,
                     pairs: list[tuple[MultiHypergraph, float]] | None = None
                     ) -> tuple[int, int]:
    """Enumerate l's groundings; return (n_applicable, n_groundings).

    With ``pairs``, also append every option's ground successor with its
    probability within its grounding.
    """
    n_app = 0
    n_tot = 0
    for g in l.iter_groundings(max_groundings):
        n_tot += 1
        options = ground_options(rule, g)
        if options:
            n_app += 1
            if pairs is not None:
                pairs += [(apply(rule, g, m), 1.0 / len(options)) for m in options]
    return n_app, n_tot


def _fallback(rule: Rule, l: LiftedMultiHypergraph, max_groundings: int
              ) -> LiftedApplyResult:
    """Definitionally exact path: enumerate, apply, relift by canonical form."""
    pairs: list[tuple[MultiHypergraph, float]] = []
    n_app, n_tot = _fallback_counts(rule, l, max_groundings, pairs)
    if n_app == 0:
        return LiftedApplyResult((), 0, n_tot)
    outputs = [(LiftedMultiHypergraph.from_graph(h), w / n_app)
               for _, (h, w) in sorted(merge_by_form(pairs).items())]
    return LiftedApplyResult(tuple(outputs), n_app, n_tot)


def _lifted_plan(rule: Rule, l: LiftedMultiHypergraph) -> list[tuple] | None:
    """Check the preconditions of the lifted strategies, once.

    Returns one (slot census, fixed, bounds, group deltas) step per match
    that fires in every grounding (for lifted-effect rules, per match with a
    free slot; the census is None for other rules), an empty list when the
    rule fires in no grounding, or None when the exact fallback is needed.
    A failed precondition is logged at debug level.
    """
    def give_up(reason: str) -> None:
        logger.debug("lifted_apply %r: fallback, %s", rule.name, reason)

    pess = _raw_matches(rule.pattern, l, optimistic=False)
    if pess != _raw_matches(rule.pattern, l, optimistic=True):
        return give_up("match sets differ across groundings")

    feasible: list[Match] = []
    for m in pess:
        lo_ok = _effect_feasible(rule, l, m, optimistic=False)
        if lo_ok != _effect_feasible(rule, l, m, optimistic=True):
            return give_up("effect feasibility varies across groundings")
        if lo_ok:
            feasible.append(m)

    le = rule.lifted_effect
    firing: list[tuple[Match, _SlotCensus | None]] = []
    for m in feasible:
        if le is None:
            firing.append((m, None))
            continue
        census = _slot_census(le, l, m)
        if census is None:
            return give_up("slot census")
        if census.free_count > 0:
            firing.append((m, census))

    plan = []
    for m, census in firing:
        shift = _shift_effect(rule, l, m)
        if shift is None:
            return give_up("interval shift")
        fixed, bounds, group_delta = shift
        if census is not None and (
                le.group in group_delta
                or any(k in bounds for k in census.all_keys)
                or any(fixed.get(k, 0) != l._fixed_mult.get(k, 0)
                       for k in census.all_keys)):
            # the plain effect interferes with the slot bookkeeping
            return give_up("slot interference")
        plan.append((census, fixed, bounds, group_delta))
    return plan


def applicability_count(rule: Rule, l: LiftedMultiHypergraph,
                        max_groundings: int = DEFAULT_MAX_GROUNDINGS
                        ) -> tuple[int, int]:
    """(n_applicable, n_groundings) exactly as ``lifted_apply`` reports them,
    without building, canonicalising or checking any successor."""
    if l.is_empty:
        return 0, 0
    plan = _lifted_plan(rule, l)
    if plan is None:
        return _fallback_counts(rule, l, max_groundings)
    n_tot = l.count_groundings()
    return (n_tot if plan else 0), n_tot


def lifted_apply(rule: Rule, l: LiftedMultiHypergraph,
                 max_groundings: int = DEFAULT_MAX_GROUNDINGS) -> LiftedApplyResult:
    """Exact successor distribution of the rule over a lifted state."""
    if l.is_empty:
        return LiftedApplyResult((), 0, 0)
    plan = _lifted_plan(rule, l)
    if plan is None:
        return _fallback(rule, l, max_groundings)
    n_tot = l.count_groundings()
    if not plan:
        return LiftedApplyResult((), 0, n_tot)

    le = rule.lifted_effect
    outs: list[tuple[LiftedMultiHypergraph, float]] = []
    if le is None:
        for _, fixed, bounds, group_delta in plan:
            outs.append((_rebuild(l, fixed, bounds, group_delta), 1.0 / len(plan)))
        return LiftedApplyResult(_grouped_outputs(outs), n_tot, n_tot)

    total_options = sum(census.free_count for census, _, _, _ in plan)
    for census, fixed, bounds, group_delta in plan:
        m_count = len(census.members)
        if census.group_total == 0 and m_count == 0:
            # fresh group over every open slot: uniform single successor
            new_members = census.empties
            extra = TotalConstraint(le.group, frozenset(new_members), 1)
            b2 = dict(bounds)
            for k in new_members:
                b2[k] = (0, 1)
            outs.append((_rebuild(l, fixed, b2, group_delta, extra),
                         len(new_members) / total_options))
        else:
            if m_count - census.group_total > 0:
                gd = dict(group_delta)
                gd[le.group] = gd.get(le.group, 0) + 1
                outs.append((_rebuild(l, fixed, bounds, gd),
                             (m_count - census.group_total) / total_options))
            for k in census.empties:
                f2 = dict(fixed)
                f2[k] = f2.get(k, 0) + 1
                outs.append((_rebuild(l, f2, bounds, group_delta),
                             1.0 / total_options))
    return LiftedApplyResult(_grouped_outputs(outs), n_tot, n_tot)
