"""Rewriting rules over ground and lifted multi-hypergraph states.

A rule consists of a pattern (vertex variables with label and multiplicity
requirements plus minimum edge multiplicities) and a deterministic effect
(retract and assert edge deltas, with optional per-edge caps acting as
capacity guards).  Putting an item into one of several slots is an ordinary
rule: a pattern variable over the slot vertices plus a capped assert.

Ground semantics: a rule is applicable via every injective assignment of its
pattern variables whose effect can be applied.  Applying a rule picks
uniformly among these options.

Each rule compiles to one entry per vertex layout.  The entry holds the
pattern's candidate lists, its variable order and a match tree: a node per
assigned prefix, holding each next candidate with the (edge key, minimum)
checks it completes, and a leaf per full assignment, holding its ``Match``.
The tree grows lazily, a node on the first walk that passes its checks, so
it never holds more than the backtracking visits.  The entry also holds,
per match, the effect's resolved keys: its net delta, its caps and its slot
key.  This is exact: a key depends only on the assignment and the vertex
ids, and all states sharing the layout have the same vertices, while each
state still reads every multiplicity bound for itself.  An effect literal
that is no vertex of the layout raises EffectError at compile time, match
or no match, and nothing is cached.

The lifted plan (see below) is a function of the rule, the layout and the
state's bounds map and groups, so it is memoised once per rule and state
content, in the state's ``content_memo`` under the rule's id: a state
planned again, by the same or another object, gets the stored plan.  The
layout holds the rule, so its id stays taken while the memo lives.  Beside
the plan, the same entry keeps each step's successor parts (its maps,
grounding count and content key, see ``LiftedMultiHypergraph._parts``),
stored by the first ``outputs`` read that builds the step with
``shifted``.  A later read remakes the successor from them with its
content memo attached: it is not normalised or checked again, and finds its
plans and canonical form in the memo.  A fallback is planned afresh each time,
so every one enumerates its groundings and logs why, and its successors
are built afresh.

Whether an effect can fire at a match is decided in one place,
``_effect_feasible``: ``ground_options``, the lifted plan and ``apply`` all
ask it.  ``apply`` also checks that its assignment is a match: the binding
once per assignment and layout, and the pattern edges' minima at every call.
It is then one ``shifted`` by the effect's net delta.

Lifted semantics: ``lifted_apply`` answers, once per rule and lifted state,
in how many groundings the rule is applicable and how its successors arise;
``LiftedApplyResult.outputs`` then builds the exact distribution over
successor lifted states from that answer.  Two strategies are used:

* interval shift with match aggregation, when every match is *sure* and
  the effect at each match is sure or not *possible*.  One matching pass
  reads upper bounds for the matches and lower bounds for sureness, and
  one feasibility pass gives the sure/possible verdict of the effect, sure
  meaning in every grounding and possible in some, together with its net
  edge delta.  Where the two agree, the successor is the same delta in
  every grounding: a plan step is (options, delta, group), and
  ``LiftedMultiHypergraph.shifted`` applies it as a rigid shift that
  cannot fail.  A rule's only assert with cap 1 and multiplicity 1 is its
  *slot edge*.  Matches whose remaining effect has the same delta form one
  class, and the class's choice among its free slot keys stays one [0,1]
  constraint group, the step's ``group`` (key set, total): an existing
  group with its total grown by one, or empty keys that become a new group
  of total 1 (counting-formula lifting; the source of state compression).
  A single empty slot key joins the delta.  Rules without a slot edge
  shift each match separately.
* exact fallback: enumerate groundings and their options; ``outputs``
  applies the rule at each option and merges the results by canonical
  form.  Past ``lifted.MAX_GROUNDINGS`` groundings it raises
  EnumerationLimitError instead.

Both agree with the ground semantics exactly; the fallback is the
definition, the shift is a proved-equal fast path whose preconditions are
the sure/possible verdicts.  A failed precondition is logged at debug level
with the rule's name.  Given an observation side, ``outputs`` builds only
the plan steps that ``side.excluded`` does not exclude; without one, it
builds them all.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Union

from .canon import merged
from .errors import EffectError, StructuralError
from .graphs import EdgeKey, Vertex, VertexLayout, edge_key
from .lifted import LiftedMultiHypergraph, MultiHypergraph

logger = logging.getLogger("mhgfilter")

__all__ = ["PatternVertex", "PatternEdge", "Pattern", "EffectEdge", "Effect",
           "Rule", "Match", "LiftedApplyResult",
           "apply", "ground_options", "successors", "lifted_apply"]


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
        if not self.label or not self.vars:
            raise StructuralError(f"pattern edge {self.label!r}: no label or vars")
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
        if not self.label or not self.vars:
            raise StructuralError(f"effect edge {self.label!r}: no label or vars")
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
class Rule:
    name: str
    pattern: Pattern = field(default_factory=Pattern)
    effect: Effect = field(default_factory=Effect)

    def __post_init__(self):
        if not self.name:
            raise StructuralError("rule name must be non-empty")


@dataclass(frozen=True, order=True)
class Match:
    """An injective variable assignment."""

    assignment: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(sorted(self.assignment)))

    def as_dict(self) -> dict[str, str]:
        return dict(self.assignment)

    def get(self, var: str) -> str:
        return self.as_dict()[var]


# -- compiling -----------------------------------------------------------------

class _CompiledRule(NamedTuple):
    """A rule over one layout, compiled once: its matching, its slot edge and,
    per assignment, its resolved effect keys and, for ``apply``, pattern keys."""
    rule: Rule                                     # held so its id stays taken
    order: list[PatternVertex]                     # the most constrained first
    candidates: dict[str, list[str]]               # variable -> admitted vertex ids
    edges_by_last: dict[str, list[PatternEdge]]    # by the last variable read
    root: list          # the match tree's root entry, an empty prefix; see _children
    slot: int | None                               # index of the slot edge
    keys: dict[tuple, _EffectKeys]                 # filled by _effect_keys
    pattern_keys: dict[tuple, tuple]               # filled by _pattern_keys


def _compiled(rule: Rule, layout: VertexLayout) -> _CompiledRule:
    """The rule compiled over the layout, on first request.  An effect
    literal that is no vertex of the layout raises EffectError, and nothing
    is cached."""
    c = layout.compiled.get(id(rule))
    if c is not None:
        return c
    pattern, effect = rule.pattern, rule.effect
    declared = {pv.var for pv in pattern.vertices}
    for e in effect.retract + effect.assert_:
        for x in e.vars:
            if x not in declared and x not in layout.by_id:
                raise EffectError(f"rule {rule.name!r}: unknown vertex {x!r} in effect")
    candidates = {pv.var: sorted(v.id for v in layout.vertices if pv.admits(v))
                  for pv in pattern.vertices}
    order = sorted(pattern.vertices, key=lambda pv: len(candidates[pv.var]))
    order_index = {pv.var: i for i, pv in enumerate(order)}
    edges_by_last: dict[str, list[PatternEdge]] = {}
    for pe in pattern.edges:
        last = max(pe.vars, key=lambda v: order_index[v])
        edges_by_last.setdefault(last, []).append(pe)
    # the slot edge: the rule's only assert with cap 1 and multiplicity 1
    capped = [i for i, e in enumerate(effect.assert_)
              if e.cap == 1 and e.multiplicity == 1]
    c = layout.compiled[id(rule)] = _CompiledRule(
        rule, order, candidates, edges_by_last, [[(), (), None]],
        capped[0] if len(capped) == 1 else None, {}, {})
    return c


# -- matching ------------------------------------------------------------------

def _children(c: _CompiledRule, path: tuple[tuple[str, str], ...]) -> list:
    """The match-tree entries below an assigned prefix: one
    [checks, path, child] per unused candidate of the next variable, where
    checks are the (edge key, minimum multiplicity) of the pattern edges it
    completes and child is built on first descent."""
    pv = c.order[len(path)]
    assignment = dict(path)
    used = set(assignment.values())
    entries = []
    for vid in c.candidates[pv.var]:
        if vid in used:
            continue
        assignment[pv.var] = vid
        checks = tuple((edge_key(pe.label, [assignment[x] for x in pe.vars]),
                        pe.min_multiplicity) for pe in c.edges_by_last.get(pv.var, ()))
        entries.append([checks, path + ((pv.var, vid),), None])
    return entries


def _raw_matches(c: _CompiledRule, state: LiftedMultiHypergraph
                 ) -> list[tuple[Match, bool]]:
    """All injective assignments whose pattern edges meet their minimum on
    upper multiplicity bounds, each with ``sure``: whether they meet it on
    lower bounds too.  Sorted by match.

    On a lifted state a sure match is a match in every grounding, and an
    unsure one in some groundings only; every match is sure on a ground
    state.  The walk reads the layout's match tree, whose nodes are built
    the first time a walk passes their checks.
    """
    bounds = state.multiplicity_bounds
    last = len(c.order)
    out: list[tuple[Match, bool]] = []
    stack = [(c.root, 0, True)]
    while stack:
        entries, depth, sure = stack.pop()
        for entry in entries:
            checks, path, child = entry
            here = sure
            for key, need in checks:
                lo, up = bounds(key)
                if up < need:
                    break
                if lo < need:
                    here = False
            else:
                if child is None:
                    child = entry[2] = (Match(path) if depth == last
                                        else _children(c, path))
                if depth == last:
                    out.append((child, here))
                else:
                    stack.append((child, depth + 1, here))
    if len(out) > 1:
        out.sort(key=lambda ms: ms[0].assignment)
    return out


# -- effects -------------------------------------------------------------------

class _Feasibility(NamedTuple):
    """What ``_effect_feasible`` reads of an effect at one match."""
    retract: tuple[tuple[EdgeKey, int], ...]       # net retract delta per key
    caps: tuple[tuple[EdgeKey, int, int], ...]     # (key, delta so far, cap)
    delta: Mapping[EdgeKey, int]                   # net change per key, read only
    changes: tuple[tuple[EdgeKey, int], ...]       # its non-zero items, sorted


class _EffectKeys(NamedTuple):
    """A rule's effect resolved at one match."""
    full: _Feasibility
    rest: _Feasibility                             # without the slot edge
    slot: EdgeKey | None


def _feasibility(retract, assert_) -> _Feasibility:
    """Retracts are checked against their net delta, and each capped assert
    against the delta accumulated up to it.  On a ground state this is
    exactly applying the edges in turn: a key's retracts only lower it, and
    a cap sees every retract and earlier assert of its key."""
    delta: dict[EdgeKey, int] = {}
    for k, m in retract:
        delta[k] = delta.get(k, 0) - m
    net_retract = tuple(delta.items())
    caps = []
    for k, m, cap in assert_:
        delta[k] = delta.get(k, 0) + m
        if cap is not None:
            caps.append((k, delta[k], cap))
    return _Feasibility(net_retract, tuple(caps), MappingProxyType(delta),
                        tuple(sorted((k, d) for k, d in delta.items() if d)))


def _effect_keys(c: _CompiledRule, match: Match) -> _EffectKeys:
    """The rule's effect at this match, resolved once per layout."""
    keys = c.keys.get(match.assignment)
    if keys is not None:
        return keys
    assignment = match.as_dict()

    def key(e: EffectEdge) -> EdgeKey:
        return edge_key(e.label, [assignment.get(x, x) for x in e.vars])

    effect = c.rule.effect
    retract = tuple((key(e), e.multiplicity) for e in effect.retract)
    assert_ = tuple((key(e), e.multiplicity, e.cap) for e in effect.assert_)
    full = _feasibility(retract, assert_)
    if c.slot is None:
        keys = _EffectKeys(full, full, None)
    else:
        rest = assert_[:c.slot] + assert_[c.slot + 1:]
        keys = _EffectKeys(full, _feasibility(retract, rest), assert_[c.slot][0])
    c.keys[match.assignment] = keys
    return keys


def _pattern_keys(c: _CompiledRule, match: Match) -> tuple[tuple[EdgeKey, int], ...]:
    """Each pattern edge's (key, minimum) at an assignment given to ``apply``,
    resolved once per layout.  An assignment that does not bind each pattern
    variable to a distinct candidate raises EffectError; nothing is cached."""
    checks = c.pattern_keys.get(match.assignment)
    if checks is None:
        assignment, cands = match.as_dict(), c.candidates
        if (len(match.assignment) != len(cands) or assignment.keys() != cands.keys()
                or len(set(assignment.values())) != len(cands)
                or any(vid not in cands[var] for var, vid in assignment.items())):
            raise EffectError(f"rule {c.rule.name!r}: {assignment} does not bind "
                              f"each pattern variable to a distinct candidate")
        checks = c.pattern_keys[match.assignment] = tuple(
            (edge_key(pe.label, [assignment[x] for x in pe.vars]), pe.min_multiplicity)
            for pe in c.rule.pattern.edges)
    return checks


def _effect_feasible(f: _Feasibility, state: LiftedMultiHypergraph
                     ) -> tuple[bool, bool]:
    """(sure, possible): whether retracts stay non-negative and caps hold in
    every grounding, and in some grounding.

    Sure reads lower bounds for retracts and upper bounds for caps, possible
    the reverse; the two coincide on ground states.
    """
    sure = True
    for k, d in f.retract:
        lo, up = state.multiplicity_bounds(k)
        if up + d < 0:
            return False, False
        sure = sure and lo + d >= 0
    for k, d, cap in f.caps:
        lo, up = state.multiplicity_bounds(k)
        if lo + d > cap:
            return False, False
        sure = sure and up + d <= cap
    return sure, True


def ground_options(rule: Rule, state: LiftedMultiHypergraph) -> list[Match]:
    """The rule's equally likely application options, sorted.

    An option is an injective match of the pattern whose effect can fire:
    no retraction below zero and no cap exceeded.  On lifted states, the
    matches that fire in every grounding.
    """
    c = _compiled(rule, state.layout)
    return [m for m, sure in _raw_matches(c, state)
            if sure and _effect_feasible(_effect_keys(c, m).full, state)[0]]


def apply(rule: Rule, g: MultiHypergraph, match: Match) -> MultiHypergraph:
    """Apply the rule's effect at the given match; raises EffectError when the
    assignment is not a match of the pattern in g or the effect cannot fire
    there."""
    c = _compiled(rule, g.layout)
    for k, need in _pattern_keys(c, match):
        if g.multiplicity_bounds(k)[0] < need:
            raise EffectError(f"rule {rule.name!r}: {match.as_dict()} is not a match")
    f = _effect_keys(c, match).full
    if not _effect_feasible(f, g)[0]:
        raise EffectError(f"rule {rule.name!r} cannot fire at {match.as_dict()}: "
                          f"a retract goes below zero or an assert exceeds its cap")
    return g.shifted(f.delta)


def successors(rule: Rule, g: MultiHypergraph) -> list[tuple[MultiHypergraph, float]]:
    """Successor distribution of the rule in g: uniform over its options,
    grouped by canonical form.  Empty when the rule is not applicable."""
    options = ground_options(rule, g)
    return [(h, c / len(options))
            for h, c in merged((apply(rule, g, m), 1) for m in options)]


# -- lifted application --------------------------------------------------------

@dataclass(frozen=True)
class LiftedApplyResult:
    """One rule's transition from one lifted state, planned but not built.

    ``n_applicable`` of the ``n_groundings`` groundings admit at least one
    option; callers split the state when 0 < n_applicable < n_groundings.
    The lifted path fills ``plan``, as memoised for the state's content,
    beside the successor parts that ``outputs`` reads; the fallback fills
    ``groundings`` with each applicable grounding and its ``ground_options``.
    """

    rule: Rule
    state: LiftedMultiHypergraph
    n_applicable: int
    n_groundings: int
    plan: tuple[tuple, ...] = ()
    groundings: tuple[tuple[MultiHypergraph, list[Match]], ...] | None = None

    def outputs(self, side=None
                ) -> tuple[tuple[LiftedMultiHypergraph, float], ...]:
        """Successor lifted states with probabilities, conditional on the
        rule being applicable.

        Given an observation side, the lifted path builds no successor
        whose plan step ``side.excluded(state, plan)`` excludes, but counts
        it in the normaliser; the fallback builds them all.  The filter's
        compiled side excludes a step whose successor puts an observed sum
        off its count in every grounding.  Exact: construction only
        tightens bounds, and the domain's observation gives isomorphic,
        merging successors one verdict (unique agent and agent-location
        labels; held counts sum over a label).  Pinned forms that lift that
        label rule must revisit this.

        A plan step's successor is derived by ``shifted`` the first time it
        is built for the state's content and rule, and remade from the
        parts stored beside the plan after that.
        """
        if self.groundings is not None:
            pairs = [(apply(self.rule, g, m), 1.0 / len(options))
                     for g, options in self.groundings for m in options]
            return tuple((LiftedMultiHypergraph.from_graph(h), w / self.n_applicable)
                         for h, w in merged(pairs))
        l, plan = self.state, self.plan
        if not plan:
            return ()
        built = l.content_memo()[id(self.rule)][1]
        n_options = sum(step[0] for step in plan)
        excluded = side.excluded(l, plan) if side is not None else [False] * len(plan)
        pairs = []
        for i, (n, delta, group) in enumerate(plan):
            if excluded[i]:
                continue
            parts = built[i]
            if parts is None:
                h = l.shifted(delta, group)
                built[i] = h._parts()
            else:
                h = l._rebuilt(parts)
            pairs.append((h, n / n_options))
        return tuple(merged(pairs))


def _lifted_plan(rule: Rule, l: LiftedMultiHypergraph) -> tuple[tuple, ...] | None:
    """Check the preconditions of the lifted path, once per rule and state
    content: a plan is memoised, a fallback is not.

    Returns one (options, delta, group) step per successor, the
    arguments of ``l.shifted`` that build it, where ``options`` counts the
    options of every grounding that lead to it; an empty tuple when the
    rule fires in no grounding, or None when the exact fallback is needed.
    A failed precondition is logged at debug level.
    """
    memo = l.content_memo()
    entry = memo.get(id(rule))
    if entry is not None:
        return entry[0]

    def give_up(reason: str) -> None:
        logger.debug("lifted_apply %r: fallback, %s", rule.name, reason)

    c = _compiled(rule, l.layout)
    matches = _raw_matches(c, l)
    if not all(sure for _, sure in matches):
        return give_up("match sets differ across groundings")

    feasible: list[_EffectKeys] = []
    for m, _ in matches:
        keys = _effect_keys(c, m)
        sure, possible = _effect_feasible(keys.rest, l)
        if sure != possible:
            return give_up("effect feasibility varies across groundings")
        if sure:
            feasible.append(keys)

    if c.slot is None:
        plan = [(1, keys.rest.delta, None) for keys in feasible]
    else:
        plan = _slot_plan(l, feasible, give_up)
        if plan is None:
            return None
    plan = tuple(plan)
    memo[id(rule)] = plan, [None] * len(plan)    # and each step's successor parts
    return plan


def _slot_plan(l: LiftedMultiHypergraph, feasible: list[_EffectKeys],
               give_up: Callable[[str], None]) -> list[tuple] | None:
    """Aggregate the matches whose rest of the effect fires everywhere.

    The rest may not touch the match's own slot key.  Matches with the same
    net rest delta form a class, so the rest touches no slot key of its
    class either.  Each slot key of a class is empty (0 in every
    grounding), full (dropped: the cap forbids it) or a [0,1] member of one
    group G holding no key outside the class.  When every member is reached
    by c matches, each grounding has c * (|G| - total) member options, all
    leading to the step group (G's keys, total + 1).  Two or more empties
    reached by equally many matches become the step group (their keys, 1);
    any other empty is a successor of its own.
    """
    classes: dict[tuple, dict[EdgeKey, int]] = {}    # slot key -> match count
    for keys in feasible:
        k = keys.slot
        if k in keys.rest.delta:
            return give_up("slot interference")
        lo, up = l.multiplicity_bounds(k)
        if lo >= 1:
            continue
        if up and ((lo, up) != (0, 1) or l.group_of(k) is None):
            return give_up(f"slot key {k!r} is not a [0,1] group member")
        counts = classes.setdefault(keys.rest.changes, {})
        counts[k] = counts.get(k, 0) + 1

    plan = []
    for cls, counts in classes.items():
        delta = dict(cls)
        groups = {l.group_of(k) for k in counts} - {None}
        if len(groups) > 1:
            return give_up("slot keys in several groups")
        group = groups.pop() if groups else None
        if group is not None and not group.edge_keys.issubset(counts):
            return give_up("the slot group has keys outside the class")
        empties = [k for k in counts if l.group_of(k) is None]
        if group is not None:
            c = counts[next(iter(group.edge_keys))]
            if any(counts[k] != c for k in group.edge_keys):
                return give_up("slot keys reached by unequal match counts")
            plan.append((c * (len(group.edge_keys) - group.total), delta,
                         (group.edge_keys, group.total + 1)))
        elif len(empties) >= 2 and len(set(counts.values())) == 1:
            plan.append((counts[empties[0]] * len(empties), delta,
                         (frozenset(empties), 1)))
            continue
        plan += [(counts[k], {**delta, k: 1}, None) for k in empties]
    return plan


def lifted_apply(rule: Rule, l: LiftedMultiHypergraph) -> LiftedApplyResult:
    """The rule's transition from a lifted state, from one precondition
    pass or one enumeration of groundings; nothing is built until
    ``outputs`` is read."""
    n_tot = l.count_groundings()
    plan = _lifted_plan(rule, l) if n_tot else ()
    if plan is not None:
        return LiftedApplyResult(rule, l, n_tot if plan else 0, n_tot, plan)
    options = ((g, ground_options(rule, g)) for g in l.iter_groundings())
    groundings = tuple((g, o) for g, o in options if o)
    return LiftedApplyResult(rule, l, len(groundings), n_tot, groundings=groundings)
