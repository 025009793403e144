"""Recursive filtering over lifted multi-hypergraph beliefs.

A belief is a finite weighted mixture of lifted states, each denoting a
uniform distribution over its groundings; weights sum to one.  Filtering
alternates prediction (push the belief through the rule dynamics under an
action model) and update (condition on an observed annotation: the action
name, the agent's location before and after, and the held-item counts before
and after; every component is observed exactly or not at all, so observation
factors are counting fractions rather than noisy likelihoods).

Prediction plans each rule once per belief entry and builds nothing; a
particle carries that transition, not its successors.  The update builds
successors only for particles whose rule is the observed action, from the
particle's plan (re-planned where conditioning tightens the predecessor),
and only those the next-side observation does not already exclude.

The observation is compiled at three levels.  Once per domain, the schema
(``ObservationSchema``) maps each observed ``holds`` key to its label.
Once per distinct annotation side, a compiled side holds the location's
``at`` key, the held count per holdable label and whether the side admits
its other labels at all.  Once per state content, a summary holds the
agent's location and each label's least and greatest held sum, in the
content memo under the schema's value.  ``predict`` reads the location
from the summary; ``update`` decides a state whose observed keys are all
fixed by comparing summary and side, and a plan step by the labels its
delta and group touch.

Every state that enters a belief is built on the way, and checked once per
content: a plan's successor is derived and checked on first build, then
remade from the memo of its predecessor's content.  A canonical form is
computed only where two states meet: to merge a belief's entries, a
transition's successors or the groundings an enumeration keeps, and to
order particles from more than one predecessor, and once per content.  A
step that holds one state computes none.

Exactness contract: prediction splits a belief entry into its groundings
whenever some rule is applicable in only part of them, or the action model
weighs rules by an agent location the entry does not fix, so each surviving
entry has grounding-independent rule probabilities; conditioning either
keeps a particle whole (0/1 factor), tightens one bounded interval (exact
fractional factor, successors built from the tightened predecessor), or
falls back to enumeration.  Entries left without any applicable rule are
dropped with a warning and the remaining mass is renormalised.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .canon import merged
from .errors import IntegrityError, TraceInconsistencyError
from .graphs import EdgeKey, edge_key
from .lifted import LiftedMultiHypergraph
from .rewrite import LiftedApplyResult, Rule, lifted_apply

logger = logging.getLogger("mhgfilter")

__all__ = ["ActionModel", "Belief", "Particle", "JointPrediction", "StepStats",
           "FilterResult", "agent_location", "predict", "update",
           "filter_trace", "AT_LABEL", "HOLDS_LABEL"]

# The observation's edge labels, the same in every domain.
AT_LABEL = "at"
HOLDS_LABEL = "holds"


@dataclass(frozen=True)
class ActionModel:
    """Rule choice probabilities, optionally conditioned on agent location.

    Every rule gets base weight 1, overridden by ``weights`` and then by the
    ``by_location`` table for the agent's current location.  Probabilities
    are normalised over the applicable rules of the concrete state, so an
    inapplicable rule never receives mass.
    """

    weights: Mapping[str, float] = field(default_factory=dict)
    by_location: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def rule_weight(self, rule_name: str, location: str | None) -> float:
        w = self.weights.get(rule_name, 1.0)
        if location is not None and location in self.by_location:
            w = self.by_location[location].get(rule_name, w)
        if not (math.isfinite(w) and w >= 0):
            raise IntegrityError(
                f"action weight {w!r} for {rule_name!r} is not finite and >= 0")
        return w


class Belief:
    """Weighted mixture of non-empty lifted states, merged by canonical form.

    Weights are normalised on construction; a weight that is not finite and
    non-negative, or an all-zero or empty mixture, is rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[LiftedMultiHypergraph, float]]):
        def checked():
            for state, w in entries:
                if not (math.isfinite(w) and w >= 0):
                    raise IntegrityError(f"belief weight {w!r} is not finite and >= 0")
                if w == 0:
                    continue
                if state.is_empty:
                    raise IntegrityError("belief entry with empty support")
                yield state, w

        pairs = merged(checked())
        total = sum(w for _, w in pairs)
        if not pairs or total <= 0:
            raise IntegrityError("belief has no mass")
        self.entries = tuple((s, w / total) for s, w in pairs)

    @classmethod
    def from_state(cls, state: LiftedMultiHypergraph) -> "Belief":
        return cls([(state, 1.0)])

    def total_weight(self) -> float:
        return sum(w for _, w in self.entries)

    def ground_count(self) -> int:
        return sum(s.count_groundings() for s, _ in self.entries)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        return f"Belief({len(self.entries)} entries, {self.ground_count()} groundings)"


@dataclass(frozen=True)
class Particle:
    """One predecessor hypothesis with one applicable rule's transition.

    ``weight`` is the joint mass of (predecessor, rule).  The successors are
    built by the update, from the predecessor as the observation leaves it,
    so a particle the observation rules out never builds them.
    """

    transition: LiftedApplyResult
    weight: float

    @property
    def prev(self) -> LiftedMultiHypergraph:
        return self.transition.state

    @property
    def rule(self) -> Rule:
        return self.transition.rule


@dataclass(frozen=True)
class JointPrediction:
    """Joint distribution over (predecessor, rule, successor) triples."""

    particles: tuple[Particle, ...]
    dropped_mass: float = 0.0

    def total_weight(self) -> float:
        return sum(p.weight for p in self.particles)


@dataclass(frozen=True)
class StepStats:
    step: int
    action: str | None
    lifted_count: int
    ground_count: int
    log_z: float
    mode: str
    dropped_mass: float = 0.0

    def to_dict(self) -> dict:
        return {"step": self.step, "action": self.action,
                "lifted_count": self.lifted_count,
                "ground_count": self.ground_count,
                "log_z": self.log_z, "mode": self.mode,
                "dropped_mass": self.dropped_mass}


@dataclass(frozen=True)
class FilterResult:
    """One belief and one stats record per trace prefix, index 0 the initial
    belief (``Belief``s, or the ground filter's ``GroundBelief``s), the sum
    of log Z and one warning per step that dropped dead-end mass."""

    beliefs: tuple
    stats: tuple[StepStats, ...]
    log_likelihood: float
    warnings: tuple[str, ...] = ()


# -- observation ---------------------------------------------------------------

def agent_location(domain, state: LiftedMultiHypergraph) -> str | None:
    """The agent's location vertex id, the same in every grounding: the
    other end of the agent's one binary ``at`` edge, of multiplicity 1.
    None when the agent has no such edge, another ``at`` edge, or an ``at``
    key bounded rather than fixed."""
    return _agent_location(domain.agent_id, state)


def _agent_location(agent: str, state: LiftedMultiHypergraph) -> str | None:
    found = None
    for (label, incidence), (lo, up) in state.bounds.items():
        if label != AT_LABEL or agent not in incidence:
            continue
        others = [v for v in incidence if v != agent]
        if ((lo, up) != (1, 1) or len(incidence) != 2 or len(others) != 1
                or found is not None):
            return None
        found = others[0]
    return found


class ObservationSchema:
    """What a domain observes, compiled once per domain (``Domain.observation``):
    the agent, the observed ``holds`` keys per holdable label, the labels
    sorted, and each key's label index.  ``side`` compiles each distinct
    annotation side once for the domain's lifetime.

    ``key`` holds the schema's value in a frozenset, which keeps its hash:
    it keys a state's summary in the content memo, so two domains over one
    layout that observe differently keep their summaries apart, and equal
    observations share them."""

    def __init__(self, agent: str,
                 holds_keys: tuple[tuple[str, tuple[EdgeKey, ...]], ...]):
        self.agent = agent
        self.holds_keys = holds_keys          # (label, its keys), by label
        self.labels = tuple(label for label, _ in holds_keys)
        self.label_of = {k: i for i, (_, keys) in enumerate(holds_keys) for k in keys}
        self.key = frozenset({("observation", agent, holds_keys)})
        self._sides: dict[tuple, _Side] = {}

    def side(self, loc: str, held: Mapping[str, int]) -> "_Side":
        """The annotation side (agent location, held counts) compiled, once
        per distinct side: a trace's sides repeat, each step's later side
        being the next step's earlier one."""
        key = loc, frozenset(held.items())
        side = self._sides.get(key)
        if side is None:
            side = self._sides[key] = _Side(self, loc, held)
        return side


def _summary(observed, state: LiftedMultiHypergraph
             ) -> tuple[str | None, tuple[int, ...], tuple[int, ...]]:
    """What a schema observes of one state content: the agent's location
    (``agent_location``) and, per holdable label, the least and the
    greatest held sum, its keys' bounds added up.

    ``observed`` is the schema or a side compiled against it.  Computed once
    per content and kept in the content memo under the schema's key."""
    memo = state.content_memo()
    s = memo.get(observed.key)
    if s is None:
        bounds = state.bounds
        lo, up = [0] * len(observed.labels), [0] * len(observed.labels)
        for k, i in observed.label_of.items():
            b = bounds.get(k)
            if b is not None:
                lo[i] += b[0]
                up[i] += b[1]
        lo, up = tuple(lo), tuple(up)
        s = memo[observed.key] = (_agent_location(observed.agent, state),
                                  lo, lo if lo == up else up)
    return s


class _Side:
    """One annotation side compiled against a schema: the location's ``at``
    key, which must have multiplicity 1, the held count per holdable label,
    and whether every other label is observed at 0, the only count it
    admits.  It keeps the schema's fields that ``_summary`` reads rather
    than the schema, whose ``side`` keeps it.

    It decides a state whose observed sums are all fixed from the state's
    summary (``verdict``), and a plan step from the summary and the keys
    the step changes (``excluded``).  For the states that neither decides,
    ``conditions`` lists an admissible side as exact-count conditions (key
    set, required total): the location's key first, then each holdable
    label's observed ``holds`` keys."""

    __slots__ = ("key", "agent", "labels", "label_of", "loc_key", "held",
                 "admissible", "conditions")

    def __init__(self, schema: ObservationSchema, loc: str, held: Mapping[str, int]):
        self.key, self.agent, self.labels = schema.key, schema.agent, schema.labels
        self.label_of = schema.label_of
        self.loc_key = edge_key(AT_LABEL, (schema.agent, loc))
        self.held = tuple([held.get(label, 0) for label in schema.labels])
        self.admissible = all(n == 0 or label in schema.labels
                              for label, n in held.items())
        self.conditions = [((self.loc_key,), 1)] + [
            (keys, n) for (_, keys), n in zip(schema.holds_keys, self.held)]

    def verdict(self, l: LiftedMultiHypergraph) -> bool | None:
        """Whether l meets this admissible side, where l fixes the location
        key and every held sum; None where it does not."""
        _, held, up = _summary(self, l)
        lo, loc_up = l.multiplicity_bounds(self.loc_key)
        if held != up or lo != loc_up:
            return None
        return lo == 1 and held == self.held

    def excluded(self, l: LiftedMultiHypergraph, plan: Sequence[tuple]) -> list[bool]:
        """Per step of l's plan, whether the step's successor puts an
        observed sum off its count in every grounding: what
        ``LiftedApplyResult.outputs`` asks.  A sum's hull on the successor
        adds up its keys' hulls, (0, 1) for a key of the step's group and
        the key's bounds moved by the step's delta for any other; the step
        is excluded when some sum's required count lies outside its hull.

        It finds once which held sums l already puts off its count; a step
        moves only the sums of the observed keys in its delta and group."""
        if not self.admissible:
            return [True] * len(plan)
        _, lo, up = _summary(self, l)
        required = self.held
        off = () if lo == up == required else [
            i for i, r in enumerate(required) if not lo[i] <= r <= up[i]]
        loc_key, label_of, bounds = self.loc_key, self.label_of, l.multiplicity_bounds
        loc_lo, loc_up = bounds(loc_key)
        observed = label_of.keys()
        out = []
        for _, delta, group in plan:
            slots = group[0] if group else ()
            if loc_key not in slots:    # a group member's hull is (0, 1)
                d = delta.get(loc_key, 0)
                if not loc_lo + d <= 1 <= loc_up + d:
                    out.append(True)
                    continue
            moved: dict[int, tuple[int, int]] = {}
            for k, d in delta.items():
                i = label_of.get(k)
                if i is not None and k not in slots:
                    a, b = moved.get(i, (0, 0))
                    moved[i] = a + d, b + d
            if slots and not observed.isdisjoint(slots):
                for k in observed & slots:
                    i = label_of[k]
                    k_lo, k_up = bounds(k)
                    a, b = moved.get(i, (0, 0))
                    moved[i] = a - k_lo, b + 1 - k_up
            # excluded: a sum already off that the step leaves, or one it moves off
            for i in off:
                if i not in moved:
                    out.append(True)
                    break
            else:
                for i, (a, b) in moved.items():
                    if not lo[i] + a <= required[i] <= up[i] + b:
                        out.append(True)
                        break
                else:
                    out.append(False)
        return out


def _condition_state(l: LiftedMultiHypergraph, side: _Side
                     ) -> tuple[float, list[tuple[LiftedMultiHypergraph, float]]]:
    """Condition a state on one compiled observation side.

    Returns (fraction of groundings that are consistent, the states taking
    l's place with relative weights summing to one; l itself when the
    observation leaves it whole).  An inadmissible side, or a state that
    fixes every observed sum, gets a 0/1 verdict from the summary; then,
    per condition, fixed keys give a 0/1 verdict, a single bounded key an
    exact interval tightening, and anything else is resolved by
    enumeration, within ``MAX_GROUNDINGS``.  A ground state only ever takes
    the first branch.
    """
    verdict = side.verdict(l) if side.admissible else False
    if verdict is not None:
        return (1.0, [(l, 1.0)]) if verdict else (0.0, [])
    work = l
    frac = 1.0
    deferred: list[tuple[tuple[EdgeKey, ...], int]] = []
    for keys, required in side.conditions:
        fixed_sum, bounded = 0, []
        for k in keys:
            lo, up = work.multiplicity_bounds(k)
            if lo == up:
                fixed_sum += lo
            else:
                bounded.append(k)
        if not bounded:
            if fixed_sum != required:
                return 0.0, []
        elif len(bounded) == 1:
            tightened = work.conditioned(bounded[0], required - fixed_sum)
            if tightened.is_empty:
                return 0.0, []
            frac *= tightened.count_groundings() / work.count_groundings()
            work = tightened
        else:
            deferred.append((keys, required))
    if deferred:
        survivors = merged(
            (g, 1) for g in work.iter_groundings()
            if all(sum(g.multiplicity_bounds(k)[0] for k in keys) == required
                   for keys, required in deferred))
        kept = sum(c for _, c in survivors)
        if kept == 0:
            return 0.0, []
        frac *= kept / work.count_groundings()
        return frac, [(LiftedMultiHypergraph.from_graph(g), c / kept)
                      for g, c in survivors]
    return frac, [(work, 1.0)]


# -- prediction ----------------------------------------------------------------

def predict(domain, belief: Belief) -> JointPrediction:
    """Push the belief through one step of the rule dynamics.

    Entries whose groundings disagree on some rule's applicability, or may
    disagree on its weight, are split into grounding singletons first (a
    debug log line says why), so every particle's rule probability is well
    defined.  Entries with no applicable rule at all are dropped (dead
    ends) and the prediction is renormalised.  Each rule is planned once
    per entry; the update builds the successors of the particles it keeps.
    """
    queue: list[tuple[LiftedMultiHypergraph, float]] = list(belief.entries)
    masses: list[tuple[LiftedApplyResult, float]] = []
    dropped = 0.0
    while queue:
        state, w = queue.pop()
        loc = _summary(domain.observation, state)[0]
        # rule weights by agent location may differ across the groundings
        split = bool(loc is None and domain.action_model.by_location
                     and state.count_groundings() > 1)
        reason = "rule weights depend on the agent's location"
        applicable = []
        for rule in () if split else domain.rules:
            t = lifted_apply(rule, state)
            if 0 < t.n_applicable < t.n_groundings:
                split, reason = True, f"{rule.name!r} applies in only some groundings"
                break
            if t.n_applicable > 0:
                applicable.append(t)
        if split:
            n = state.count_groundings()
            logger.debug("predict: split into %d groundings, %s", n, reason)
            for g in state.iter_groundings():
                queue.append((LiftedMultiHypergraph.from_graph(g), w / n))
            continue
        weights = [domain.action_model.rule_weight(t.rule.name, loc)
                   for t in applicable]
        total_w = sum(weights)
        if total_w <= 0:
            logger.warning("dead end: %s; dropping %g belief mass", "zero action mass"
                           if applicable else "no applicable rule", w)
            dropped += w
            continue
        for t, rw in zip(applicable, weights):
            if rw:
                masses.append((t, w * rw / total_w))
    if not masses:
        return JointPrediction((), dropped)
    scale = 1.0 / sum(m for _, m in masses)
    particles = [Particle(t, m * scale) for t, m in masses]
    if any(p.prev is not particles[0].prev for p in particles):
        particles.sort(key=lambda p: (p.rule.name, p.prev.canonical_form().data))
    else:   # one predecessor, one form: the rule name alone gives that order
        particles.sort(key=lambda p: p.rule.name)
    return JointPrediction(tuple(particles), dropped)


# -- update --------------------------------------------------------------------

def update(domain, annotation, joint: JointPrediction, step: int = 0
           ) -> tuple[Belief, float]:
    """Condition the joint prediction on one annotation.

    Returns the posterior belief over the successor state and the step
    evidence Z; raises when no mass survives.
    """
    masses: list[tuple[LiftedMultiHypergraph, float]] = []
    z = 0.0
    prev_side = domain.observation.side(annotation.loc_t, annotation.held_t)
    next_side = domain.observation.side(annotation.loc_next, annotation.held_next)
    for p in joint.particles:
        if p.rule.name != annotation.action:
            continue
        f_prev, prevs = _condition_state(p.prev, prev_side)
        for tight, rel in prevs:
            # applicability is grounding-independent on the particle's
            # predecessor, hence also on any subset of its groundings, so
            # the successor probabilities need no reweighting
            t = p.transition if tight is p.prev else lifted_apply(p.rule, tight)
            for succ, prob in t.outputs(next_side):
                f_next, nexts = _condition_state(succ, next_side)
                if f_next == 0.0:
                    continue
                base = p.weight * f_prev * rel * prob * f_next
                for out, out_rel in nexts:
                    mass = base * out_rel
                    if mass != 0.0:
                        masses.append((out, mass))
                z += base
    if z <= 0.0 or not masses:
        raise TraceInconsistencyError(step, annotation.action)
    return Belief(masses), z


# -- trace filtering -----------------------------------------------------------

def filter_trace(domain, trace: Sequence, initial: Belief | None = None
                 ) -> FilterResult:
    """Run the filter over a whole annotation trace: each step is
    ``predict`` then ``update``, recorded by ``_run_trace``.

    Raises TraceInconsistencyError with the offending step index when an
    annotation kills all mass, and EnumerationLimitError when an exact
    fallback would enumerate more than ``MAX_GROUNDINGS`` groundings.
    """
    def step(belief, annotation, i):
        joint = predict(domain, belief)
        if not joint.particles:
            raise TraceInconsistencyError(i, annotation.action)
        posterior, z = update(domain, annotation, joint, step=i)
        return posterior, z, joint.dropped_mass

    belief = initial if initial is not None else Belief.from_state(domain.initial_state)
    return _run_trace(trace, belief, step, "lifted")


def _run_trace(trace: Sequence, belief: Belief, step, mode: str) -> FilterResult:
    """The per-step bookkeeping of both filters: ``step(belief, annotation,
    i)`` returns (posterior, Z, dropped dead-end mass), or raises
    TraceInconsistencyError, and each step adds its posterior, a ``StepStats``
    record, a warning when it dropped mass, and log Z."""
    beliefs = [belief]
    stats = [StepStats(0, None, len(belief), belief.ground_count(), 0.0, mode)]
    warnings: list[str] = []
    log_likelihood = 0.0
    for i, annotation in enumerate(trace):
        belief, z, dropped = step(belief, annotation, i)
        if dropped:
            warnings.append(f"step {i}: dropped {dropped:g} dead-end mass")
        log_likelihood += math.log(z)
        beliefs.append(belief)
        stats.append(StepStats(i + 1, annotation.action, len(belief),
                               belief.ground_count(), math.log(z), mode, dropped))
    return FilterResult(tuple(beliefs), tuple(stats), log_likelihood,
                        tuple(warnings))
