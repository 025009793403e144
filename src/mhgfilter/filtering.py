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
and only those the next-side observation does not already exclude.  Every
state that enters a belief is built on the way, and checked once per
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
from .lifted import LiftedMultiHypergraph, MultiHypergraph
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


# -- observation schema --------------------------------------------------------

def agent_location(domain, state: LiftedMultiHypergraph) -> str | None:
    """The agent's location vertex id, or None when not uniquely fixed."""
    agent, found = domain.agent_id, None
    for (label, incidence), (lo, up) in state.bounds.items():
        if label != AT_LABEL or lo != up or agent not in incidence:
            continue
        others = [v for v in incidence if v != agent]
        if len(incidence) != 2 or len(others) != 1 or lo != 1 or found is not None:
            return None
        found = others[0]
    return found


def _conditions(domain, loc: str, held: Mapping[str, int]
                ) -> list[tuple[tuple[EdgeKey, ...], int]]:
    """Exact-count conditions (key set, required total) for one observation
    side, the agent's location first.  An unknown location fails it: its
    key has multiplicity 0 in every state."""
    conds = [((edge_key(AT_LABEL, (domain.agent_id, loc)),), 1)]
    conds += [(keys, held.get(label, 0)) for label, keys in domain.holds_keys]
    # an unknown label has no keys: only 0 is satisfiable
    conds += [((), held[label]) for label in sorted(held)
              if label not in domain.holdable_labels]
    return conds


def _ground_consistent(g: MultiHypergraph,
                       conds: list[tuple[tuple[EdgeKey, ...], int]]) -> bool:
    """Whether g meets one observation side's ``_conditions``."""
    for keys, required in conds:
        if sum(g.multiplicity_bounds(k)[0] for k in keys) != required:
            return False
    return True


def _condition_state(l: LiftedMultiHypergraph,
                     conds: list[tuple[tuple[EdgeKey, ...], int]]
                     ) -> tuple[float, list[tuple[LiftedMultiHypergraph, float]]]:
    """Condition a state on one observation side's ``_conditions``.

    Returns (fraction of groundings that are consistent, the states taking
    l's place with relative weights summing to one; l itself when the
    observation leaves it whole).  Fixed edges give 0/1 verdicts; a single
    bounded key gives an exact interval tightening; anything else is
    resolved by enumeration, within ``MAX_GROUNDINGS``.  A ground state only
    ever takes the first branch.
    """
    work = l
    frac = 1.0
    deferred: list[tuple[tuple[EdgeKey, ...], int]] = []
    for keys, required in conds:
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
        survivors = merged((g, 1) for g in work.iter_groundings()
                           if _ground_consistent(g, deferred))
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
        loc = agent_location(domain, state)
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
    prev_conds = _conditions(domain, annotation.loc_t, annotation.held_t)
    next_conds = _conditions(domain, annotation.loc_next, annotation.held_next)
    for p in joint.particles:
        if p.rule.name != annotation.action:
            continue
        f_prev, prevs = _condition_state(p.prev, prev_conds)
        for tight, rel in prevs:
            # applicability is grounding-independent on the particle's
            # predecessor, hence also on any subset of its groundings, so
            # the successor probabilities need no reweighting
            t = p.transition if tight is p.prev else lifted_apply(p.rule, tight)
            for succ, prob in t.outputs(next_conds):
                f_next, nexts = _condition_state(succ, next_conds)
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
