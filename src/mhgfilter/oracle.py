"""Ground-enumeration reference filter.

This is the second, independent route to the same posterior: expand every
belief into explicit ground states, push each through the rule options
directly, and condition with exact 0/1 checks.  As in the lifted filter, a
rule is applicable where ``ground_options`` finds an option, and successors
are built only for the observed rule.  Both are memoised by ground
canonical form, which is exact (see ``ground_filter_trace``): a state's
applicable rules and their weights for the domain's lifetime, and its
successors within one trace.

It shares the lifted filter's scaffolding: the belief container (a
``GroundBelief`` is a ``Belief``), the trace bookkeeping (``_run_trace``),
``agent_location``, ``merged`` and state derivation (``apply`` is a
``shifted`` of a ground state, tested on its own against a brute-force
reference).  It keeps its own probability arithmetic (applicability,
action-model normalisation, dead ends, option counts, conditioning and Z)
and its own reading of an annotation side, the one ``generate_trace``
records, and has no compiled observation, interval tightening, grounding
fractions or counting over groups: that is what makes agreement between
the two a meaningful check.
It is exponential in the number of unknowns: for small scenes only.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Mapping, Sequence

from .canon import merged
from .errors import TraceInconsistencyError
from .domain import held_counts
from .filtering import (AT_LABEL, Belief, FilterResult, _run_trace, agent_location,
                        logger)
from .lifted import LiftedMultiHypergraph, MultiHypergraph
from .rewrite import Rule, ground_options, successors

__all__ = ["expand", "GroundBelief", "ground_filter_trace", "compare",
           "ComparisonReport", "total_variation"]


def expand(l: LiftedMultiHypergraph) -> list[tuple[MultiHypergraph, float]]:
    """Uniform distribution over the groundings, merged by canonical form.

    Raises EnumerationLimitError past ``MAX_GROUNDINGS`` groundings.
    """
    pairs = merged((g, 1) for g in l.iter_groundings())
    n = sum(c for _, c in pairs)
    return [(g, c / n) for g, c in pairs]


class GroundBelief(Belief):
    """Normalised weighted set of ground states, merged by canonical form;
    ``Belief``'s weight checks and normalisation apply."""

    __slots__ = ()

    @classmethod
    def from_belief(cls, belief: Belief) -> "GroundBelief":
        out = []
        for l, w in belief.entries:
            for g, p in expand(l):
                out.append((g, w * p))
        return cls(out)

    def as_dict(self) -> dict[bytes, float]:
        return {g.canonical_form().data: w for g, w in self.entries}

    def ground_count(self) -> int:
        """Each entry is one ground state: no bounds map to count over."""
        return len(self.entries)


def ground_filter_trace(domain, trace: Sequence) -> FilterResult:
    """Filter a trace entirely in ground space (the reference semantics);
    the result's beliefs are ``GroundBelief``s.

    Each distinct ground state (by canonical form) has its applicable rules
    and their weights found once per domain, and each (rule, state) its
    successors built once per trace.  Both are exact: ``Domain`` makes the
    agent, its locations and every vertex an effect names literally the
    only vertex with its label, so an isomorphism between two ground states
    fixes them, and isomorphic states have the same applicable rules, the
    same agent location and isomorphic successors.  The rule memo builds
    nothing and computes no form, so it lives on the domain's layout, under
    a weak reference to the domain that tells its entry apart.  Successors
    stay per trace, so a trace builds, and computes the forms of, the same
    states whatever the domain filtered before."""
    succ_cache: dict[tuple[str, bytes], list[tuple[MultiHypergraph, float]]] = {}
    memos, key = domain.initial_state.layout.compiled, ("ground rules", id(domain))
    entry = memos.get(key)
    if entry is None or entry[0]() is not domain:
        entry = memos[key] = (weakref.ref(domain), {})
    rule_cache: dict[bytes, tuple[list[Rule], list[float]]] = entry[1]

    def step(belief, annotation, i):
        # predict: a rule is applicable where it has an option; successors
        # are built in the update, and only for the observed rule
        particles: list[tuple[MultiHypergraph, Rule, float]] = []
        dropped = 0.0
        for g, w in belief.entries:
            form = g.canonical_form().data
            if form not in rule_cache:
                applicable = [rule for rule in domain.rules if ground_options(rule, g)]
                loc = agent_location(domain, g)
                rule_cache[form] = applicable, [
                    domain.action_model.rule_weight(rule.name, loc) for rule in applicable]
            applicable, rws = rule_cache[form]
            total_w = sum(rws)
            if total_w <= 0:
                logger.warning("ground dead end: %s; dropping %g mass", "zero action mass"
                               if applicable else "no applicable rule", w)
                dropped += w
                continue
            for rule, rw in zip(applicable, rws):
                if rw:
                    particles.append((g, rule, w * rw / total_w))
        total = sum(w for _, _, w in particles)
        if total <= 0:
            raise TraceInconsistencyError(i, annotation.action)
        # update
        masses: list[tuple[MultiHypergraph, float]] = []
        z = 0.0
        for g, rule, w in particles:
            w /= total
            if (rule.name != annotation.action
                    or not _observed(domain, g, annotation.loc_t, annotation.held_t)):
                continue
            key = (rule.name, g.canonical_form().data)
            if key not in succ_cache:
                succ_cache[key] = successors(rule, g)
            for h, p in succ_cache[key]:
                if not _observed(domain, h, annotation.loc_next, annotation.held_next):
                    continue
                mass = w * p
                masses.append((h, mass))
                z += mass
        if z <= 0 or not masses:
            raise TraceInconsistencyError(i, annotation.action)
        return GroundBelief(masses), z, dropped

    return _run_trace(trace, GroundBelief(expand(domain.initial_state)), step, "ground")


def _observed(domain, g: MultiHypergraph, loc: str, held: Mapping[str, int]) -> bool:
    """Whether g shows one annotation side as ``generate_trace`` records
    it: the agent's ``at`` edge to ``loc`` has multiplicity 1, and
    ``held_counts`` equals the side's non-zero counts."""
    return (g.edge_multiplicity(AT_LABEL, (domain.agent_id, loc)) == 1
            and held_counts(domain, g) == {label: n for label, n in held.items() if n})


@dataclass(frozen=True)
class ComparisonReport:
    per_step_tv: tuple[float, ...]
    max_tv: float
    log_likelihood_lifted: float
    log_likelihood_ground: float
    tolerance: float

    @property
    def log_likelihood_gap(self) -> float:
        return abs(self.log_likelihood_lifted - self.log_likelihood_ground)

    @property
    def divergent(self) -> bool:
        return (self.max_tv > self.tolerance
                or self.log_likelihood_gap > self.tolerance)


def total_variation(p: dict[bytes, float], q: dict[bytes, float]) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def compare(domain, trace: Sequence, tolerance: float = 1e-9) -> ComparisonReport:
    """Run both filters over the trace and report per-step belief distance.

    Raises ValueError when ``tolerance`` is not finite and >= 0.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance {tolerance!r} is not finite and >= 0")
    from .filtering import filter_trace
    lifted = filter_trace(domain, trace)
    ground = ground_filter_trace(domain, trace)
    tvs = [total_variation(GroundBelief.from_belief(lb).as_dict(), gb.as_dict())
           for lb, gb in zip(lifted.beliefs, ground.beliefs)]
    return ComparisonReport(tuple(tvs), max(tvs), lifted.log_likelihood,
                            ground.log_likelihood, tolerance)
