"""Domain definitions, their file formats, and trace generation.

A domain bundles everything the filter needs: the vertex/edge vocabulary,
the observation schema (which vertex is the agent, which labels are
locations, which labels are observable as held counts; the agent's
position and holding are always ``at`` and ``holds`` edges), the
initial state, whose vertex layout carries the conservation declaration,
the rules, and the action model.  Two assembly scenes ship built in, as
domain documents under ``domains/``: ``mini`` (small enough for the ground
reference filter) and ``bookshelf`` (large enough that only the lifted
filter is practical).

Domains are stored as JSON (format tag ``mhg-domain/1``); traces as JSON
lines, one annotation per line with the action name, the agent's location
before and after, and the held-item counts before and after (absent labels
mean zero).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .errors import IntegrityError, ParseError, StructuralError
from .filtering import HOLDS_LABEL, ActionModel, ObservationSchema, agent_location
from .graphs import EdgeKey, Vertex, edge_key, index_vertices
from .lifted import LiftedMultiHypergraph, MultiHypergraph
from .rewrite import (Effect, EffectEdge, Pattern, PatternEdge, PatternVertex,
                      Rule, ground_options, apply)

DOMAIN_FORMAT = "mhg-domain/1"

__all__ = ["AnnotationTuple", "Domain", "parse_domain", "parse_trace",
           "format_trace", "generate_trace", "held_counts", "builtin_domain",
           "BUILTIN_DOMAINS", "DOMAIN_FORMAT"]


@dataclass(frozen=True)
class AnnotationTuple:
    """One observed step: action name, agent location and held-item counts
    on both sides of the transition.  Checked as ``parse_trace`` checks a
    line, held maps copied; a bad value raises ValueError naming it."""

    action: str
    loc_t: str
    loc_next: str
    held_t: Mapping[str, int] = field(default_factory=dict)
    held_next: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("held_t", "held_next"):
            object.__setattr__(self, name, _held_counts(getattr(self, name), name))
        for name in ("action", "loc_t", "loc_next"):
            _string(getattr(self, name), name)

    def to_dict(self) -> dict:
        return {"action": self.action, "loc_t": self.loc_t,
                "loc_next": self.loc_next,
                "held_t": dict(sorted(self.held_t.items())),
                "held_next": dict(sorted(self.held_next.items()))}


@dataclass(frozen=True)
class Domain:
    name: str
    agent_id: str
    location_labels: frozenset[str]
    agent_location_labels: frozenset[str]
    holdable_labels: frozenset[str]
    initial_state: LiftedMultiHypergraph
    rules: tuple[Rule, ...]
    action_model: ActionModel = field(default_factory=ActionModel)

    def __post_init__(self):
        names = [r.name for r in self.rules]
        if len(names) != len(set(names)):
            raise StructuralError(f"domain {self.name!r}: duplicate rule name")
        if self.initial_state.is_empty:
            raise StructuralError(f"domain {self.name!r}: the initial state's "
                                  f"constraints admit no grounding")
        if not self.initial_state.has_vertex(self.agent_id):
            raise StructuralError(f"domain {self.name!r}: agent {self.agent_id!r} "
                                  f"is no vertex of the initial state")
        if not self.agent_location_labels <= self.location_labels:
            raise StructuralError(
                f"domain {self.name!r}: agent locations must be locations")
        by_label: dict[str, list[Vertex]] = {}
        for v in self.initial_state.vertices:
            by_label.setdefault(v.label, []).append(v)
        # the observed held-count keys, per holdable label in sorted order
        object.__setattr__(self, "observation", ObservationSchema(self.agent_id, tuple(
            (label, tuple(edge_key(HOLDS_LABEL, (self.agent_id, v.id))
                          for v in by_label.get(label, ())))
            for label in sorted(self.holdable_labels))))
        # Beliefs merge states by label-preserving isomorphism, but the
        # observation names the agent and its location by vertex id, and an
        # effect may name a literal id.  Such a vertex must be the only one
        # with its label, or merging would lose mass.  A literal id must also
        # be a vertex of the initial state, or the rule would raise
        # EffectError mid-filter, the first time it is compiled.
        named = {self.agent_id}
        named.update(v.id for label in self.agent_location_labels
                     for v in by_label.get(label, ()))
        for r in self.rules:
            declared = {pv.var for pv in r.pattern.vertices}
            literals = {x for e in r.effect.retract + r.effect.assert_
                        for x in e.vars if x not in declared}
            for vid in sorted(literals):
                if not self.initial_state.has_vertex(vid):
                    raise StructuralError(
                        f"domain {self.name!r}: rule {r.name!r} names vertex "
                        f"{vid!r} in its effect, but the initial state has "
                        f"no such vertex")
            named.update(literals)
        for vid in sorted(named):
            if (self.initial_state.has_vertex(vid)
                    and len(by_label[self.initial_state.vertex(vid).label]) > 1):
                raise StructuralError(
                    f"domain {self.name!r}: vertex {vid!r} shares its label "
                    f"with another vertex, but the observation or a rule "
                    f"names it by id")

    def rule(self, name: str) -> Rule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)


# -- domain JSON ---------------------------------------------------------------

def _req(obj: dict, key: str, source: str, kind=None):
    """A required field, read by ``kind`` (as ``kind(value, key)``) if given."""
    if key not in obj:
        raise ParseError(f"missing key {key!r}", source)
    return obj[key] if kind is None else kind(obj[key], key)


def _integer(value, name: str) -> int:
    """An integer field as written: a JSON integer, never a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} is {value!r}, not an integer")
    return value


def _string(value, name: str) -> str:
    """A field as written: a JSON string, never coerced."""
    if not isinstance(value, str):
        raise ValueError(f"{name} is {value!r}, not a string")
    return value


def _strings(value, name: str) -> tuple[str, ...]:
    """A list field as written: a JSON array of strings, never a bare string."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"{name} is {value!r}, not a list of strings")
    return tuple(value)


def _labels(value, name: str) -> frozenset[str]:
    """A label set as written: a JSON array of strings."""
    return frozenset(_strings(value, name))


def _edge_fields(obj: dict, source: str, vars_key: str = "incidence") -> tuple:
    """The ``label`` and ``incidence`` (or ``vars``) of an edge entry, as written."""
    return _req(obj, "label", source, _string), _req(obj, vars_key, source, _strings)


def _weights(value, name: str, rule_names: set[str]) -> dict[str, float]:
    """A rule-weight table as written: a JSON object from the domain's rule
    names to finite non-negative JSON numbers, never booleans."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} is {value!r}, not an object")
    for rule, w in value.items():
        if rule not in rule_names:
            raise ValueError(f"{name} names {rule!r}, not a rule of the domain")
        if (isinstance(w, bool) or not isinstance(w, (int, float))
                or not math.isfinite(w) or w < 0):
            raise ValueError(f"{name}.{rule} is {w!r}, not a finite "
                             f"non-negative number")
    return dict(value)


def _action_model(am, rule_names: set[str], places: set[str]) -> ActionModel:
    """The action model as written; ``by_location`` keys must be the ids of
    agent-location vertices."""
    if not isinstance(am, dict):
        raise ValueError(f"action_model is {am!r}, not an object")
    by_location = am.get("by_location", {})
    if not isinstance(by_location, dict):
        raise ValueError(f"action_model.by_location is {by_location!r}, "
                         f"not an object")
    for loc in by_location:
        if loc not in places:
            raise ValueError(f"action_model.by_location names {loc!r}, "
                             f"not an agent-location vertex")
    return ActionModel(
        _weights(am.get("weights", {}), "action_model.weights", rule_names),
        {loc: _weights(tbl, f"action_model.by_location.{loc}", rule_names)
         for loc, tbl in by_location.items()})


def _pattern_vertex(pv: dict, source: str) -> PatternVertex:
    label = pv.get("label")
    any_of = pv.get("label_any_of")
    if label is not None and any_of is not None:
        raise ParseError("pattern vertex has both label and label_any_of", source)
    label = (_labels(any_of, "label_any_of") if any_of is not None
             else None if label is None else _string(label, "label"))
    return PatternVertex(_req(pv, "var", source, _string), label,
                         _integer(pv.get("min_multiplicity", 1), "min_multiplicity"))


def _desugar_lifted_effect(le: dict, pattern: Pattern, effect: Effect,
                           vertices: Sequence[Vertex], source: str
                           ) -> tuple[Pattern, Effect]:
    """A ``lifted_effect`` as ordinary rule parts: a pattern variable over
    the slot vertices and an assert capped at the slot capacity.

    The slot templates must share label, arity and capacity and differ in
    one incidence entry (with a single slot: its one entry that is not a
    variable), and the slot ids there must be exactly the vertices carrying
    their labels, which no other variable may bind; otherwise the rewrite
    would change which options the rule has.
    """
    for key in le:
        if key not in ("group", "slots"):   # ``group`` is accepted and ignored
            raise ParseError(f"lifted_effect key {key!r} is not supported", source)
    slots = [(*_edge_fields(s, source), _integer(s.get("capacity", 1), "capacity"))
             for s in _req(le, "slots", source)]
    if not slots:
        raise ParseError("lifted_effect has no slots", source)
    label, incidence, capacity = slots[0]
    if capacity < 1 or any((lb, len(inc), cap) != (label, len(incidence), capacity)
                           for lb, inc, cap in slots):
        raise ParseError("lifted_effect slots need one label, arity and "
                         "capacity of at least 1", source)
    declared = {pv.var for pv in pattern.vertices}
    where = ([i for i in range(len(incidence))
              if len({inc[i] for _, inc, _ in slots}) > 1]
             or [i for i, x in enumerate(incidence) if x not in declared])
    if len(where) != 1:
        raise ParseError("lifted_effect slots must differ in exactly one "
                         "incidence entry", source)
    i = where[0]
    slot_ids = sorted(inc[i] for _, inc, _ in slots)
    labels = frozenset(v.label for v in vertices if v.id in slot_ids)
    if slot_ids != sorted(v.id for v in vertices if v.label in labels):
        raise ParseError(f"lifted_effect slot ids {slot_ids} are not exactly "
                         f"the vertices with labels {sorted(labels)}", source)
    if any(pv.admits(v) for pv in pattern.vertices
           for v in vertices if v.id in slot_ids):
        raise ParseError("lifted_effect slot vertices may be bound by a "
                         "pattern variable", source)
    var = "SL"
    while var in declared:
        var += "_"
    slot_edge = EffectEdge(label, incidence[:i] + (var,) + incidence[i + 1:],
                           cap=capacity)
    return (Pattern(pattern.vertices + (PatternVertex(var, labels),), pattern.edges),
            Effect(effect.retract, effect.assert_ + (slot_edge,)))


def _initial_edges(data: dict, source: str) -> tuple[dict, list]:
    """The initial bounds map and groups, (keys, total), of a document.
    Fixed edges with one key sum, and a fixed multiplicity on a bounded key
    adds to its interval and its group's total, which keeps each grounding:
    the bounded value plus the fixed one."""
    fixed: dict[EdgeKey, int] = {}
    for e in data.get("edges", ()):
        key = edge_key(*_edge_fields(e, source))
        m = _integer(e.get("multiplicity", 1), "multiplicity")
        if m < 1:
            raise ValueError(f"edge {key!r}: multiplicity {m} is below 1")
        fixed[key] = fixed.get(key, 0) + m
    bounds: dict[EdgeKey, tuple[int, int]] = {}
    for b in data.get("bounded_edges", ()):
        key = edge_key(*_edge_fields(b, source))
        lo, up = (_req(b, k, source, _integer) for k in ("lower", "upper"))
        if not 0 <= lo <= up:
            raise ValueError(f"bounded edge {key!r}: bad bounds [{lo}, {up}]")
        if key in bounds:
            raise ValueError(f"duplicate bounded edge {key!r}")
        bounds[key] = (lo, up)
    groups = []
    for c in data.get("constraints", ()):
        keys = set()
        for entry in _req(c, "edges", source):    # [label, [vertex ids]]
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"constraint edge {entry!r} is not a pair")
            keys.add(edge_key(_string(entry[0], "label"),
                              _strings(entry[1], "incidence")))
        total = _req(c, "total", source, _integer)
        if total < 0:
            raise ValueError(f"constraint total {total} is negative")
        if not keys <= bounds.keys():
            raise ValueError(f"constraint references unknown bounded edge "
                             f"{min(keys - bounds.keys())!r}")
        groups.append((keys, total + sum(fixed.get(k, 0) for k in keys)))
    for k, m in fixed.items():
        lo, up = bounds.get(k, (0, 0))
        bounds[k] = (lo + m, up + m)
    return bounds, groups


def parse_domain(data: dict, source: str = "<domain>") -> Domain:
    if not isinstance(data, dict):
        raise ParseError("domain document must be an object", source)
    if data.get("format") != DOMAIN_FORMAT:
        raise ParseError(f"unsupported domain format {data.get('format')!r}; "
                         f"expected {DOMAIN_FORMAT!r}", source)
    for key in ("at_label", "holds_label"):
        if key in data:
            raise ParseError(f"domain key {key!r} is not supported: observations "
                             "always read 'at' and 'holds' edges", source)
    try:
        labels = data.get("labels", {})
        conservation = data.get("conservation", {})
        vertices = [Vertex(*(_req(v, k, source, _string) for k in ("id", "label")),
                           _integer(v.get("multiplicity", 1), "multiplicity"))
                    for v in _req(data, "vertices", source)]
        bounds, groups = _initial_edges(data, source)
        rules = []
        for r in _req(data, "rules", source):
            pat = r.get("pattern", {})
            pattern = Pattern(
                tuple(_pattern_vertex(pv, source)
                      for pv in pat.get("vertices", ())),
                tuple(PatternEdge(*_edge_fields(pe, source, "vars"),
                                  _integer(pe.get("min_multiplicity", 1),
                                           "min_multiplicity"))
                      for pe in pat.get("edges", ())))
            eff = r.get("effect", {})

            def _effect_edges(entries):
                return tuple(
                    EffectEdge(*_edge_fields(e, source, "vars"),
                               _integer(e.get("multiplicity", 1), "multiplicity"),
                               None if e.get("cap") is None
                               else _integer(e["cap"], "cap"))
                    for e in entries)

            effect = Effect(_effect_edges(eff.get("retract", ())),
                            _effect_edges(eff.get("assert", ())))
            if r.get("lifted_effect") is not None:
                pattern, effect = _desugar_lifted_effect(
                    r["lifted_effect"], pattern, effect, vertices, source)
            rules.append(Rule(_req(r, "name", source, _string), pattern, effect))
        agent_locations = _labels(_req(labels, "agent_locations", source),
                                  "labels.agent_locations")
        action_model = _action_model(
            data.get("action_model", {}), {r.name for r in rules},
            {v.id for v in vertices if v.label in agent_locations})
        layout = index_vertices(
            vertices, _labels(conservation.get("edges", []), "conservation.edges"),
            _labels(conservation.get("vertices", []), "conservation.vertices"))
        return Domain(
            name=_string(data.get("name", source), "name"),
            agent_id=_req(data, "agent", source, _string),
            location_labels=_labels(_req(labels, "locations", source),
                                    "labels.locations"),
            agent_location_labels=agent_locations,
            holdable_labels=_labels(_req(labels, "holdable", source),
                                    "labels.holdable"),
            initial_state=LiftedMultiHypergraph(layout, bounds, groups),
            rules=tuple(rules),
            action_model=action_model)
    except ParseError:
        raise
    except (StructuralError, IntegrityError, KeyError, TypeError,
            ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"bad domain document: {exc}", source) from exc


# -- trace JSONL ---------------------------------------------------------------

def parse_trace(text: str, source: str = "<trace>") -> list[AnnotationTuple]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", source, lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("annotation must be an object", source, lineno)
        # an ignored key, say a misspelled "held_nxt", would change what is observed
        for key in obj:
            if key not in ("action", "loc_t", "loc_next", "held_t", "held_next"):
                raise ParseError(f"bad annotation: unknown key {key!r}", source, lineno)
        try:
            out.append(AnnotationTuple(obj["action"], obj["loc_t"], obj["loc_next"],
                                       obj.get("held_t", {}), obj.get("held_next", {})))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad annotation: {exc}", source, lineno) from exc
    return out


def _held_counts(raw: Mapping, name: str) -> dict[str, int]:
    """Held counts as written: string labels to integers, not booleans, >= 0."""
    if not isinstance(raw, Mapping):
        raise ValueError(f"{name} is {raw!r}, not an object")
    for label, n in raw.items():
        if not isinstance(label, str):
            raise ValueError(f"{name} label {label!r} is not a string")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"held count {label!r} is {n!r}, "
                             "not a non-negative integer")
    return dict(raw)


def format_trace(trace: Iterable[AnnotationTuple]) -> str:
    return "".join(json.dumps(t.to_dict(), sort_keys=True) + "\n" for t in trace)


# -- built-in scenes -----------------------------------------------------------

BUILTIN_DOMAINS = ("bookshelf", "mini")


def builtin_domain(name: str) -> Domain:
    """A built-in scene, parsed from its shipped ``domains/<name>.json``."""
    if name not in BUILTIN_DOMAINS:
        raise ParseError(f"unknown built-in domain {name!r}; "
                         f"available: {list(BUILTIN_DOMAINS)}", name)
    path = resources.files("mhgfilter") / "domains" / f"{name}.json"
    return parse_domain(json.loads(path.read_text(encoding="utf-8")),
                        f"domains/{name}.json")


# -- trace generation ----------------------------------------------------------

def held_counts(domain: Domain, g: MultiHypergraph) -> dict[str, int]:
    out = {}
    for label, keys in domain.observation.holds_keys:
        c = sum(g.multiplicity_bounds(k)[0] for k in keys)
        if c:
            out[label] = c
    return out


def _pick_install_heavy(domain: Domain, g: MultiHypergraph, rng: random.Random,
                        options_by_rule: dict[str, list]) -> tuple[Rule, object]:
    """Greedy choice among ``options_by_rule`` (the rules of positive weight
    that have an option): install when possible, otherwise work toward
    installing.  A domain whose ``walk`` or ``take`` names its variables
    otherwise gets no preference from that rule."""
    wanted = [("installEccentric", lambda m: True)]
    if agent_location(domain, g) != "table":
        wanted.append(("walk", lambda m: m.as_dict().get("Y") == "table"))
    if g.edge_multiplicity(HOLDS_LABEL, (domain.agent_id, "screwdriver")) == 0:
        wanted.append(("take", lambda m: m.as_dict().get("I") == "screwdriver"))
    wanted.append(("take", lambda m: m.as_dict().get("I") == "eccentric"))
    for rule_name, want in wanted:
        opts = [m for m in options_by_rule.get(rule_name, ()) if want(m)]
        if opts:
            return domain.rule(rule_name), opts[rng.randrange(len(opts))]
    applicable = [(r, m) for r in domain.rules
                  for m in options_by_rule.get(r.name, ())]
    return applicable[rng.randrange(len(applicable))]


def generate_trace(domain: Domain, seed: int, length: int,
                   corrupt_at: int | None = None, policy: str = "uniform"
                   ) -> tuple[list[AnnotationTuple], bool]:
    """Simulate the ground dynamics and record the annotation trace.

    ``policy`` is "uniform" (rules weighted by the action model, option
    uniform within the rule) or "install_heavy" (greedy assembly: acquire
    the screwdriver, then alternate taking and installing eccentrics).
    Neither policy takes a rule the action model gives weight 0 at the
    agent's location.  Returns the trace and whether it was truncated by a
    dead end, where no rule of positive weight has an option.  Raises
    IntegrityError at a step that leaves the agent, or finds it, without
    a single location, which no annotation can record.
    ``corrupt_at`` overwrites the held-count observation of that step with
    an impossible value, making the trace inconsistent exactly there; it
    raises ValueError unless it is a step of the returned trace.  A negative
    ``length`` raises ValueError.
    """
    if policy not in ("uniform", "install_heavy"):
        raise ValueError(f"unknown policy {policy!r}")
    if length < 0:
        raise ValueError(f"length {length} is negative")
    rng = random.Random(seed)
    grounds = domain.initial_state.groundings()
    g = grounds[rng.randrange(len(grounds))]
    trace: list[AnnotationTuple] = []
    truncated = False
    loc_t = agent_location(domain, g)
    for step in range(length):
        # a rule the action model gives weight 0 here is never taken
        weights = {rule.name: domain.action_model.rule_weight(rule.name, loc_t)
                   for rule in domain.rules}
        options_by_rule = {rule.name: opts for rule in domain.rules
                           if weights[rule.name] and (opts := ground_options(rule, g))}
        if not options_by_rule:
            truncated = True
            break
        if policy == "install_heavy":
            rule, match = _pick_install_heavy(domain, g, rng, options_by_rule)
        else:
            names = sorted(options_by_rule)
            name = rng.choices(names, weights=[weights[n] for n in names])[0]
            opts = options_by_rule[name]
            rule, match = domain.rule(name), opts[rng.randrange(len(opts))]
        held_t = held_counts(domain, g)
        g2 = apply(rule, g, match)
        loc_next = agent_location(domain, g2)
        if loc_t is None or loc_next is None:
            raise IntegrityError(f"step {step} (rule {rule.name!r}): the agent "
                                 f"has no single location before or after it")
        trace.append(AnnotationTuple(rule.name, loc_t, loc_next,
                                     held_t, held_counts(domain, g2)))
        g, loc_t = g2, loc_next
    if corrupt_at is not None:
        if not 0 <= corrupt_at < len(trace):
            raise ValueError(f"corrupt_at {corrupt_at} is not a step of the "
                             f"{len(trace)}-step trace")
        if not domain.holdable_labels:
            raise ValueError("corrupt_at needs a holdable label; the domain has none")
        t = trace[corrupt_at]
        bad_label = sorted(domain.holdable_labels)[0]
        trace[corrupt_at] = AnnotationTuple(t.action, t.loc_t, t.loc_next,
                                            t.held_t, {bad_label: 9999})
    return trace, truncated
