"""Lifted multi-hypergraph states.

A lifted state compactly represents a uniform distribution over a set of
ground states that share their vertices and a fixed edge core but differ in
the multiplicities of *bounded* edges.  Each bounded edge carries an integer
interval [lower, upper]; exact-total constraints tie disjoint groups of
bounded edges, each identified by its key set, to a fixed multiplicity sum.
A grounding picks one value per bounded edge within its bounds such that
every group total holds; the lifted state denotes the uniform distribution
over all such assignments.

Construction normalises the representation:

* fixed edges sharing a key with a bounded edge are absorbed into its bounds
  (support-preserving reparameterisation, group total shifted accordingly),
* bounds are tightened to the feasible hull within each constraint group,
* bounded edges with lower = upper become fixed edges (absent when zero),
* satisfied empty groups are dropped.

Infeasible constraints yield an *empty* lifted state (no groundings), which
is constructible but rejected wherever a belief requires non-empty support.
Conservation, declared on the vertex layout, must hold in every grounding;
the constructor verifies that the conserved multiplicity sum of every
participating vertex is constant across the support and equal to the vertex
multiplicity.

Every state built from another (shifted, lifted from a graph, or grounded)
keeps its vertex layout, with its conservation declaration, its compiled
forms and its interned edges: a state's fixed edges, and a grounding's
edges, are the layout's objects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .canon import CanonicalForm, canonical_form_lifted as _canon_lifted
from .errors import EnumerationLimitError, StructuralError
from .graphs import (EdgeKey, Hyperedge, MultiHypergraph, Vertex, VertexLayout,
                     check_conservation, check_incidence, index_vertices)

# Enumerating more groundings than this raises EnumerationLimitError.
MAX_GROUNDINGS = 10 ** 6

__all__ = ["BoundedEdge", "TotalConstraint", "LiftedMultiHypergraph",
           "MAX_GROUNDINGS"]


@dataclass(frozen=True, order=True)
class BoundedEdge:
    """A hyperedge whose multiplicity is only known to lie in [lower, upper]."""

    label: str
    incidence: tuple[str, ...]
    lower: int
    upper: int
    key: EdgeKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.label:
            raise StructuralError("bounded edge label must be non-empty")
        if not self.incidence:
            raise StructuralError(f"bounded edge {self.label!r}: empty incidence")
        object.__setattr__(self, "incidence", tuple(sorted(self.incidence)))
        object.__setattr__(self, "key", (self.label, self.incidence))
        if self.lower < 0 or self.lower > self.upper:
            raise StructuralError(
                f"bounded edge {self.label!r}: bad bounds [{self.lower}, {self.upper}]")


@dataclass(frozen=True)
class TotalConstraint:
    """Exact multiplicity total over a group of bounded edges.

    Groups of distinct constraints are disjoint, so a group's key set
    identifies it within its state.
    """

    edge_keys: frozenset[EdgeKey]
    total: int

    def __post_init__(self):
        if self.total < 0:
            raise StructuralError(f"constraint total {self.total} is negative")
        object.__setattr__(self, "edge_keys", frozenset(self.edge_keys))


class LiftedMultiHypergraph:
    __slots__ = ("layout", "vertices", "fixed_edges", "bounded_edges", "constraints",
                 "is_empty", "_fixed_mult", "_bounded_by_key", "_group_of",
                 "_canonical", "_count")

    def __init__(self, vertices: Iterable[Vertex] | VertexLayout,
                 fixed_edges: Iterable[Hyperedge] = (),
                 bounded_edges: Iterable[BoundedEdge] = (),
                 constraints: Iterable[TotalConstraint] = ()):
        layout = index_vertices(vertices)
        fixed: dict[EdgeKey, int] = {}
        for e in fixed_edges:
            e = layout.intern(e)
            fixed[e.key] = fixed.get(e.key, 0) + e.multiplicity

        bounds: dict[EdgeKey, tuple[int, int]] = {}
        for b in bounded_edges:
            check_incidence(b.label, b.incidence, layout.by_id)
            if b.key in bounds:
                raise StructuralError(f"duplicate bounded edge {b.key!r}")
            bounds[b.key] = (b.lower, b.upper)

        groups: list[tuple[set[EdgeKey], int]] = []
        owner: dict[EdgeKey, int] = {}
        for c in constraints:
            for k in c.edge_keys:
                if k not in bounds:
                    raise StructuralError(
                        f"constraint references unknown bounded edge {k!r}")
                if k in owner:
                    raise StructuralError(
                        f"bounded edge {k!r} appears in two constraints")
                owner[k] = len(groups)
            groups.append((set(c.edge_keys), c.total))

        # absorb fixed multiplicity into co-keyed bounds
        for k in list(bounds):
            f = fixed.pop(k, 0)
            if f:
                lo, up = bounds[k]
                bounds[k] = (lo + f, up + f)
                if k in owner:
                    keys, t = groups[owner[k]]
                    groups[owner[k]] = (keys, t + f)

        # One pass is exact: groups are disjoint and each key's hull is the
        # projection of its group's feasible set, so tightening again, or
        # fixing the keys with lower = upper, leaves every other hull as is.
        empty = False
        for keys, t in groups:
            lo_sum = sum(bounds[k][0] for k in keys)
            up_sum = sum(bounds[k][1] for k in keys)
            if lo_sum > t or up_sum < t:
                empty = True
                break
            for k in keys:
                lo, up = bounds[k]
                bounds[k] = (max(lo, t - (up_sum - up)), min(up, t - (lo_sum - lo)))
        if not empty:
            for k, (lo, up) in list(bounds.items()):
                if lo < up:
                    continue
                del bounds[k]
                fixed[k] = lo
                if k in owner:
                    keys, t = groups[owner[k]]
                    keys.discard(k)
                    groups[owner[k]] = (keys, t - lo)
            groups = [g for g in groups if g[0]]

        self.layout = layout
        self.vertices = layout.vertices
        self.fixed_edges = tuple(layout.edge(k, m)
                                 for k, m in sorted(fixed.items()) if m > 0)
        self.bounded_edges = tuple(BoundedEdge(lbl, inc, lo, up)
                                   for (lbl, inc), (lo, up) in sorted(bounds.items()))
        self.constraints = tuple(sorted(
            (TotalConstraint(frozenset(keys), t) for keys, t in groups),
            key=lambda c: sorted(c.edge_keys)))
        self.is_empty = empty
        self._fixed_mult = {e.key: e.multiplicity for e in self.fixed_edges}
        self._bounded_by_key = {b.key: b for b in self.bounded_edges}
        self._group_of = {}
        for c in self.constraints:
            for k in c.edge_keys:
                self._group_of[k] = c
        self._canonical = None
        self._count = None
        if not empty:
            check_conservation(layout, self.fixed_edges, self.bounded_edges,
                               self.constraints)

    # -- queries -----------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        return self.layout.by_id[vid]

    def has_vertex(self, vid: str) -> bool:
        return vid in self.layout.by_id

    def multiplicity_bounds(self, key: EdgeKey) -> tuple[int, int]:
        """(lower, upper) multiplicity of an edge key across the groundings."""
        f = self._fixed_mult.get(key, 0)
        b = self._bounded_by_key.get(key)
        return (f + b.lower, f + b.upper) if b else (f, f)

    def group_of(self, key: EdgeKey) -> TotalConstraint | None:
        return self._group_of.get(key)

    @classmethod
    def from_graph(cls, g: MultiHypergraph) -> "LiftedMultiHypergraph":
        return cls(g.layout, g.edges)

    def shifted(self, delta: Mapping[EdgeKey, int], group: tuple | None = None
                ) -> "LiftedMultiHypergraph":
        """The state with every grounding's edges moved rigidly.

        A bounded key's interval moves by its delta, and so does its group's
        total; any other key's fixed multiplicity moves by its delta.
        ``group = (keys, total)`` makes ``keys`` one group with that total
        after the delta: an existing group's key set keeps its members'
        bounds, and keys absent here join as [0,1] members.  Raises
        StructuralError when a fixed multiplicity would fall below zero, or
        when ``keys`` partly overlap a group.
        """
        fixed = dict(self._fixed_mult)
        bounds = {k: (b.lower, b.upper) for k, b in self._bounded_by_key.items()}
        totals = {c.edge_keys: c.total for c in self.constraints}
        for k, d in delta.items():
            if k in bounds:
                bounds[k] = (bounds[k][0] + d, bounds[k][1] + d)
                if k in self._group_of:
                    totals[self._group_of[k].edge_keys] += d
                continue
            fixed[k] = fixed.get(k, 0) + d
            if fixed[k] < 0:
                raise StructuralError(f"shift takes edge {k!r} below zero")
        if group is not None:
            keys, total = group
            bounds.update((k, (0, 1)) for k in keys if k not in bounds)
            totals[frozenset(keys)] = total
        return LiftedMultiHypergraph(
            self.layout,
            [self.layout.edge(k, m) for k, m in fixed.items() if m],
            [BoundedEdge(lbl, inc, lo, up) for (lbl, inc), (lo, up) in bounds.items()],
            [TotalConstraint(keys, t) for keys, t in totals.items()])

    # -- grounding ---------------------------------------------------------

    def count_groundings(self) -> int:
        """Number of groundings, via per-group bounded-composition counting."""
        if self.is_empty:
            return 0
        if self._count is None:
            b = self._bounded_by_key
            self._count = math.prod(
                [b[k].upper - b[k].lower + 1 for k in b if k not in self._group_of]
                + [_count_compositions([(b[k].lower, b[k].upper)
                                        for k in sorted(c.edge_keys)], c.total)
                   for c in self.constraints])
        return self._count

    def _iter_assignments(self) -> Iterator[dict[EdgeKey, int]]:
        b = self._bounded_by_key
        choices = [[((k, v),) for v in range(b[k].lower, b[k].upper + 1)]
                   for k in sorted(set(b) - set(self._group_of))]
        for c in self.constraints:
            keys = sorted(c.edge_keys)
            choices.append([tuple(zip(keys, comp)) for comp in _compositions(
                [(b[k].lower, b[k].upper) for k in keys], c.total)])
        for parts in itertools.product(*choices):
            yield dict(itertools.chain.from_iterable(parts))

    def _ground(self, assignment: Mapping[EdgeKey, int]) -> MultiHypergraph:
        edges = [*self.fixed_edges,
                 *(self.layout.edge(k, v) for k, v in assignment.items() if v)]
        return MultiHypergraph(self.layout, edges)

    def iter_groundings(self) -> Iterator[MultiHypergraph]:
        """Every grounding; raises EnumerationLimitError beyond MAX_GROUNDINGS."""
        if self.is_empty:
            return
        n = self.count_groundings()
        if n > MAX_GROUNDINGS:
            raise EnumerationLimitError(n, MAX_GROUNDINGS)
        for assignment in self._iter_assignments():
            yield self._ground(assignment)

    def groundings(self) -> list[MultiHypergraph]:
        """All groundings, sorted by canonical form.

        Assignments are pairwise distinct by construction; no isomorphism
        collapse is applied here (see the belief expansion for merging).
        """
        out = list(self.iter_groundings())
        out.sort(key=lambda g: g.canonical_form().data)
        return out

    def canonical_form(self) -> CanonicalForm:
        if self._canonical is None:
            if self.is_empty:
                self._canonical = CanonicalForm(b"\x00empty")
            else:
                self._canonical = _canon_lifted(self)
        return self._canonical

    def __repr__(self):
        if self.is_empty:
            return "LiftedMultiHypergraph(empty)"
        return (f"LiftedMultiHypergraph({len(self.vertices)} vertices, "
                f"{len(self.fixed_edges)} fixed, {len(self.bounded_edges)} bounded, "
                f"{len(self.constraints)} constraints)")


# A ground state offers the same read interface as a lifted one.
State = Union[MultiHypergraph, LiftedMultiHypergraph]


def _count_compositions(bounds: list[tuple[int, int]], total: int) -> int:
    ways = {0: 1}
    for lo, up in bounds:
        new: dict[int, int] = {}
        for s, w in ways.items():
            for v in range(lo, min(up, total - s) + 1):
                new[s + v] = new.get(s + v, 0) + w
        ways = new
    return ways.get(total, 0)


def _compositions(bounds: list[tuple[int, int]], total: int
                  ) -> Iterator[tuple[int, ...]]:
    """All tuples within the given bounds summing to total, ascending order."""
    suffix_lo = [0] * (len(bounds) + 1)
    suffix_up = [0] * (len(bounds) + 1)
    for i in range(len(bounds) - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + bounds[i][0]
        suffix_up[i] = suffix_up[i + 1] + bounds[i][1]

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(bounds):
            if remaining == 0:
                yield prefix
            return
        lo, up = bounds[i]
        lo = max(lo, remaining - suffix_up[i + 1])
        up = min(up, remaining - suffix_lo[i + 1])
        for v in range(lo, up + 1):
            yield from rec(i + 1, remaining - v, prefix + (v,))

    yield from rec(0, total, ())
