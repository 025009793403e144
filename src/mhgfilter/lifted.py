"""Lifted multi-hypergraph states.

A lifted state compactly represents a uniform distribution over a set of
ground states that share their vertices and a fixed edge core but differ in
the multiplicities of *bounded* edges.  Each bounded edge carries an integer
interval [lower, upper]; exact-total constraints tie disjoint groups of
bounded edges, each identified by its key set, to a fixed multiplicity sum.
A grounding picks one value per bounded edge within its bounds such that
every group total holds; the lifted state denotes the uniform distribution
over all such assignments.

A state is built from, and stores, its bounds map, ``bounds`` (edge key ->
(lower, upper), never mutated; a fixed edge has lower = upper), and its
groups, each (key set, total).  The constructor checks them and normalises:

* bounds are tightened to the feasible hull within each constraint group,
* a grouped key whose hull is one value becomes fixed (absent when zero),
* satisfied empty groups are dropped.

Infeasible constraints yield the *empty* lifted state (no groundings, no
parts), which is constructible but rejected wherever a belief requires
non-empty support.  Conservation, declared on the vertex layout, must hold
in every grounding; the constructor verifies that the conserved
multiplicity sum of every participating vertex is constant across the
support and equal to the vertex multiplicity.

A ground state, :class:`MultiHypergraph`, is a lifted state with every
edge fixed and the ground canonical form (``0x01``), built from its edge
dict (key -> multiplicity).  Its derivations stay ground while no key is
bounded; ``from_graph`` re-classes its parts as a plain lifted state, with
the lifted form (``0x02``).

The constructor is the definition.  A state derived from another --
``shifted``, ``conditioned``, ``from_graph`` -- is born normalised instead:
it copies its source's bounds map, changes the keys the step names, and
reuses every other group.  Both arguments for that are exact:

* Tightening.  A group's hull reads only its own members' bounds and total
  (``_normalise``, the one helper the constructor runs over every group).
  A step re-tightens just the group it regroups or conditions on; a group
  whose members and total move by the same shifts is translated, so its
  hull moves with it.
* Conservation.  In a conserving state every part -- a fixed edge, an
  ungrouped bounded edge, a group -- adds a constant to each conserved
  vertex.  So the successor conserves iff, at each conserved vertex that a
  changed part touches, the new parts are constant and the sum less the
  replaced parts plus the new ones is the vertex multiplicity.  Both maps
  are read at the changed keys only, and a failure raises the
  constructor's IntegrityError.

A state's content is its two maps, and ``content_memo`` gives the dict that
every state of a layout with that content shares, where callers memoise what
is a function of the content alone: the lifted plans of ``rewrite`` under a
rule's id, each with its successors' parts, which rebuild a successor and
find its memo by its key (``_parts``, ``_rebuilt``), the canonical forms
under their version byte, ``0x01`` and ``0x02``, since a ground state and
its ``from_graph`` twin share one memo, and the filter's observation
summaries under the value of the schema that made them.  The layout keeps
one memo per content, keyed by both maps frozen.  A memo holds maps, keys,
plans, forms and summaries, never a state or another memo, so it makes no
reference cycle.

Every state built from another (shifted, conditioned, lifted from a graph,
or grounded) keeps its vertex layout, with its conservation declaration
and its compiled forms.  A key's incidence is checked against the
vertices where the key enters a state: the constructor's map, and a key
new to a derived state.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import canon
from .canon import CanonicalForm, canonical_form_lifted as _canon_lifted
from .errors import EnumerationLimitError, StructuralError
from .graphs import (EdgeKey, Label, Vertex, VertexLayout,
                     check_conservation, check_incidence, edge_key, index_vertices)

# Enumerating more groundings than this raises EnumerationLimitError.
MAX_GROUNDINGS = 10 ** 6

__all__ = ["TotalConstraint", "LiftedMultiHypergraph", "MultiHypergraph",
           "MAX_GROUNDINGS"]


class TotalConstraint(NamedTuple):
    """A group, as ``group_of`` reports it: its key set, which identifies
    it within its state since groups are disjoint, and its exact total."""

    edge_keys: frozenset[EdgeKey]
    total: int


class LiftedMultiHypergraph:
    __slots__ = ("layout", "vertices", "is_empty", "bounds", "_group_of",
                 "_canonical", "_count", "_memo")

    def __init__(self, vertices: Iterable[Vertex] | VertexLayout,
                 bounds: Mapping[EdgeKey, tuple[int, int]] = MappingProxyType({}),
                 groups: Iterable[tuple[Iterable[EdgeKey], int]] = ()):
        """The state with these key -> (lower, upper) bounds and (keys, total)
        groups.  Raises StructuralError on an empty label or incidence, an
        unknown vertex, bounds outside 0 <= lower <= upper, a key given twice,
        a negative total, or a group key not in the map or in two groups."""
        layout = index_vertices(vertices)
        own: dict[EdgeKey, tuple[int, int]] = {}
        for k, (lo, up) in bounds.items():
            check_incidence(*k, layout.by_id)
            key = edge_key(*k)
            if not 0 <= lo <= up:
                raise StructuralError(f"edge {key!r}: bad bounds [{lo}, {up}]")
            if key in own:
                raise StructuralError(f"duplicate edge key {key!r}")
            own[key] = (lo, up)

        parts = [(frozenset(edge_key(*k) for k in keys), t) for keys, t in groups]
        grouped: set[EdgeKey] = set()
        for keys, total in parts:
            if total < 0:
                raise StructuralError(f"constraint total {total} is negative")
            for k in keys:
                if k not in own:
                    raise StructuralError(f"constraint references unknown edge {k!r}")
                if k in grouped:
                    raise StructuralError(f"edge {k!r} appears in two constraints")
            grouped |= keys
        for k in [k for k, b in own.items() if b == _ABSENT and k not in grouped]:
            del own[k]

        group_of: dict[EdgeKey, TotalConstraint] = {}
        for keys, total in parts:
            group = _normalise(own, keys, total)
            if group is None:
                self._set(layout, {}, {}, True)
                return
            c = TotalConstraint(*group)
            for k in c.edge_keys:
                group_of[k] = c
        self._set(layout, own, group_of)
        check_conservation(layout, own, group_of)

    def _set(self, layout, bounds, group_of, is_empty=False) -> None:
        self.layout = layout
        self.vertices = layout.vertices
        self.is_empty = is_empty
        self.bounds = bounds          # key -> (lower, upper), never mutated
        self._group_of = group_of     # key -> its TotalConstraint
        self._canonical = None
        self._count = None
        self._memo = None             # this content's dict, see content_memo

    def _groups(self) -> list[TotalConstraint]:
        return sorted(set(self._group_of.values()), key=lambda c: sorted(c.edge_keys))

    def _derive(self, bounds: dict[EdgeKey, tuple[int, int]], keys: set[EdgeKey],
                totals: dict[frozenset[EdgeKey], int],
                step: frozenset[EdgeKey] | None = None) -> "LiftedMultiHypergraph":
        """The state whose bounds map is ``bounds``, which differs from this
        state's at ``keys`` only, and whose groups are this state's with the
        groups ``totals`` names (key set -> total after the change) in place
        of theirs.

        ``step``, a key set of ``totals`` whose keys are all in ``keys``, is
        the one group that is normalised, by the constructor's helper; every
        other group of ``totals`` must have moved rigidly, by a shift of its
        members and the same shift of its total, so it stays tight and keeps
        no fixed member.  Unchanged groups are this state's objects.
        Conservation is checked over the changed parts only, and incidence
        over the keys new to the state.
        """
        layout = self.layout
        group_of = self._group_of
        if totals:
            # a state shares its group index while its groups are the same
            group_of = dict(group_of)
            for gkeys, total in totals.items():
                if gkeys == step:
                    tight = _normalise(bounds, gkeys, total)
                    if tight is None:
                        return self._empty()
                    for k in gkeys:
                        group_of.pop(k, None)
                    gkeys, total = tight
                    if not gkeys:
                        continue
                c = TotalConstraint(gkeys, total)
                for k in gkeys:
                    group_of[k] = c
        old = self.bounds
        changed = {k for k in keys if bounds.get(k) != old.get(k)}
        if layout.conserved:
            check_conservation(layout, bounds, group_of, changed.union(*totals),
                               (old, self._group_of))
        # a ground state's successor stays ground unless a key became bounded
        made = self._made
        for k in changed:
            if k in bounds:
                if k not in old:
                    check_incidence(*k, layout.by_id)
                lo, up = bounds[k]
                if lo < up:
                    made = LiftedMultiHypergraph._made
        return made(layout, bounds, group_of)

    @classmethod
    def _made(cls, *parts) -> "LiftedMultiHypergraph":
        """A state from parts that are normalised and checked already."""
        l = object.__new__(cls)
        l._set(*parts)
        return l

    def _empty(self) -> "LiftedMultiHypergraph":
        """The empty state over this state's layout; it is never ground."""
        return LiftedMultiHypergraph._made(self.layout, {}, {}, True)

    # -- queries -----------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        return self.layout.by_id[vid]

    def has_vertex(self, vid: str) -> bool:
        return vid in self.layout.by_id

    def multiplicity_bounds(self, key: EdgeKey) -> tuple[int, int]:
        """(lower, upper) multiplicity of an edge key across the groundings."""
        return self.bounds.get(key, _ABSENT)

    def group_of(self, key: EdgeKey) -> TotalConstraint | None:
        return self._group_of.get(key)

    # -- content -----------------------------------------------------------

    def content_memo(self) -> dict:
        """The dict that this state shares with every state of its layout
        with the same bounds map and groups, for memoising functions of
        that content: the lifted plans and successor parts of ``rewrite``,
        the canonical forms and the filter's observation summaries.  As
        long-lived as the layout.  Found once per state and kept."""
        if self._memo is None:
            if self.is_empty:   # its maps equal an edgeless state's
                self._memo = {}
            else:
                self._memo = self._memos().setdefault(self._content_key(), {})
        return self._memo

    def _memos(self) -> dict:
        return self.layout.compiled.setdefault(_CONTENT_MEMOS, {})

    def _content_key(self) -> tuple:
        return frozenset(self.bounds.items()), frozenset(self._group_of.values())

    def _parts(self) -> tuple:
        """What ``_rebuilt`` makes this derived state again from: its bounds
        map and group index, shared and never mutated, its grounding count,
        and its content key, None for the empty state.  They hold no state
        and no memo.  Finds the state's content memo."""
        if self.is_empty:
            return {}, {}, 0, None
        key = self._content_key()
        if self._memo is None:
            self._memo = self._memos().setdefault(key, {})
        return self.bounds, self._group_of, self.count_groundings(), key

    def _rebuilt(self, parts: tuple) -> "LiftedMultiHypergraph":
        """The state derived from this one whose ``_parts`` these are, with
        its content memo.  It has this state's class while it has one
        grounding, that is every key fixed, as ``_derive`` chooses: a
        ground state and its lifted twin share one memo."""
        bounds, group_of, count, key = parts
        if key is None:
            return self._empty()
        made = self._made if count == 1 else LiftedMultiHypergraph._made
        l = made(self.layout, bounds, group_of)
        l._count = count
        l._memo = self.layout.compiled[_CONTENT_MEMOS][key]
        return l

    @staticmethod
    def from_graph(g: "MultiHypergraph") -> "LiftedMultiHypergraph":
        """``g``'s parts as a plain lifted state: belief entries merge by
        lifted forms, ground states by ground forms."""
        return LiftedMultiHypergraph._made(g.layout, g.bounds, {})

    def shifted(self, delta: Mapping[EdgeKey, int], group: tuple | None = None
                ) -> "LiftedMultiHypergraph":
        """The state with every grounding's edges moved rigidly.

        A bounded key's interval moves by its delta, and so does its group's
        total; any other key's fixed multiplicity moves by its delta.  Keys
        are read as ``edge_key`` builds them, and the deltas of one key sum.
        ``group = (keys, total)`` makes ``keys`` one group with that total
        after the delta: an existing group's key set keeps its members'
        bounds, and keys absent here join as [0,1] members.  Raises
        StructuralError when a multiplicity would fall below zero, or when
        ``keys`` partly overlap a group.  The empty state stays empty.
        """
        if self.is_empty:
            return self
        net: dict[EdgeKey, int] = {}
        for k, d in delta.items():   # this state's own keys are sorted already
            k = k if k in self.bounds else edge_key(*k)
            net[k] = net.get(k, 0) + d
        bounds = dict(self.bounds)
        totals: dict[frozenset[EdgeKey], int] = {}
        for k, d in net.items():
            lo, up = bounds.get(k, _ABSENT)
            if lo + d < 0:
                raise StructuralError(f"shift takes edge {k!r} below zero")
            c = self._group_of.get(k)
            if c is not None:
                totals[c.edge_keys] = totals.get(c.edge_keys, c.total) + d
            if up + d:
                bounds[k] = (lo + d, up + d)
            else:
                bounds.pop(k, None)
        keys = set(net)
        step = None
        if group is not None:
            step = frozenset(k if k in bounds else edge_key(*k) for k in group[0])
            total = group[1]
            for c in {self._group_of.get(k) for k in step} - {None}:
                if c.edge_keys != step:
                    raise StructuralError(
                        f"group keys {sorted(step)!r} partly overlap a group")
            for k in step:
                lo, up = bounds.get(k, _ABSENT)
                if lo == up:    # a fixed key joins at its value, as a [0,1] member
                    bounds[k] = (lo, lo + 1)
                    total += lo
            totals[step] = total
            keys |= step
        return self._derive(bounds, keys, totals, step)

    def conditioned(self, key: EdgeKey, value: int) -> "LiftedMultiHypergraph":
        """The state of the groundings in which ``key`` has multiplicity
        ``value``: empty when there are none, this state when all are.
        ``key`` is read as ``edge_key`` builds it."""
        key = key if key in self.bounds else edge_key(*key)
        lo, up = self.multiplicity_bounds(key)
        if lo == up == value:
            return self
        if not lo <= value <= up or self.is_empty:
            return self._empty()
        bounds = dict(self.bounds)
        bounds[key] = (value, value)
        c = self._group_of.get(key)
        if c is None:
            if not value:
                del bounds[key]
            return self._derive(bounds, {key}, {})
        return self._derive(bounds, set(c.edge_keys), {c.edge_keys: c.total},
                            c.edge_keys)

    # -- grounding ---------------------------------------------------------

    def count_groundings(self) -> int:
        """Number of groundings: the product of the ungrouped bounded edges'
        widths and each group's count."""
        if self._count is None:
            n = 0 if self.is_empty else 1
            for k, (lo, up) in self.bounds.items():
                if lo < up and k not in self._group_of:
                    n *= up - lo + 1
            for c in set(self._group_of.values()):
                n *= _count_compositions([self.bounds[k] for k in c.edge_keys], c.total)
            self._count = n
        return self._count

    def _iter_assignments(self) -> Iterator[dict[EdgeKey, int]]:
        # sorted key order fixes the order of the groundings, and so the
        # order in which merged weights are summed
        b = self.bounds
        choices = [[((k, v),) for v in range(lo, up + 1)]
                   for k, (lo, up) in sorted(b.items())
                   if lo < up and k not in self._group_of]
        for c in self._groups():
            keys = sorted(c.edge_keys)
            choices.append([tuple(zip(keys, comp)) for comp in _compositions(
                [b[k] for k in keys], c.total)])
        for parts in itertools.product(*choices):
            yield dict(itertools.chain.from_iterable(parts))

    def _ground(self, assignment: Mapping[EdgeKey, int]) -> "MultiHypergraph":
        """The grounding of one assignment to the bounded keys.  The
        constructor, or the local check of the derivation that made this
        state, proved that every grounding conserves: none is checked again."""
        bounds = dict(self.bounds)
        for k, v in assignment.items():
            if v:
                bounds[k] = (v, v)
            else:
                del bounds[k]
        return MultiHypergraph._made(self.layout, bounds, {})

    def iter_groundings(self) -> Iterator["MultiHypergraph"]:
        """Every grounding; raises EnumerationLimitError beyond MAX_GROUNDINGS."""
        if self.is_empty:
            return
        n = self.count_groundings()
        if n > MAX_GROUNDINGS:
            raise EnumerationLimitError(n, MAX_GROUNDINGS)
        for assignment in self._iter_assignments():
            yield self._ground(assignment)

    def groundings(self) -> list["MultiHypergraph"]:
        """All groundings, sorted by canonical form.

        Assignments are pairwise distinct by construction; no isomorphism
        collapse is applied here (see the belief expansion for merging).
        """
        out = list(self.iter_groundings())
        out.sort(key=lambda g: g.canonical_form().data)
        return out

    def canonical_form(self) -> CanonicalForm:
        """The lifted form (``0x02``), kept in the content memo too."""
        if self._canonical is None:
            if self.is_empty:
                self._canonical = CanonicalForm(b"\x00empty")
            else:
                self._canonical = self._shared_form(0x02, _canon_lifted)
        return self._canonical

    def _shared_form(self, version: int, compute) -> CanonicalForm:
        """``compute(self)``, kept in the content memo under ``version``
        once the state holds its memo: a form is a function of the content."""
        memo = self._memo
        if memo is None:
            return compute(self)
        form = memo.get(version)
        if form is None:
            form = memo[version] = compute(self)
        return form

    def __repr__(self):
        if self.is_empty:
            return "LiftedMultiHypergraph(empty)"
        fixed = sum(lo == up for lo, up in self.bounds.values())
        return (f"LiftedMultiHypergraph({len(self.vertices)} vertices, "
                f"{fixed} fixed, {len(self.bounds) - fixed} bounded, "
                f"{len(set(self._group_of.values()))} constraints)")


class MultiHypergraph(LiftedMultiHypergraph):
    """A ground state, built from its edge dict (key -> multiplicity) as
    ``edge_dict`` returns it.  Equality and hashing are structural (same ids,
    labels, multiplicities; equality also asks for the same conservation
    declaration); compare canonical forms for identity up to renaming."""

    __slots__ = ()

    def __init__(self, vertices: Iterable[Vertex] | VertexLayout,
                 edges: Mapping[EdgeKey, int] = MappingProxyType({})):
        super().__init__(vertices, {k: (m, m) for k, m in edges.items()})

    def edge_multiplicity(self, label: Label, incidence: Iterable[str]) -> int:
        return self.bounds.get(edge_key(label, incidence), _ABSENT)[0]

    def edge_dict(self) -> dict[EdgeKey, int]:
        return {k: m for k, (m, _) in self.bounds.items()}

    def canonical_form(self) -> CanonicalForm:
        """The ground form (``0x01``), kept in the content memo too."""
        if self._canonical is None:
            self._canonical = self._shared_form(0x01, canon.canonical_form)
        return self._canonical

    def __eq__(self, other):
        if not isinstance(other, MultiHypergraph):
            return NotImplemented
        a, b = self.layout, other.layout
        return (self.vertices == other.vertices and self.bounds == other.bounds
                and a.conservation_labels == b.conservation_labels
                and a.conserved_vertex_labels == b.conserved_vertex_labels)

    def __hash__(self):
        return hash((self.vertices, frozenset(self.bounds.items())))

    def __repr__(self):
        return f"MultiHypergraph({len(self.vertices)} vertices, {len(self.bounds)} edges)"


_ABSENT = (0, 0)     # the bounds of a key with no edge
_CONTENT_MEMOS = "content memos"     # its key in a layout's ``compiled`` map


def _normalise(bounds: dict[EdgeKey, tuple[int, int]], keys: Iterable[EdgeKey],
               total: int) -> tuple[frozenset[EdgeKey], int] | None:
    """Tighten one group's members in ``bounds`` to the group's feasible
    hull, and take out the members it fixes.

    Returns what is left of the group, (keys, total), or None, with
    ``bounds`` untouched, when no assignment meets the total.  A member
    whose hull is one value leaves the group as a fixed key (absent at
    zero) and takes that value off the total.  One pass is exact: the hull
    of a key is the projection of its group's feasible set, which fixing a
    member does not change, and it reads only the group's own bounds and
    total, so no other group's hull moves.
    """
    lo_sum = up_sum = 0
    for k in keys:
        lo, up = bounds[k]
        lo_sum += lo
        up_sum += up
    if lo_sum > total or up_sum < total:
        return None
    left, fixed = [], 0
    for k in keys:
        lo, up = bounds[k]
        lo, up = max(lo, total - (up_sum - up)), min(up, total - (lo_sum - lo))
        if lo < up:
            bounds[k] = (lo, up)
            left.append(k)
            continue
        fixed += lo
        if lo:
            bounds[k] = (lo, lo)
        else:
            del bounds[k]
    return frozenset(left), total - fixed


def _count_compositions(bounds: list[tuple[int, int]], total: int) -> int:
    """Number of tuples within the bounds summing to total.

    Less their lower bounds, the values sum to t = total - sum(lower).
    When every member has width one, as slot edges do, each adds 0 or 1 and
    the count is C(n, t), the choices of which t members add 1.
    Otherwise ``ways[s]``, in O(n * t), counts the prefixes summing to s: a
    member of width w makes it the sum of the old ``ways[s - w .. s]``, a
    difference of two running sums.
    """
    t = total - sum(lo for lo, _ in bounds)
    if t < 0:
        return 0
    if all(up - lo == 1 for lo, up in bounds):
        return math.comb(len(bounds), t)
    ways = [1] + [0] * t
    for lo, up in bounds:
        w = up - lo
        run = list(itertools.accumulate(ways, initial=0))   # run[s] = sum(ways[:s])
        ways = [run[s + 1] - run[max(0, s - w)] for s in range(t + 1)]
    return ways[t]


def _compositions(bounds: list[tuple[int, int]], total: int
                  ) -> Iterator[tuple[int, ...]]:
    """All tuples within the given bounds summing to total, ascending order."""
    suffix_lo = [0] * (len(bounds) + 1)
    suffix_up = [0] * (len(bounds) + 1)
    for i in range(len(bounds) - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + bounds[i][0]
        suffix_up[i] = suffix_up[i + 1] + bounds[i][1]
    return _compositions_from(bounds, suffix_lo, suffix_up, 0, total, ())


def _compositions_from(bounds, suffix_lo, suffix_up, i: int, remaining: int,
                       prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The compositions that extend ``prefix`` from member ``i``.  Not
    nested: a nested generator holds itself in a closure cell, a cycle."""
    if i == len(bounds):
        if remaining == 0:
            yield prefix
        return
    lo, up = bounds[i]
    lo = max(lo, remaining - suffix_up[i + 1])
    up = min(up, remaining - suffix_lo[i + 1])
    for v in range(lo, up + 1):
        yield from _compositions_from(bounds, suffix_lo, suffix_up, i + 1,
                                      remaining - v, prefix + (v,))
