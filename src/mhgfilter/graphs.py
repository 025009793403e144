"""Vertices, edge keys, vertex layouts and conservation checking.

A state is a set of labelled vertices and labelled hyperedges, both carrying
positive integer multiplicities.  A vertex of multiplicity k stands for k
indistinguishable entities of that label; an edge of multiplicity k stands
for k parallel relation instances over the same incidence multiset.

Conservation: a domain declares a set of edge labels (``conservation_labels``)
and a set of vertex labels (``conserved_vertex_labels``).  For every vertex
whose label participates, the multiplicities of incident conserved edges
(counting repeated incidence) must sum exactly to the vertex multiplicity,
i.e. every one of the k entities is accounted for by exactly one conserved
relation instance.  Non-participating vertices (locations, the agent, static
fixtures) are unconstrained.

The construction checks here (vertex index, incidence, conservation) serve
every state in ``lifted.py``, a ground state being one without bounded
edges.  Conservation reads a state's bounds map (key -> (lower, upper))
and group index (key -> (key set, total)) as they are.  A state derived
from a checked one is checked locally: both maps, its own and its
source's, at its changed keys only (:func:`check_conservation`), and
incidence at the keys new to it (:func:`check_incidence`).

Rules change edges only, never vertices.  So a :class:`VertexLayout` is
built once, from the initial vertex list, and every state derived from it
shares it: matching and canonical forms compile what depends on the
vertices alone once per layout, which is exact for all of those states.
The conservation declaration belongs to the layout too:
:func:`index_vertices` makes it, once, and every state over the layout is
checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import IntegrityError, StructuralError

Label = str
EdgeKey = tuple[Label, tuple[str, ...]]


@dataclass(frozen=True, order=True)
class Vertex:
    id: str
    label: Label
    multiplicity: int = 1

    def __post_init__(self):
        if not self.id:
            raise StructuralError("vertex id must be non-empty")
        if not self.label:
            raise StructuralError(f"vertex {self.id!r}: label must be non-empty")
        if self.multiplicity < 1:
            raise StructuralError(f"vertex {self.id!r}: multiplicity must be >= 1")


def edge_key(label: Label, incidence: Iterable[str]) -> EdgeKey:
    """An edge's key: its label and sorted incidence, whatever the id order."""
    return (label, tuple(sorted(incidence)))


@dataclass(frozen=True, eq=False)
class VertexLayout:
    """Sorted vertices, their id index, the conservation declaration and the
    forms compiled from them: rules' keyed by ``id(rule)``, each holding its
    rule so the id stays taken, and canonical forms' keyed by their compile
    function.  ``compiled`` also keeps what is memoised for the layout's
    lifetime: one dict per distinct state content, under both maps frozen,
    so it holds maps, never a state (see ``lifted``), and the ground
    reference's applicable rules per domain.

    ``conserved`` maps each conserved vertex's id to its multiplicity, in
    vertex order; it is empty when either label set is.
    """

    vertices: tuple[Vertex, ...]
    by_id: dict[str, Vertex]
    conservation_labels: frozenset[Label] = frozenset()
    conserved_vertex_labels: frozenset[Label] = frozenset()
    conserved: dict[str, int] = field(init=False)
    compiled: dict = field(default_factory=dict)

    def __post_init__(self):
        conserved = self.conserved_vertex_labels if self.conservation_labels else ()
        object.__setattr__(self, "conserved", {
            v.id: v.multiplicity for v in self.vertices if v.label in conserved})


def index_vertices(vertices: Iterable[Vertex] | VertexLayout,
                   conservation_labels: Iterable[Label] = (),
                   conserved_vertex_labels: Iterable[Label] = ()) -> VertexLayout:
    """The layout of a vertex list (sorted, indexed by id; raises on a
    duplicate id) under the given conservation declaration, or the given
    layout itself, which keeps its own declaration: declaring again raises."""
    if isinstance(vertices, VertexLayout):
        if conservation_labels or conserved_vertex_labels:
            raise StructuralError("a vertex layout's conservation is declared "
                                  "once, when the layout is made")
        return vertices
    verts = tuple(sorted(vertices))
    by_id: dict[str, Vertex] = {}
    for v in verts:
        if v.id in by_id:
            raise StructuralError(f"duplicate vertex id {v.id!r}")
        by_id[v.id] = v
    return VertexLayout(verts, by_id, frozenset(conservation_labels),
                        frozenset(conserved_vertex_labels))


def check_incidence(label: Label, incidence: Iterable[str],
                    by_id: Mapping[str, Vertex]) -> None:
    """Raise StructuralError on an empty label or incidence or unknown vertex."""
    if not label or not incidence:
        raise StructuralError(f"edge {label!r}: label and incidence must be non-empty")
    for vid in incidence:
        if vid not in by_id:
            raise StructuralError(f"edge {label!r} references unknown vertex {vid!r}")


def conserved_sums(layout: VertexLayout, bounds: Mapping[EdgeKey, tuple[int, int]],
                   group_of: Mapping, keys: Iterable[EdgeKey]) -> dict[str, list[int]]:
    """[least, greatest] conserved sum, over a state's groundings, of the
    parts that hold ``keys``, at each conserved vertex they touch.

    ``bounds`` maps an edge key to (lower, upper), lower = upper for a fixed
    edge, and ``group_of`` maps a grouped key to its group, (key set,
    total).  A key on its own adds its multiplicity once per incidence; a
    group, read once whichever of its keys come up, must be feasible, and
    adds the exact minimum and maximum of its conserved sum over the
    assignments that meet its total.  Where every member touches a vertex
    c times, as slot edges do, both are c * total, since sum(c * x) =
    c * sum(x); else :func:`_group_coef_range`.
    """
    labels, conserved = layout.conservation_labels, layout.conserved
    sums: dict[str, list[int]] = {}
    groups = {}     # key set -> total, each group of ``keys`` once
    for key in keys:
        group = group_of.get(key)
        if group is not None:
            groups[group[0]] = group[1]
        elif key[0] in labels and key in bounds:
            lo, up = bounds[key]
            for vid in key[1]:
                if vid in conserved:
                    s = sums.setdefault(vid, [0, 0])
                    s[0] += lo
                    s[1] += up
    for members, total in groups.items():
        members = list(members)
        coefs: dict[str, list[int]] = {}    # vertex id -> incidences per member
        for i, (label, incidence) in enumerate(members):
            if label in labels:
                for vid in incidence:
                    if vid in conserved:
                        coefs.setdefault(vid, [0] * len(members))[i] += 1
        for vid, coef in coefs.items():
            if coef.count(coef[0]) == len(coef):
                mn = mx = coef[0] * total
            else:
                mn, mx = _group_coef_range(
                    [(*bounds[k], c) for k, c in zip(members, coef)], total)
            s = sums.setdefault(vid, [0, 0])
            s[0] += mn
            s[1] += mx
    return sums


def check_conservation(layout: VertexLayout, bounds: Mapping[EdgeKey, tuple[int, int]],
                       group_of: Mapping, keys: Iterable[EdgeKey] | None = None,
                       replaced: tuple | None = None) -> None:
    """Raise IntegrityError unless every conserved vertex of the layout has
    a conserved sum equal to its multiplicity in every grounding.

    ``bounds`` and ``group_of`` are a state's maps, as :func:`conserved_sums`
    reads them, over all their keys by default.  With ``replaced`` the
    check is local: the state is derived from a conserving one whose maps
    are ``replaced`` = (bounds, group_of), and ``keys`` holds every key at
    which they differ.  Every part of a conserving state adds a constant
    to each conserved vertex, so the derived state's sum is the vertex
    multiplicity less the replaced parts plus the new ones, both read over
    ``keys``, and only a vertex that these touch can fail.  Either way the
    first failing vertex, in vertex order, is reported with its full range.
    """
    if not layout.conserved:
        return
    if keys is None:
        keys = bounds
    sums = conserved_sums(layout, bounds, group_of, keys)
    if replaced is None:
        before: dict[str, list[int]] = {}
        vids = layout.conserved
    else:
        before = conserved_sums(layout, *replaced, keys)
        vids = sorted(sums.keys() | before.keys())   # vertices sort by id
    for vid in vids:
        m = layout.conserved[vid]
        lo, up = sums.get(vid, (0, 0))
        if replaced is not None:
            rest = m - before.get(vid, (0, 0))[0]
            lo, up = lo + rest, up + rest
        if not lo == up == m:
            raise IntegrityError(
                f"vertex {vid!r} ({layout.by_id[vid].label}): conserved "
                f"multiplicity sum ranges over [{lo}, {up}] across "
                f"groundings, expected exactly {m}")


def _group_coef_range(members: list[tuple[int, int, int]], total: int
                      ) -> tuple[int, int]:
    """Min/max of sum(coef*x) over assignments with sum(x)=total within bounds.

    Greedy is exact: the objective is linear over an integral transportation
    polytope, so extremes fill slack in coefficient order.
    """
    base = sum(lo for lo, _, _ in members)
    surplus = total - base

    def extreme(order: list[tuple[int, int, int]]) -> int:
        val = sum(lo * c for lo, _, c in members)
        left = surplus
        for lo, up, c in order:
            add = min(left, up - lo)
            val += add * c
            left -= add
        return val

    asc = sorted(members, key=lambda m: m[2])
    return extreme(asc), extreme(asc[::-1])
