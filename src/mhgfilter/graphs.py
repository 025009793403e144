"""Ground multi-hypergraph states.

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
lifted states too; a ground state is checked as one without bounded edges.

Rules change edges only, never vertices.  So a :class:`VertexLayout` is
built once, from the initial vertex list, and every state derived from it
shares it: matching and canonical forms compile what depends on the
vertices alone once per layout, which is exact for all of those states.
The layout also interns edges: each (key, multiplicity) is built,
validated and checked against the vertices once, and every state over the
layout holds that one :class:`Hyperedge` object.  The conservation
declaration belongs to the layout too: :func:`index_vertices` makes it,
once, and every state over the layout is checked against it.
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


@dataclass(frozen=True, order=True)
class Hyperedge:
    """A labelled hyperedge over a multiset of vertex ids.

    The incidence is a multiset: the same vertex id may appear repeatedly and
    the stored tuple is kept sorted, so two edges with the same label and the
    same id multiset compare equal regardless of construction order.
    """

    label: Label
    incidence: tuple[str, ...]
    multiplicity: int = 1
    key: EdgeKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.label:
            raise StructuralError("edge label must be non-empty")
        if not self.incidence:
            raise StructuralError(f"edge {self.label!r}: incidence must be non-empty")
        object.__setattr__(self, "incidence", tuple(sorted(self.incidence)))
        object.__setattr__(self, "key", (self.label, self.incidence))
        if self.multiplicity < 1:
            raise StructuralError(f"edge {self.label!r}: multiplicity must be >= 1")


def edge_key(label: Label, incidence: Iterable[str]) -> EdgeKey:
    return (label, tuple(sorted(incidence)))


@dataclass(frozen=True, eq=False)
class VertexLayout:
    """Sorted vertices, their id index, the conservation declaration and the
    forms compiled from them: rules' keyed by ``id(rule)``, each holding its
    rule so the id stays taken, and canonical forms' keyed by their compile
    function.

    ``conserved`` maps each conserved vertex's id to its multiplicity, in
    vertex order; it is empty when either label set is.  ``edges`` interns
    the layout's edges by (key, multiplicity); an edge is in it only once
    its incidence has been checked against the vertices, which never change.
    """

    vertices: tuple[Vertex, ...]
    by_id: dict[str, Vertex]
    conservation_labels: frozenset[Label] = frozenset()
    conserved_vertex_labels: frozenset[Label] = frozenset()
    conserved: dict[str, int] = field(init=False)
    compiled: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)

    def __post_init__(self):
        conserved = self.conserved_vertex_labels if self.conservation_labels else ()
        object.__setattr__(self, "conserved", {
            v.id: v.multiplicity for v in self.vertices if v.label in conserved})

    def edge(self, key: EdgeKey, multiplicity: int) -> Hyperedge:
        """The layout's edge with this key and multiplicity, built on first
        request."""
        e = self.edges.get((key, multiplicity))
        return e if e is not None else self.intern(Hyperedge(*key, multiplicity))

    def intern(self, e: Hyperedge) -> Hyperedge:
        """The layout's edge equal to ``e``; ``e`` itself, once its incidence
        is checked, when the layout has none yet."""
        k = (e.key, e.multiplicity)
        got = self.edges.get(k)
        if got is None:
            check_incidence(e.label, e.incidence, self.by_id)
            got = self.edges[k] = e
        return got


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
    for vid in incidence:
        if vid not in by_id:
            raise StructuralError(f"edge {label!r} references unknown vertex {vid!r}")


def check_conservation(layout: VertexLayout, fixed_edges: Iterable[Hyperedge],
                       bounded_edges=(), constraints=()) -> None:
    """Raise IntegrityError unless every conserved vertex of the layout has
    a conserved sum equal to its multiplicity in every grounding.

    One pass over the edges.  Fixed edges and ungrouped bounded edges add
    their multiplicity (lower and upper bound) once per incidence; a
    constraint group adds the exact minimum and maximum of its conserved sum
    over the assignments that meet its total.  A ground state passes its
    edges as ``fixed_edges`` and nothing else.
    """
    if not layout.conserved:
        return
    conservation_labels = layout.conservation_labels
    lo = dict.fromkeys(layout.conserved, 0)
    up = dict(lo)
    for e in fixed_edges:
        if e.label in conservation_labels:
            for vid in e.incidence:
                if vid in lo:
                    lo[vid] += e.multiplicity
                    up[vid] += e.multiplicity
    group_of = {k: i for i, c in enumerate(constraints) for k in c.edge_keys}
    # group index -> vertex id -> edge key -> incidence count
    coefs: dict[int, dict[str, dict[EdgeKey, int]]] = {}
    for b in bounded_edges:
        if b.label not in conservation_labels:
            continue
        for vid in b.incidence:
            if vid not in lo:
                continue
            i = group_of.get(b.key)
            if i is None:
                lo[vid] += b.lower
                up[vid] += b.upper
            else:
                per_key = coefs.setdefault(i, {}).setdefault(vid, {})
                per_key[b.key] = per_key.get(b.key, 0) + 1
    if coefs:
        bounds = {b.key: (b.lower, b.upper) for b in bounded_edges}
        for i, c in enumerate(constraints):
            for vid, per_key in coefs.get(i, {}).items():
                members = [(*bounds[k], per_key.get(k, 0)) for k in c.edge_keys]
                mn, mx = _group_coef_range(members, c.total)
                lo[vid] += mn
                up[vid] += mx
    for vid, m in layout.conserved.items():
        if not lo[vid] == up[vid] == m:
            raise IntegrityError(
                f"vertex {vid!r} ({layout.by_id[vid].label}): conserved "
                f"multiplicity sum ranges over [{lo[vid]}, {up[vid]}] across "
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


class MultiHypergraph:
    """Immutable validated multi-hypergraph.

    Equality and hashing are structural (same ids, labels, multiplicities;
    equality also asks for the same conservation declaration); compare
    canonical forms for identity up to renaming.

    A ground state reads like a lifted state without bounded edges: it
    offers ``fixed_edges``, empty ``bounded_edges`` and ``constraints``,
    ``is_empty`` and :meth:`multiplicity_bounds`, so matching and
    conditioning take one code path for both.
    """

    __slots__ = ("layout", "vertices", "edges", "_mult", "_canonical")

    bounded_edges: tuple = ()
    constraints: tuple = ()
    is_empty = False

    def __init__(self, vertices: Iterable[Vertex] | VertexLayout,
                 edges: Iterable[Hyperedge] = ()):
        layout = index_vertices(vertices)
        by_key: dict[EdgeKey, Hyperedge] = {}
        for e in edges:
            e = layout.intern(e)
            same = by_key.get(e.key)
            if same is not None:
                e = layout.edge(e.key, same.multiplicity + e.multiplicity)
            by_key[e.key] = e

        self.layout = layout
        self.vertices = layout.vertices
        self.edges = tuple(e for _, e in sorted(by_key.items()))
        self._mult = {k: e.multiplicity for k, e in by_key.items()}
        self._canonical = None
        check_conservation(layout, self.edges)

    # -- queries -----------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        return self.layout.by_id[vid]

    def has_vertex(self, vid: str) -> bool:
        return vid in self.layout.by_id

    def edge_multiplicity(self, label: Label, incidence: Iterable[str]) -> int:
        return self._mult.get(edge_key(label, incidence), 0)

    def multiplicity_bounds(self, key: EdgeKey) -> tuple[int, int]:
        """(lower, upper) multiplicity of an edge key; equal on a ground state."""
        m = self._mult.get(key, 0)
        return m, m

    @property
    def fixed_edges(self) -> tuple[Hyperedge, ...]:
        return self.edges

    def edge_dict(self) -> dict[EdgeKey, int]:
        return dict(self._mult)

    def replace_edges(self, mults: Mapping[EdgeKey, int]) -> "MultiHypergraph":
        """New graph with the given edge keys' multiplicities replaced (zeroes
        dropped) and the edges of every other key kept as they are.

        Keys are named as :func:`edge_key` builds them.  Vertices are never
        created or destroyed by this operation.
        """
        edges = [e for e in self.edges if e.key not in mults]
        edges += [self.layout.edge(k, m) for k, m in mults.items() if m > 0]
        return MultiHypergraph(self.layout, edges)

    def canonical_form(self):
        from .canon import canonical_form
        if self._canonical is None:
            self._canonical = canonical_form(self)
        return self._canonical

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiHypergraph):
            return NotImplemented
        a, b = self.layout, other.layout
        return (self.vertices == other.vertices and self.edges == other.edges
                and a.conservation_labels == b.conservation_labels
                and a.conserved_vertex_labels == b.conserved_vertex_labels)

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return (f"MultiHypergraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")

