"""Canonical byte forms for ground and lifted states.

The canonical form of a state is a versioned byte string that is identical
for two states exactly when they are isomorphic (a label- and
multiplicity-preserving vertex bijection mapping one edge structure onto the
other).  It is computed by iterative colour refinement over vertex signatures
with backtracking individualisation on ties; the returned bytes are the
minimum serialisation over all leaves of the search tree.  Subtrees that an
automorphism found during the search maps onto searched ones are pruned,
and a leaf with the best bytes sends the search back to the node where its
path parts from the best leaf's (McKay and Piperno, "Practical graph
isomorphism, II", 2014); the skipped subtrees hold only leaves with the
same bytes, so the result is still the minimum over every leaf of the
unpruned tree.  After an individualisation, and in every round after the
first, refinement recomputes only the cells with a vertex that shares an
edge with a fragment of a cell that just split, leaving out one fragment
per split cell (Junttila and Kaski, ALENEX 2007); every other cell provably
keeps its rows, so each round gives the colours of recomputing every row.
Searches of several leaves log their size at debug level on the
``mhgfilter`` logger and warn at ``WARN_LEAVES``.

Byte layout (all integers fixed-width big-endian):

* version tag byte: ``0x01`` ground, ``0x02`` lifted
* ``u32`` vertex count, then per vertex a ``u32`` length-prefixed record:
  ``u16`` label length, label UTF-8, ``u64`` multiplicity
* ``u32`` edge count, then per edge a ``u32`` length-prefixed record:
  ``u16`` label length, label UTF-8, ``u32`` arity, arity x ``u32`` canonical
  vertex index (ascending), ``u64`` multiplicity
* lifted forms append a bounded-edge section (as edges but with ``u64`` lower
  and ``u64`` upper instead of multiplicity) and a constraint section:
  ``u64`` total, ``u32`` group size, then ascending ``u32`` indices into the
  bounded-edge record list

Records within each section appear in ascending bytewise order.  Pinned
variants use the reserved tag ``0xFE``/``0xFF`` and additionally encode the
pin index of each vertex; two pin assignments give equal bytes iff an
automorphism maps one onto the other.  No library code calls them, and they
never stand in for canonical forms.

``merged`` merges weighted states by canonical form for every layer
(beliefs, rule successors, the ground oracle).  A form has two jobs there:
it lets isomorphic states merge, and it puts the merged states in a fixed
order.  Fewer than two states have nothing to merge and only one order, so
``merged`` returns them as they are and computes no form; forms are lazy
and cached, so a form is computed only where two states meet.

The vertex index and records are compiled once per vertex layout, and each
edge key's index incidence, record head and occurrence pairs once per key
within it: they depend on the vertices alone, which all states sharing the
layout have in common, so the bytes are those of a fresh build.

When a layout's vertex records are pairwise distinct, the initial colouring
is discrete: it is the only leaf, and refinement leaves it unchanged.  A
record is a length-prefixed label plus a fixed-width multiplicity, so no
record is a proper prefix of another, and the pin or constraint-profile
bytes appended to it never reorder two vertices.  So the rank of a vertex's
record is its canonical position in every ground or lifted state of the
layout, pinned or not, and every edge record is fixed by its key and its
bounds alone.  The layout caches the vertex section once and each edge's
whole record, with its length prefix, once per (key, bounds) it is seen
with; a form is then one lookup per edge, and its sections are only sorted
and joined by the same serialiser as a search leaf, bytes unchanged.  Only
layouts with a repeated record run the search.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from struct import pack
from typing import Callable, Iterable, Mapping, NamedTuple, TypeVar

__all__ = ["CanonicalForm", "canonical_form", "canonical_form_lifted",
           "pinned_form", "pinned_form_lifted", "merged"]

logger = logging.getLogger("mhgfilter")
WARN_LEAVES = 1000      # a search this wide warns: it may be factorial


@dataclass(frozen=True, order=True)
class CanonicalForm:
    data: bytes

    def digest(self, length: int = 12) -> str:
        """Short stable hex digest for logs and reports."""
        return hashlib.sha256(self.data).hexdigest()[:length]

    def __repr__(self):
        return f"CanonicalForm({self.digest()})"


def _label_rec(label: str) -> bytes:
    raw = label.encode("utf-8")
    return pack(">H", len(raw)) + raw


class _Structure:
    """Prepared view of a state for the refinement search.

    Per edge, ``descs`` holds a totally ordered hashable summary of it apart
    from its incidence, which takes part in vertex signatures, and
    ``occurrences`` its distinct vertex indices with their occurrence counts.
    """

    def __init__(self, n: int, init_keys: list[bytes], descs: list[tuple],
                 occurrences: list[tuple[tuple[int, int], ...]],
                 serialize: Callable[[list[int]], bytes]):
        self.n = n
        self.init_keys = init_keys
        self.descs = descs
        self.occurrences = occurrences
        self.serialize = serialize
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for ei, pairs in enumerate(occurrences):
            for vi, occ in pairs:
                self.incident[vi].append((ei, occ))


def _ranked(keys) -> list[int]:
    palette = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [palette[k] for k in keys]


def _colour_profile(colors: list[int], pairs) -> tuple:
    """Sorted (colour, occurrences) pairs of one edge's incidence."""
    if len(pairs) == 1:
        (v, occ), = pairs
        return ((colors[v], occ),)
    if len(pairs) == 2:
        (a, oa), (b, ob) = pairs
        ca, cb = colors[a], colors[b]
        if ca == cb:
            return ((ca, oa + ob),)
        return ((ca, oa), (cb, ob)) if ca < cb else ((cb, ob), (ca, oa))
    count: Counter[int] = Counter()
    for v, occ in pairs:
        count[colors[v]] += occ
    return tuple(sorted(count.items()))


def _refine(st: _Structure, colors: list[int],
            touched: Iterable[int] | None = None) -> list[int]:
    """Refine the dense colour ranks ``colors`` until no cell splits.

    A round ranks each vertex by its colour, then its sorted row of incident
    edge summaries and colour profiles.  ``touched`` holds the vertices of
    every fragment but one of each cell that split just before this call,
    on a colouring that was stable before that split (``None`` at the root:
    every cell is recomputed in the first round).

    A row can change order only through a vertex of a touched fragment.  Map
    each colour of the previous round to its unsplit cell's new colour, or
    to the colour of its skipped fragment: the map is strictly increasing,
    and every edge that reaches no touched vertex changes its profile by it.
    So a cell none of whose vertices shares an edge with a touched vertex
    had equal rows and keeps them, and does not split.  Only the other cells
    are recomputed, every cell keeps its order, and colours are renumbered
    by prefix sums: the colours of every round are those of recomputing
    every row.
    """
    descs, incident, occurrences = st.descs, st.incident, st.occurrences
    while True:
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        if touched is None:
            dirty = {c for c, cell in enumerate(cells) if len(cell) > 1}
        else:
            dirty = {colors[w] for u in touched for e, _ in incident[u]
                     for w, _ in occurrences[e]}
            dirty = {c for c in dirty if len(cells[c]) > 1}
        eco: dict[int, tuple] = {}
        splits: dict[int, list[list[int]]] = {}
        for c in dirty:
            rows: dict[tuple, list[int]] = {}
            for v in cells[c]:
                row = []
                for e, occ in incident[v]:
                    if e not in eco:
                        eco[e] = _colour_profile(colors, occurrences[e])
                    row.append((descs[e], occ, eco[e]))
                row.sort()
                rows.setdefault(tuple(row), []).append(v)
            if len(rows) > 1:
                splits[c] = [rows[r] for r in sorted(rows)]
        if not splits:
            return colors
        new = [0] * st.n
        rank = 0
        for c, cell in enumerate(cells):
            for fragment in splits.get(c, (cell,)):
                for v in fragment:
                    new[v] = rank
                rank += 1
        touched = []
        for fragments in splits.values():
            skipped = max(fragments, key=len)
            for fragment in fragments:
                if fragment is not skipped:
                    touched.extend(fragment)
        colors = new


def _individualize(st: _Structure, colors: list[int], v: int) -> list[int]:
    """Give ``v`` a colour of its own just before the rest of its cell, on a
    stable colouring, and refine."""
    cv = colors[v]
    split = [c + (c > cv or (c == cv and u != v)) for u, c in enumerate(colors)]
    return _refine(st, split, (v,))


def _canonical_bytes(st: _Structure) -> bytes:
    """Minimum serialisation over the leaves of the individualisation tree.

    The bytes encode the whole relabelled state, so two leaves with equal
    bytes give an automorphism: the vertex at position ``k`` of one maps to
    the vertex at position ``k`` of the other.  An automorphism that fixes a
    node's individualised vertices maps the node onto itself and the subtree
    of one child onto the subtree of its image, leaf bytes included.  Of the
    target-cell children in one orbit of those automorphisms only the first
    is searched, so the minimum over the unpruned tree is unchanged.

    A leaf's colouring determines its path: the vertex individualised at a
    node has the least leaf colour of that node's target cell.  So the
    automorphism from the best leaf to a leaf with equal bytes maps the best
    leaf's path onto the current one: it fixes the prefix they share and maps
    the best leaf's child of the node where they part onto the current
    child.  That child's subtree, already entered, holds only images of the
    searched subtree of the best leaf's child, so the search jumps back to
    the node where the paths part.
    """
    best: bytes | None = None
    best_colors: list[int] = []
    best_prefix: tuple[int, ...] = ()
    autos: list[list[int]] = []
    leaves = 0
    jump = -1   # depth the search returns to, while it unwinds from a leaf

    def rec(colors: list[int], prefix: tuple[int, ...]) -> None:
        nonlocal best, best_colors, best_prefix, leaves, jump
        counts = Counter(colors)
        target = min((c for c, k in counts.items() if k > 1), default=None)
        if target is None:
            leaves += 1
            if leaves == WARN_LEAVES:
                logger.warning("canonical search: %d vertices, %d leaves; refinement "
                               "cannot separate interchangeable constraint groups",
                               st.n, leaves)
            b = st.serialize(colors)
            if best is None or b < best:
                best, best_colors, best_prefix = b, colors, prefix
            elif b == best:
                # at a leaf a colour is a canonical position
                pos = [0] * st.n
                for v, c in enumerate(best_colors):
                    pos[c] = v
                autos.append([pos[c] for c in colors])
                jump = next(d for d, (u, w) in enumerate(zip(prefix, best_prefix))
                            if u != w)
            return
        cell = [v for v in range(st.n) if colors[v] == target]
        orbit = {v: v for v in cell}   # union-find over the cell

        def find(v: int) -> int:
            while orbit[v] != v:
                v = orbit[v]
            return v

        folded = 0   # automorphisms already merged into ``orbit``
        searched: list[int] = []
        for v in cell:
            for gamma in autos[folded:]:
                if all(gamma[p] == p for p in prefix):
                    for u in cell:
                        orbit[find(u)] = find(gamma[u])
            folded = len(autos)
            if any(find(v) == find(u) for u in searched):
                continue
            searched.append(v)
            rec(_individualize(st, colors, v), prefix + (v,))
            if jump >= 0:
                if jump < len(prefix):
                    return
                jump = -1

    rec(_refine(st, _ranked(st.init_keys)), ())
    # ``rec`` refers to itself; dropping it frees the structure now rather
    # than at the next cyclic garbage collection
    del rec
    assert best is not None
    if leaves > 1:
        logger.debug("canonical search: %d vertices, %d leaves, %d automorphisms",
                     st.n, leaves, len(autos))
    return best


class _Records(NamedTuple):
    """What the forms of every state of a layout share, compiled once."""
    index: dict[str, int]           # vertex id -> position in the layout
    vrecs: list[bytes]              # unpinned vertex records
    by_key: dict                    # edge key -> ``_edge_entry``
    rank: list[int] | None          # canonical positions, if records are distinct
    vsection: bytes | None          # their unpinned vertex section
    whole: dict                     # (key, bounds) -> ``_whole``, if ``rank``


def _records(layout) -> _Records:
    compiled = layout.compiled
    if _records not in compiled:
        verts = layout.vertices
        vrecs = [_label_rec(v.label) + pack(">Q", v.multiplicity) for v in verts]
        distinct = len(set(vrecs)) == len(vrecs)
        compiled[_records] = _Records(
            {v.id: i for i, v in enumerate(verts)}, vrecs, {},
            _ranked(vrecs) if distinct else None,
            _section(sorted(map(_prefixed, vrecs))) if distinct else None, {})
    return compiled[_records]


def _edge_entry(records: _Records, key) -> tuple:
    """An edge key's index incidence, record head and occurrence pairs."""
    if key not in records.by_key:
        inc = tuple(records.index[x] for x in key[1])
        records.by_key[key] = (inc, _label_rec(key[0]) + pack(">I", len(inc)),
                               tuple(Counter(inc).items()))
    return records.by_key[key]


def _whole(records: _Records, item) -> tuple[bytes, bytes]:
    """A bounds-map item's whole record, prefixed, on a layout with
    canonical positions, where it is the same in every state."""
    key, (lo, up) = item
    inc, head, _ = _edge_entry(records, key)
    rec = _edge_rec(head, [records.rank[j] for j in inc], lo, up)
    records.whole[item] = out = _prefixed(rec)
    return out


def _prefixed(rec: bytes) -> tuple[bytes, bytes]:
    return rec, pack(">I", len(rec)) + rec


def _section(pairs) -> bytes:
    """A section of (record, prefixed record, ...) entries, in the given order."""
    return pack(">I", len(pairs)) + b"".join([p[1] for p in pairs])


def _edge_rec(head: bytes, positions, lo: int, up: int) -> bytes:
    """An edge record: the head, ascending positions, then the multiplicity
    of a fixed edge or the bounds of a bounded one."""
    return (head + b"".join([pack(">I", k) for k in sorted(positions)])
            + (pack(">Q", lo) if lo == up else pack(">QQ", lo, up)))


def _pinned(vrecs: list[bytes], state, pins: Mapping[str, int]) -> list[bytes]:
    # 0 means unpinned, so stored pin indices are shifted up by one
    return [rec + pack(">I", pins[v.id] + 1 if v.id in pins else 0)
            for rec, v in zip(vrecs, state.vertices)]


def _serialize(version: int, vsection: bytes, fixed: list[tuple[bytes, bytes]],
               bounded: list[tuple[bytes, bytes, object]]) -> bytes:
    """The form from its vertex section, the fixed edges' (record, prefixed
    record) pairs and the bounded edges' pairs with their constraint group
    (or ``None``), each in any order; lifted layouts (``0x02``, ``0xFF``)
    append the bounded-edge and constraint sections.  Sections are sorted by
    record, not by prefixed record, whose length prefix would reorder them;
    edges with equal records keep their order."""
    out = [bytes([version]), vsection, _section(sorted(fixed))]
    if version in (0x02, 0xFF):
        bounded.sort(key=itemgetter(0))
        out.append(_section(bounded))
        refs: dict = {}
        for r, (_, _, group) in enumerate(bounded):
            if group is not None:
                refs.setdefault(group, []).append(r)
        out.append(_section(sorted(
            _prefixed(pack(">QI", group.total, len(rs))
                      + b"".join([pack(">I", r) for r in rs]))
            for group, rs in refs.items())))
    return b"".join(out)


def _structure(state, pins: Mapping[str, int] | None, version: int) -> _Structure:
    """Refinement view and serialiser of a ground or lifted state.

    Ground layouts (``0x01``, ``0xFE``) serialise the vertex and edge
    sections; lifted layouts (``0x02``, ``0xFF``) append the bounded-edge
    and constraint sections.  A ground state is a lifted state with no
    bounded edges and no constraints.
    """
    records = _records(state.layout)
    vrecs = records.vrecs
    n = len(vrecs)
    edges = list(state.bounds.items())
    recs = [_edge_entry(records, k) for k, _ in edges]
    groups = [state.group_of(k) if lo != up else None for k, (lo, up) in edges]
    descs = [(0, k[0], lo) if lo == up else (1, k[0], lo, up) for k, (lo, up) in edges]
    if pins is not None:
        vrecs = _pinned(vrecs, state, pins)
    init_keys = vrecs
    members: dict = {}
    for (inc, _, _), group in zip(recs, groups):
        if group is not None:
            members.setdefault(group, []).append(inc)
    if members:
        # constraint profile folded into the initial colours (colour-independent)
        profile: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for group, incs in members.items():
            touched: Counter[int] = Counter()
            for inc in incs:
                touched.update(inc)
            for vi, occ in touched.items():
                profile[vi].append((group.total, len(incs), occ))
        init_keys = [rec + b"".join(pack(">QIQ", t, s, o) for t, s, o in sorted(prof))
                     for rec, prof in zip(vrecs, profile)]

    def serialize(colors: list[int]) -> bytes:
        # at a leaf the colouring is discrete: a colour is a canonical position
        order = sorted(range(n), key=colors.__getitem__)
        fixed, bounded = [], []
        for (inc, head, _), (_, (lo, up)), group in zip(recs, edges, groups):
            pair = _prefixed(_edge_rec(head, [colors[j] for j in inc], lo, up))
            if lo == up:
                fixed.append(pair)
            else:
                bounded.append(pair + (group,))
        return _serialize(version, _section([_prefixed(vrecs[i]) for i in order]),
                          fixed, bounded)

    return _Structure(n, init_keys, descs, [occ for _, _, occ in recs], serialize)


def _form(state, pins: Mapping[str, int] | None, version: int) -> bytes:
    records = _records(state.layout)
    if records.rank is None:
        return _canonical_bytes(_structure(state, pins, version))
    # the one leaf: records are prefix-free, so pins do not reorder them
    vsection = (records.vsection if pins is None
                else _section(sorted(map(_prefixed, _pinned(records.vrecs, state, pins)))))
    whole = records.whole
    fixed, bounded = [], []
    for item in state.bounds.items():
        pair = whole.get(item) or _whole(records, item)
        lo, up = item[1]
        if lo == up:
            fixed.append(pair)
        else:
            bounded.append(pair + (state.group_of(item[0]),))
    return _serialize(version, vsection, fixed, bounded)


def canonical_form(g) -> CanonicalForm:
    """Canonical form of a ground multi-hypergraph (layout version 1)."""
    return CanonicalForm(_form(g, None, 0x01))


def pinned_form(g, pins: Mapping[str, int]) -> bytes:
    """Canonical bytes of ``g`` with distinguished (pinned) vertices.

    Two pin assignments yield equal bytes iff some automorphism of ``g`` maps
    one onto the other.
    """
    return _form(g, pins, 0xFE)


def canonical_form_lifted(l) -> CanonicalForm:
    """Canonical form of a lifted multi-hypergraph (layout version 2).

    Equal forms imply identical ground-support distributions.  A constraint
    group is written as its total and its members' bounded-edge positions,
    so its record is fixed by the group's key set alone.
    """
    return CanonicalForm(_form(l, None, 0x02))


def pinned_form_lifted(l, pins: Mapping[str, int]) -> bytes:
    return _form(l, pins, 0xFF)


# -- merging ------------------------------------------------------------------

S = TypeVar("S")
W = TypeVar("W", int, float)


def merged(pairs: Iterable[tuple[S, W]]) -> list[tuple[S, W]]:
    """Merge (state, weight) pairs whose states share a canonical form.

    Each form keeps the first state seen with it, and its weights are summed
    in input order, so float results do not depend on the caller.  The
    merged pairs come in ascending canonical byte order.  Fewer than two
    pairs are returned as they are, and no form is asked for.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        return pairs
    by_form: dict[bytes, tuple[S, W]] = {}
    for state, w in pairs:
        key = state.canonical_form().data
        if key in by_form:
            by_form[key] = (by_form[key][0], by_form[key][1] + w)
        else:
            by_form[key] = (state, w)
    return [v for _, v in sorted(by_form.items())]
