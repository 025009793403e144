"""Property: the constructor's conservation check agrees with enumeration."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from mhgfilter import IntegrityError, Vertex, index_vertices  # noqa: E402
from mhgfilter.graphs import conserved_sums as group_sums  # noqa: E402
from oracles import lifted_state  # noqa: E402

CONSERVED_EDGES = frozenset({"at"})
CONSERVED_VERTICES = frozenset({"item"})


@st.composite
def lifted_parts(draw):
    """Vertex ids and labels, fixed multiplicities, at most four bounded
    intervals and at most one constraint group over them."""
    ids = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    labels = [draw(st.sampled_from(["item", "place"])) for _ in ids]
    incidence = st.lists(st.sampled_from(ids), min_size=1, max_size=2).map(
        lambda xs: tuple(sorted(xs)))
    edge_label = st.sampled_from(["at", "near"])
    fixed = Counter()
    for label, inc, m in draw(st.lists(st.tuples(edge_label, incidence,
                                                 st.integers(1, 2)), max_size=3)):
        fixed[label, inc] += m
    bounded: dict = {}
    for label, inc, lower, width in draw(st.lists(
            st.tuples(edge_label, incidence, st.integers(0, 2), st.integers(0, 2)),
            max_size=4)):
        bounded.setdefault((label, inc), (lower, lower + width))
    keys = list(bounded)
    members = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    groups = []
    if members:
        lo = sum(bounded[k][0] for k in members)
        up = sum(bounded[k][1] for k in members)
        # one past either end of the feasible range gives an empty state
        groups.append((members, draw(st.integers(max(lo - 1, 0), up + 1))))
    return ids, labels, fixed, bounded, groups


def conserved_sums(g, ids):
    return {vid: sum(m * inc.count(vid)
                     for (label, inc), m in g.edge_dict().items()
                     if label in CONSERVED_EDGES)
            for vid in ids}


@seed(0)
@settings(max_examples=400, derandomize=True, deadline=None)
@given(lifted_parts(), st.integers(-1, 1))
def test_conservation_check_matches_enumeration(parts, skew):
    ids, labels, fixed, bounded, groups = parts

    def build(mults, conservation=((), ())):
        vertices = [Vertex(vid, label, m) for vid, label, m in zip(ids, labels, mults)]
        return lifted_state(index_vertices(vertices, *conservation),
                            fixed, bounded, groups)

    grounds = list(build([1] * len(ids)).iter_groundings())
    # multiplicities read off one grounding (the first vertex skewed), so that
    # both conserving and violating states come up often
    sums = conserved_sums(grounds[0], ids) if grounds else {}
    mults = [max(1, sums.get(vid, 0) + (skew if i == 0 else 0))
             for i, vid in enumerate(ids)]
    violated = any(
        conserved_sums(g, ids)[vid] != m
        for g in grounds
        for vid, label, m in zip(ids, labels, mults) if label in CONSERVED_VERTICES)
    conservation = (CONSERVED_EDGES, CONSERVED_VERTICES)
    if violated:
        with pytest.raises(IntegrityError):
            build(mults, conservation)
    else:
        build(mults, conservation)


@st.composite
def one_group(draw):
    """1-5 members over 1-3 conserved items and one place that is not
    conserved, labelled ``at`` (conserved) or ``near`` (not), so that a
    member touches an item 0, 1 or 2 times; and a feasible total."""
    items = [f"c{i}" for i in range(draw(st.integers(1, 3)))]
    incidence = st.lists(st.sampled_from(items + ["p"]), min_size=1,
                         max_size=2).map(lambda xs: tuple(sorted(xs)))
    members = draw(st.lists(
        st.tuples(st.tuples(st.sampled_from(["at", "near"]), incidence),
                  st.integers(0, 2), st.integers(0, 2)),
        min_size=1, max_size=5, unique_by=lambda m: m[0]))
    members = [(key, lo, lo + width) for key, lo, width in members]
    total = draw(st.integers(sum(m[1] for m in members),
                             sum(m[2] for m in members)))
    return items, members, total


@seed(0)
@settings(max_examples=300, derandomize=True, deadline=None)
@given(one_group())
def test_group_sums_equal_enumeration(group):
    """Each conserved vertex's [least, greatest] sum over one group equals
    the brute-force extremes of sum(coef * x) over the assignments that
    meet the group's total, whether the members touch it equally or not."""
    items, members, total = group
    layout = index_vertices([Vertex(v, "item") for v in items]
                            + [Vertex("p", "place")], CONSERVED_EDGES,
                            CONSERVED_VERTICES)
    coefs = {v: [inc.count(v) if label in CONSERVED_EDGES else 0
                 for (label, inc), _, _ in members] for v in items}
    sums = {v: [sum(c * x for c, x in zip(coef, xs))
                for xs in itertools.product(*(range(lo, up + 1)
                                              for _, lo, up in members))
                if sum(xs) == total]
            for v, coef in coefs.items() if any(coef)}
    bounds = {key: (lo, up) for key, lo, up in members}
    group = (frozenset(bounds), total)
    assert group_sums(layout, bounds, dict.fromkeys(bounds, group), bounds) == {
        v: [min(s), max(s)] for v, s in sums.items()}
