"""Outside-in tracing of the library's layers.

The tracer wraps public callables at the sites where their callers look
them up (``mhgfilter.filtering.lifted_apply`` rather than
``mhgfilter.rewrite.lifted_apply``, class attributes for methods and
constructors), records one span per call, and restores every original on
exit.  Nothing inside ``src/`` is changed.

Spans live in memory as ``[name, parent, start, end, self_s, attr]`` lists,
in the order they were opened.  Calls are synchronous and single-threaded,
so spans nest: a span's self time is its duration minus the time its direct
children cover.  Generator spans (``iter_groundings``) are active only while
the generator body runs between yields; their duration is that active time,
and the consumer's work between yields belongs to the consumer's span.
"""

from __future__ import annotations

from time import perf_counter

import mhgfilter.canon
import mhgfilter.filtering
import mhgfilter.lifted
import mhgfilter.oracle
import mhgfilter.rewrite
from mhgfilter import GroundBelief, LiftedMultiHypergraph, MultiHypergraph

NAME, PARENT, START, END, SELF, ATTR = range(6)


def _rule_name(args, kwargs):
    return (args[0] if args else kwargs["rule"]).name


def _particles(result, args, kwargs):
    return len(result.particles)


def _observed_use(result, args, kwargs):
    """(observed action, particles whose rule is that action, particles)."""
    annotation = args[1] if len(args) > 1 else kwargs["annotation"]
    joint = args[2] if len(args) > 2 else kwargs["joint"]
    used = sum(p.rule.name == annotation.action for p in joint.particles)
    return annotation.action, used, len(joint.particles)


def _ground_peak(result, args, kwargs):
    return max(len(b) for b in result.beliefs)


# (owner, attribute, span name, kind, attribute taken before / after the call)
# Kinds: "call" for functions, constructors and methods, "gen" for generator
# methods, "classmethod" for classmethods.
SITES = (
    (mhgfilter.canon, "canonical_form", "canon.ground", "call", None, None),
    (mhgfilter.lifted, "_canon_lifted", "canon.lifted", "call", None, None),
    (MultiHypergraph, "canonical_form", "canon.method", "call", None, None),
    (LiftedMultiHypergraph, "canonical_form", "canon.method", "call", None, None),
    (LiftedMultiHypergraph, "__init__", "lifted.construct", "call", None, None),
    (LiftedMultiHypergraph, "iter_groundings", "lifted.iter_groundings", "gen",
     None, None),
    (MultiHypergraph, "__init__", "graphs.construct", "call", None, None),
    (mhgfilter.filtering, "lifted_apply", "rewrite.lifted_apply", "call",
     _rule_name, None),
    (mhgfilter.rewrite, "ground_options", "rewrite.ground", "call", None, None),
    (mhgfilter.rewrite, "apply", "rewrite.ground", "call", None, None),
    (mhgfilter.oracle, "successors", "rewrite.ground", "call", None, None),
    (mhgfilter.filtering, "predict", "filtering.predict", "call", None, _particles),
    (mhgfilter.filtering, "update", "filtering.update", "call", None, _observed_use),
    (mhgfilter.oracle, "ground_filter_trace", "oracle.ground_filter", "call",
     None, _ground_peak),
    (mhgfilter.oracle, "expand", "oracle.expand", "call", None, None),
    (GroundBelief, "from_belief", "oracle.expand", "classmethod", None, None),
)


class Tracer:
    """Context manager that wraps every site in ``SITES`` while active.

    A site that is no longer there is listed in ``missing``; the benchmark
    counts it as a failure, since its layer metrics would silently read zero.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[list] = []   # [span index, child time]
        self._saved: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------

    def _open(self, name, attr):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, 0.0, attr])
        return len(self.spans) - 1

    def _enter(self, index):
        self._stack.append([index, 0.0])
        return perf_counter()

    def _leave(self, since):
        """Close the innermost active interval."""
        now = perf_counter()
        index, child = self._stack.pop()
        active = now - since
        span = self.spans[index]
        span[SELF] += active - child
        span[END] = now
        if self._stack:
            self._stack[-1][1] += active

    # -- wrappers --------------------------------------------------------------

    def _wrap_call(self, fn, name, before, after):
        def traced(*args, **kwargs):
            index = self._open(name, before(args, kwargs) if before else None)
            since = self._enter(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(since)
            if after:
                self.spans[index][ATTR] = after(result, args, kwargs)
            return result
        return traced

    def _wrap_gen(self, fn, name):
        # ATTR counts the items yielded.
        def traced(*args, **kwargs):
            index = self._open(name, 0)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    since = self._enter(index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._leave(since)
                    self.spans[index][ATTR] += 1
                    yield item
            finally:
                inner.close()
        return traced

    # -- installation ------------------------------------------------------------

    def __enter__(self):
        for owner, attr, name, kind, before, after in SITES:
            raw = owner.__dict__.get(attr)
            if raw is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            if kind == "gen":
                wrapped = self._wrap_gen(raw, name)
            elif kind == "classmethod":
                wrapped = classmethod(self._wrap_call(raw.__func__, name, before, after))
            else:
                wrapped = self._wrap_call(raw, name, before, after)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        children.setdefault(s[PARENT], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def self_s(name):
        return sum(spans[i][SELF] for i in named(name))

    def attrs(name):
        """Attributes of the spans of ``name`` whose call returned."""
        return [spans[i][ATTR] for i in named(name) if spans[i][ATTR] is not None]

    def parent_is(i, name):
        p = spans[i][PARENT]
        return p >= 0 and spans[p][NAME] == name

    def duration(i):
        return spans[i][END] - spans[i][START]

    enumerations = named("lifted.iter_groundings")
    computed = {spans[i][PARENT] for n in ("canon.ground", "canon.lifted")
                for i in named(n)}
    methods = named("canon.method")
    applies = named("rewrite.lifted_apply")
    fallbacks = [i for i in applies
                 if any(spans[c][NAME] == "lifted.iter_groundings"
                        for c in children.get(i, ()))]

    # pair each predict with the update that follows it
    useful = from_predict = 0
    step_s_max = 0.0
    pending = None
    for i, s in enumerate(spans):
        if s[NAME] == "filtering.predict":
            pending = i
        elif s[NAME] == "filtering.update" and pending is not None:
            if s[ATTR] is None:      # the update raised
                pending = None
                continue
            action = s[ATTR][0]
            rules = [spans[c][ATTR] for c in children.get(pending, ())
                     if spans[c][NAME] == "rewrite.lifted_apply"]
            from_predict += len(rules)
            useful += sum(r == action for r in rules)
            step_s_max = max(step_s_max, duration(pending) + duration(i))
            pending = None

    used = sum(a[1] for a in attrs("filtering.update"))
    offered = sum(a[2] for a in attrs("filtering.update"))
    expand_roots = [i for i in named("oracle.expand")
                    if not parent_is(i, "oracle.expand")]

    return {
        "canon.ground_calls": len(named("canon.ground")),
        "canon.ground_s": self_s("canon.ground"),
        "canon.lifted_calls": len(named("canon.lifted")),
        "canon.lifted_s": self_s("canon.lifted"),
        "canon.hit_ratio": (1 - len(computed.intersection(methods)) / len(methods)
                            if methods else 0.0),
        "lifted.construct_calls": len(named("lifted.construct")),
        "lifted.construct_s": self_s("lifted.construct"),
        "lifted.groundings": sum(spans[i][ATTR] for i in enumerations),
        "lifted.enumerate_s": self_s("lifted.iter_groundings"),
        "graphs.construct_calls": len(named("graphs.construct")),
        "graphs.construct_s": self_s("graphs.construct"),
        "rewrite.lifted_apply_calls": len(applies),
        "rewrite.lifted_apply_s": self_s("rewrite.lifted_apply"),
        "rewrite.lifted_apply_useful_ratio": (useful / from_predict
                                              if from_predict else 0.0),
        "rewrite.fallbacks": len(fallbacks),
        "rewrite.fallback_groundings": sum(
            spans[i][ATTR] for i in enumerations if parent_is(i, "rewrite.lifted_apply")),
        "rewrite.ground_s": self_s("rewrite.ground"),
        "filtering.predict_s": self_s("filtering.predict"),
        "filtering.update_s": self_s("filtering.update"),
        "filtering.particles": sum(attrs("filtering.predict")),
        "filtering.particle_use_ratio": used / offered if offered else 0.0,
        "filtering.splits": sum(parent_is(i, "filtering.predict") for i in enumerations),
        "filtering.split_groundings": sum(
            spans[i][ATTR] for i in enumerations if parent_is(i, "filtering.predict")),
        "filtering.condition_enumerations": sum(
            parent_is(i, "filtering.update") for i in enumerations),
        "filtering.step_s_max": step_s_max,
        "oracle.ground_filter_s": sum(duration(i) for i in named("oracle.ground_filter")),
        "oracle.expand_s": sum(duration(i) for i in expand_roots),
        "oracle.ground_states_peak": max(attrs("oracle.ground_filter"), default=0),
    }
