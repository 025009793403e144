"""The benchmark's four workloads and their correctness gates.

A workload builds a domain and a list of operations from the benchmark
seed, and runs one operation at a time.  Every operation is checked by a
gate that reads only representation-independent outputs (ground counts,
log likelihoods, the oracle comparison), so a later change of the belief
representation still passes it.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from typing import Callable

import mhgfilter.filtering
from mhgfilter import builtin_domain, compare, filter_trace, generate_trace

import inputs

TOLERANCE = 1e-9
INSTALL_TRACES = 4      # bookshelf_install traces per pass, 30 steps each
MINI_SEEDS = 20         # mini_compare trace seeds per pass, times two policies
MINI_STEPS = 20


@dataclass
class Op:
    """One filtering operation and the values its gate checks."""

    label: str
    trace: list
    ground_counts: list[int] | None = None   # per prefix, index 0 is the prior
    reference_ll: float | None = None


@dataclass
class Outcome:
    op_s: float                 # timed region of the operation, reference seconds
    lifted_s: float             # of which the lifted filter_trace
    wall_s: float               # op_s as plain wall time
    steps: int
    belief_sizes: list[int] = field(default_factory=list)   # per posterior
    problems: list[str] = field(default_factory=list)


def counted(trace, action: str, n: int) -> list[int]:
    """C(n, k) for every prefix, k the number of ``action`` steps in it."""
    out, k = [1], 0
    for a in trace:
        k += a.action == action
        out.append(math.comb(n, k))
    return out


def gate_filter(op: Op, result) -> list[str]:
    problems = []
    counts = [s.ground_count for s in result.stats]
    if op.ground_counts is not None and counts != op.ground_counts:
        problems.append(f"ground counts {counts} != expected {op.ground_counts}")
    if op.reference_ll is not None and not (
            abs(result.log_likelihood - op.reference_ll) <= TOLERANCE):
        problems.append(f"log likelihood {result.log_likelihood!r} != "
                        f"reference {op.reference_ll!r}")
    return problems


def timed(clock, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with its (wall, reference) seconds on ``clock``."""
    wall0, ref0 = clock.now()
    result = fn(*args, **kwargs)
    wall1, ref1 = clock.now()
    return result, wall1 - wall0, ref1 - ref0


def run_filter(domain, op: Op, clock) -> Outcome:
    result, wall, ref = timed(clock, filter_trace, domain, op.trace)
    return Outcome(ref, ref, wall, len(op.trace),
                   [len(b) for b in result.beliefs[1:]], gate_filter(op, result))


def run_compare(domain, op: Op, clock) -> Outcome:
    """``compare`` against the ground reference, timing its lifted filter.

    The lifted ``filter_trace`` that ``compare`` runs is timed by a probe at
    its binding site in ``mhgfilter.filtering``, so the pass runs the lifted
    filter once, as a user's ``compare`` does.
    """
    lifted = []
    original = mhgfilter.filtering.filter_trace

    def probe(*args, **kwargs):
        result, _, ref = timed(clock, original, *args, **kwargs)
        lifted.append((ref, result))
        return result

    mhgfilter.filtering.filter_trace = probe
    try:
        report, wall, ref = timed(clock, compare, domain, op.trace,
                                  tolerance=TOLERANCE)
    finally:
        mhgfilter.filtering.filter_trace = original
    if len(lifted) != 1:
        return Outcome(ref, ref, wall, len(op.trace), [],
                       [f"compare ran the lifted filter {len(lifted)} times, not once"])
    lifted_s, result = lifted[0]
    problems = []
    if report.divergent:
        problems.append(f"divergent: max TV {report.max_tv!r}, log likelihood "
                        f"gap {report.log_likelihood_gap!r}")
    problems += gate_filter(Op(op.label, op.trace,
                               reference_ll=report.log_likelihood_ground), result)
    return Outcome(ref, lifted_s, wall, len(op.trace),
                   [len(b) for b in result.beliefs[1:]], problems)


def run_gated(run, domain, op: Op, clock) -> Outcome:
    """Run one operation; an exception counts as a failed operation."""
    try:
        return run(domain, op, clock)
    except Exception:
        return Outcome(0.0, 0.0, 0.0, len(op.trace), [],
                       ["raised:\n" + traceback.format_exc()])


# -- op builders -----------------------------------------------------------------

# The bookshelf has 14 eccentric slots and 13 pairs of adjacent boards.

def install_ops(domain, seed: int) -> list[Op]:
    return [Op(f"install trace {i}", t, counted(t, "installEccentric", 14),
               inputs.replay_log_likelihood(domain, t))
            for i, t in enumerate(inputs.install_traces(domain, seed, INSTALL_TRACES))]


def connect_ops(domain, seed: int) -> list[Op]:
    t = inputs.connect_trace(domain, seed)
    return [Op(f"connect seed {seed}", t, counted(t, "connectBoards", 13),
               inputs.replay_log_likelihood(domain, t))]


def mini_ops(domain, seed: int) -> list[Op]:
    ops = []
    for s in range(seed * MINI_SEEDS, (seed + 1) * MINI_SEEDS):
        for policy in ("uniform", "install_heavy"):
            trace, _ = generate_trace(domain, seed=s, length=MINI_STEPS, policy=policy)
            ops.append(Op(f"mini seed {s} {policy}", trace))
    return ops


def symmetric_ops(domain, seed: int) -> list[Op]:
    t = inputs.symmetric_trace(domain, seed)
    return [Op(f"symmetric seed {seed}", t,
               counted(t, "installEccentric", inputs.SYMMETRIC_SLOTS),
               inputs.replay_log_likelihood(domain, t))]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in README.md and BENCHMARK.json."""

    name: str
    make_domain: Callable[[], object]
    make_ops: Callable[[object, int], list[Op]]
    run: Callable[[object, Op, object], Outcome]


WORKLOADS = {w.name: w for w in (
    Workload("bookshelf_install", lambda: builtin_domain("bookshelf"),
             install_ops, run_filter),
    Workload("bookshelf_connect", lambda: builtin_domain("bookshelf"),
             connect_ops, run_filter),
    Workload("mini_compare", lambda: builtin_domain("mini"),
             mini_ops, run_compare),
    Workload("symmetric_slots", inputs.symmetric_slots_domain,
             symmetric_ops, run_filter),
)}
