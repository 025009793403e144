"""mhgfilter benchmark: filtering workloads timed end to end, or traced by layer.

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload bookshelf_install --seed 3 --seconds 20 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it, each workload runs in its own process, one after another, and a
table of every metric is printed.  See README.md for what each metric means.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedClock, WallClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
WARMUP_STEPS = 3

END_TO_END = {
    "steps_per_s": ("steps/s", "higher"),
    "workload_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "lifted_states_peak": ("count", "lower"),
}

PER_LAYER = {
    "canon.ground_calls": ("count", "lower"),
    "canon.ground_s": ("s", "lower"),
    "canon.lifted_calls": ("count", "lower"),
    "canon.lifted_s": ("s", "lower"),
    "canon.hit_ratio": ("ratio", "higher"),
    "lifted.construct_calls": ("count", "lower"),
    "lifted.construct_s": ("s", "lower"),
    "lifted.groundings": ("count", "lower"),
    "lifted.enumerate_s": ("s", "lower"),
    "graphs.construct_calls": ("count", "lower"),
    "graphs.construct_s": ("s", "lower"),
    "rewrite.lifted_apply_calls": ("count", "lower"),
    "rewrite.lifted_apply_s": ("s", "lower"),
    "rewrite.lifted_apply_useful_ratio": ("ratio", "higher"),
    "rewrite.fallbacks": ("count", "lower"),
    "rewrite.fallback_groundings": ("count", "lower"),
    "rewrite.ground_s": ("s", "lower"),
    "filtering.predict_s": ("s", "lower"),
    "filtering.update_s": ("s", "lower"),
    "filtering.particles": ("count", "lower"),
    "filtering.particle_use_ratio": ("ratio", "higher"),
    "filtering.splits": ("count", "lower"),
    "filtering.split_groundings": ("count", "lower"),
    "filtering.condition_enumerations": ("count", "lower"),
    "filtering.belief_entries_mean": ("count", "lower"),
    "filtering.step_s_max": ("s", "lower"),
    "oracle.ground_filter_s": ("s", "lower"),
    "oracle.expand_s": ("s", "lower"),
    "oracle.ground_states_peak": ("count", "lower"),
    "domain.build_s": ("s", "lower"),
    "domain.trace_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def import_library():
    """Put this checkout's ``src`` first on the path; the library is never
    taken from anywhere else."""
    if not (SRC / "mhgfilter" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC}; run from a checkout "
                 f"of the repository")
    sys.path.insert(0, str(SRC))
    import mhgfilter  # noqa: F401


class Run:
    """Operations attempted and failed over one benchmark run.

    Timed regions are read from clocks that ``clock()`` makes: reference
    seconds (``SpeedClock``) for the end-to-end metrics, plain wall time
    (``WallClock``) for traced runs.
    """

    def __init__(self, workload, clock):
        self.workload = workload
        self.clock = clock
        self.attempted = 0
        self.failed = 0

    def run_ops(self, domain, ops, clock):
        from workloads import run_gated
        outcomes = []
        for op in ops:
            outcome = run_gated(self.workload.run, domain, op, clock)
            self.attempted += 1
            if outcome.problems:
                self.failed += 1
                print(f"FAILED {self.workload.name} / {op.label}: "
                      + "; ".join(outcome.problems), file=sys.stderr)
            outcomes.append(outcome)
        return outcomes

    def check(self, ok, message):
        """Count a check of the run as a whole as one more operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {self.workload.name}: {message}", file=sys.stderr)

    def setup(self, seed):
        """Build domain and inputs, then warm up, ``SETUP_REPEATS`` times.

        Returns the inputs and, per repeat, the seconds spent on the domain,
        the inputs and the warm-up."""
        from workloads import Op
        reps = []
        for _ in range(SETUP_REPEATS):
            with self.clock() as clock:
                domain = self.workload.make_domain()
                t1 = clock.now()[1]
                ops = self.workload.make_ops(domain, seed)
                t2 = clock.now()[1]
                first = ops[0]
                counts = first.ground_counts
                self.run_ops(domain, [Op(first.label + " warm-up",
                                         first.trace[:WARMUP_STEPS],
                                         counts[:WARMUP_STEPS + 1] if counts else None)],
                             clock)
                t3 = clock.now()[1]
            reps.append((t1, t2 - t1, t3 - t2))
        return ops, reps

    def passes(self, ops, seconds):
        """Whole passes over ``ops`` until ``seconds`` have gone by, at least
        one.  Each pass runs on a freshly built domain, so nothing the library
        keeps on domain objects carries over from one pass to the next."""
        out = []
        end = perf_counter() + seconds
        while not out or perf_counter() < end:
            domain = self.workload.make_domain()
            with self.clock() as clock:
                out.append(self.run_ops(domain, ops, clock))
        return out


def pass_time(outcomes, wall=False):
    return sum(o.wall_s if wall else o.op_s for o in outcomes)


def end_to_end(run, seed, seconds, import_s):
    ops, reps = run.setup(seed)
    setup_s = import_s + statistics.median(sum(r) for r in reps)
    passes = run.passes(ops, seconds)
    # a pass whose operations all raised has no filter time to divide by
    rates = [sum(o.steps for o in p) / sum(o.lifted_s for o in p)
             for p in passes if sum(o.lifted_s for o in p) > 0]
    wall = statistics.median(pass_time(p, wall=True) for p in passes)
    print(f"{run.workload.name}: {len(passes)} passes, median pass "
          f"{wall:.3f} s wall", file=sys.stderr)
    return {
        "steps_per_s": statistics.median(rates) if rates else 0.0,
        "workload_s": statistics.median(pass_time(p) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "lifted_states_peak": max(max(o.belief_sizes, default=0)
                                  for p in passes for o in p),
    }


def per_layer(run, seed, seconds):
    from tracer import Tracer, layer_metrics
    ops, reps = run.setup(seed)
    untraced = run.passes(ops, seconds / 2)
    traced, layers, spans, missing = [], [], [], set()
    end = perf_counter() + seconds / 2
    while len(traced) < 2 or perf_counter() < end:
        domain = run.workload.make_domain()
        with Tracer() as tracer, run.clock() as clock:
            traced.append(run.run_ops(domain, ops, clock))
        layers.append(layer_metrics(tracer.spans))
        spans.append(tracer.spans)
        missing.update(tracer.missing)
    run.check(not missing, "the tracer found no " + ", ".join(sorted(missing))
              + "; their layer metrics would read zero")
    times = [k for k in layers[0] if PER_LAYER[k][0] == "s"]
    counts = [{k: v for k, v in m.items() if k not in times} for m in layers]
    run.check(all(c == counts[0] for c in counts),
              "per-layer counts differ between traced passes")
    metrics = dict(counts[0])
    for key in times:
        metrics[key] = statistics.median(m[key] for m in layers)
    sizes = [n for o in traced[0] for n in o.belief_sizes]
    metrics["filtering.belief_entries_mean"] = statistics.fmean(sizes) if sizes else 0.0
    metrics["domain.build_s"] = statistics.median(r[0] for r in reps)
    metrics["domain.trace_s"] = statistics.median(r[1] for r in reps)
    metrics["trace.overhead_ratio"] = (
        statistics.median(pass_time(p) for p in traced)
        / statistics.median(pass_time(p) for p in untraced))
    write_spans(run.workload.name, seed, spans)
    return metrics


def write_spans(workload, seed, passes):
    """Write every traced pass's spans, one tab-separated line per span."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans_{workload}_seed{seed}.tsv"
    with open(path, "w") as f:
        f.write("pass\tindex\tparent\tname\tstart\tend\tself_s\tattr\n")
        for k, spans in enumerate(passes):
            for i, (name, parent, start, end, self_s, attr) in enumerate(spans):
                f.write(f"{k}\t{i}\t{parent}\t{name}\t{start!r}\t{end!r}\t"
                        f"{self_s!r}\t{'' if attr is None else attr}\n")


def run_one(name, seed, seconds, trace, import_s):
    from workloads import WORKLOADS
    run = Run(WORKLOADS[name], WallClock if trace else SpeedClock)
    values = (per_layer(run, seed, seconds) if trace
              else end_to_end(run, seed, seconds, import_s))
    units = PER_LAYER if trace else END_TO_END
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": values[k], "unit": units[k][0]} for k in units}}


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after another; prints a table."""
    from workloads import WORKLOADS
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        rows = dict(result["metrics"])
        rows["failed_ratio"] = {"value": result["failed"] / result["attempted"],
                                "unit": "ratio"}
        for key, m in rows.items():
            print(f"  {key:36s} {m['value']:>14.6g} {m['unit']}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    with SpeedClock() as clock:
        import_library()
        from workloads import WORKLOADS
        import_s = clock.now()[1]
    if args.workload == "all":
        return 0 if run_all(args.seed, args.seconds, args.trace) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace,
                             import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
