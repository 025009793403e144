"""One sha256 over everything the filter concludes on the benchmark's inputs.

Usage::

    python3 tests/belief_digest.py --seed N [WORKLOAD ...]
    python3 tests/belief_digest.py --seed N --ground

Builds the named workloads' operations (every workload by default) from
``perfbench/workloads.py`` at the given seed and filters each trace with
this checkout's library.  The digest covers, per operation, each belief
entry's canonical bytes and the ``repr`` of its weight, every
``StepStats``, the log likelihood and the warnings, and, for workloads that
compare against the ground reference, the ``compare`` report.  Two
checkouts that print the same digest computed bit-identical posteriors on
these inputs.

``--ground`` prints instead the digest of the ground oracle on the
``mini_compare`` operations: each ``ground_filter_trace`` belief entry's
ground canonical bytes and the ``repr`` of its weight.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_paths() -> None:
    for path in (str(ROOT / "perfbench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def digest(seed: int, names: list[str] | None = None) -> str:
    _import_paths()
    from mhgfilter import compare, filter_trace
    from workloads import WORKLOADS, run_compare

    h = hashlib.sha256()
    for name in sorted(names or WORKLOADS):
        workload = WORKLOADS[name]
        domain = workload.make_domain()
        for op in workload.make_ops(domain, seed):
            h.update(f"{name}/{op.label}".encode())
            result = filter_trace(domain, op.trace)
            for belief in result.beliefs:
                h.update(b"belief")
                for state, w in belief:
                    h.update(state.canonical_form().data)
                    h.update(repr(w).encode())
            for stats in result.stats:
                h.update(repr(stats).encode())
            h.update(repr((result.log_likelihood, result.warnings)).encode())
            if workload.run is run_compare:
                h.update(repr(compare(domain, op.trace)).encode())
    return h.hexdigest()


def ground_digest(seed: int) -> str:
    _import_paths()
    from mhgfilter import ground_filter_trace
    from workloads import WORKLOADS

    workload = WORKLOADS["mini_compare"]
    domain = workload.make_domain()
    h = hashlib.sha256()
    for op in workload.make_ops(domain, seed):
        h.update(op.label.encode())
        for belief in ground_filter_trace(domain, op.trace).beliefs:
            h.update(b"belief")
            for g, w in belief:
                h.update(g.canonical_form().data)
                h.update(repr(w).encode())
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ground", action="store_true",
                        help="digest the ground oracle on mini_compare instead")
    parser.add_argument("workloads", nargs="*", help="workload names (default: all)")
    args = parser.parse_args(argv)
    if args.ground and args.workloads:
        parser.error("--ground takes no workload names")
    _import_paths()
    from workloads import WORKLOADS
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"known: {', '.join(sorted(WORKLOADS))}")
    print(ground_digest(args.seed) if args.ground else digest(args.seed, args.workloads))


if __name__ == "__main__":
    main()
