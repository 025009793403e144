"""One sha256 over everything the filter concludes on the benchmark's inputs.

Usage::

    python3 tests/belief_digest.py --seed N [WORKLOAD ...]
    python3 tests/belief_digest.py --seed N --ground
    python3 tests/belief_digest.py --all

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

``--all`` prints the five digests that ROADMAP.md pins, one labelled line
each (``PINNED``): every workload at seeds 0 and 1, the ground oracle at
seeds 0 and 1, and ``mini_compare`` alone at seed 0.  It takes no seed,
no workload names and no ``--ground``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, seed, ground, workload names), as ``--all`` prints them
PINNED = (("seed 0", 0, False, None), ("seed 1", 1, False, None),
          ("ground seed 0", 0, True, None), ("ground seed 1", 1, True, None),
          ("seed 0 mini_compare", 0, False, ["mini_compare"]))


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
    parser.add_argument("--seed", type=int, default=None, help="default 0")
    parser.add_argument("--ground", action="store_true",
                        help="digest the ground oracle on mini_compare instead")
    parser.add_argument("--all", action="store_true",
                        help="print the five pinned digests, one labelled line each")
    parser.add_argument("workloads", nargs="*", help="workload names (default: all)")
    args = parser.parse_args(argv)
    if args.all:
        if args.workloads or args.ground or args.seed is not None:
            parser.error("--all takes no seed, workload names or --ground")
        for label, seed, ground, names in PINNED:
            print(f"{label}: {ground_digest(seed) if ground else digest(seed, names)}",
                  flush=True)
        return
    if args.ground and args.workloads:
        parser.error("--ground takes no workload names")
    seed = 0 if args.seed is None else args.seed
    _import_paths()
    from workloads import WORKLOADS
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"known: {', '.join(sorted(WORKLOADS))}")
    print(ground_digest(seed) if args.ground else digest(seed, args.workloads))


if __name__ == "__main__":
    main()
