"""Measure a workload's elasticity: how its time follows the machine's speed.

    python3 perfbench/calibrate.py bookshelf_install --seconds 180

Runs whole passes of one workload at one seed.  Each pass is timed by a
``SpeedClock`` with exponent 1, so its reference time over its wall time
is the mean kernel speed while it ran.  The workload's time scales with
speed ** -elasticity, so the elasticity is minus the least-squares slope of
log(pass wall time) against log(speed).  A fit is only as good as the range
of speeds it met, which is printed with it; a host that stayed at one speed
throughout gives no usable slope.
"""

import argparse
import math
import statistics
from functools import partial

import run
from speed import SpeedClock


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=180.0)
    args = parser.parse_args()
    run.import_library()
    from workloads import WORKLOADS
    r = run.Run(WORKLOADS[args.workload], partial(SpeedClock, 1.0))
    ops, _ = r.setup(args.seed)
    passes = r.passes(ops, args.seconds)
    if r.failed:
        raise SystemExit(f"{r.failed} operations failed")
    wall = [run.pass_time(p, wall=True) for p in passes]
    speed = [run.pass_time(p) / w for p, w in zip(passes, wall)]
    x, y = [math.log(s) for s in speed], [math.log(w) for w in wall]
    slope, _ = statistics.linear_regression(x, y)
    print(f"{args.workload}: {len(passes)} passes, speed {min(speed):.3f} to "
          f"{max(speed):.3f}, correlation {statistics.correlation(x, y):.3f}, "
          f"elasticity {-slope:.3f}")


if __name__ == "__main__":
    main()
