#!/usr/bin/env python3
"""Median wall time of each operation of a perfbench workload, and the operations at each rotation's p50 and p90.

    python scripts/op_times.py --workload sweep --seed 1 --rotations 20

Builds the workload with perfbench's own workloads.build, as perfbench/run.py
does, and runs whole rotations of it in order, each call timed and checked
by perfbench's harness.run_op.  It changes no file under perfbench/: the
CLI files of the roundtrip workload go to a temporary directory.  Prints the
median wall time of every operation label and its failed calls, then for p50
and p90 the labels of the two calls between which each rotation's
percentile interpolates (np.percentile's linear rule over the sorted calls),
with the number of rotations in which each label is one of them.
"""

import argparse
import math
import os
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERCENTILES = (50, 90)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def neighbours(times: list[float], q: float) -> tuple[int, int]:
    """The indices of the two calls whose times np.percentile(times, q) interpolates between."""
    order = sorted(range(len(times)), key=times.__getitem__)
    position = q / 100 * (len(times) - 1)
    return order[math.floor(position)], order[math.ceil(position)]


def summarize(labels: list[str], rotations: list[list[float]]) -> tuple[dict[str, float], dict[int, Counter]]:
    """Each label's median time over all its calls, and per percentile the rotations in which a label sits at it."""
    times: dict[str, list[float]] = {}
    for rotation in rotations:
        for label, seconds in zip(labels, rotation):
            times.setdefault(label, []).append(seconds)
    at = {q: Counter() for q in PERCENTILES}
    for rotation in rotations:
        for q in PERCENTILES:
            at[q].update({labels[i] for i in neighbours(rotation, q)})
    return {label: statistics.median(values) for label, values in times.items()}, at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("direct", "sweep", "roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rotations", type=int, default=20)
    args = parser.parse_args(argv)
    for var in BLAS_ENV:  # one BLAS thread, as perfbench/run.py pins it before numpy loads
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import harness
    import tripencil
    import tripencil.cli  # noqa: F401  (the roundtrip flow drives the CLI in-process)
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.build(tripencil, args.workload, args.seed, Path(workdir))
        labels = [op.label for op in workload.ops]
        harness.run_op(workload.ops[0], workload.limit_s)  # warm-up, not counted
        samples = [[harness.run_op(op, workload.limit_s) for op in workload.ops] for _ in range(args.rotations)]
    medians, at = summarize(labels, [[s.seconds for s in rotation] for rotation in samples])
    failed = Counter(s.label for rotation in samples for s in rotation if s.reason is not None)
    print(f"workload {args.workload}  seed {args.seed}  rotations {args.rotations}  ops per rotation {len(labels)}")
    width = max(map(len, medians))
    print(f"{'label':{width}s}  median ms  failed")
    for label, seconds in sorted(medians.items(), key=lambda item: item[1]):
        print(f"{label:{width}s}  {seconds * 1e3:9.4f}  {failed[label]:6d}")
    for q in PERCENTILES:
        print(f"p{q}: the labels of the two calls it interpolates between, in how many of {args.rotations} rotations")
        for label, count in at[q].most_common():
            print(f"  {label:{width}s}  {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
