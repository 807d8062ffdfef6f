#!/usr/bin/env python3
"""Benchmark of tripencil: one seeded workload per run, every output checked.

    python3 perfbench/run.py --workload direct --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
Prints a readable report, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  See perfbench/README.md.
"""

import os

# pin BLAS/OpenMP pools to one thread before numpy loads: the workloads are
# single-threaded closed loops
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# traced runs cover a fixed number of rotations, so computed counts repeat exactly
TRACE_ROTATIONS = {"direct": 1, "sweep": 40, "roundtrip": 1}


def environment(numpy, scipy) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": f"Python {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("direct", "sweep", "roundtrip"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import numpy
        import scipy
        import tripencil
        import tripencil.cli  # noqa: F401  (the roundtrip flow drives the CLI in-process)
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if Path(tripencil.__file__).resolve().parent != ROOT / "src" / "tripencil":
        print(f"error: tripencil resolved to {tripencil.__file__}, not this checkout", file=sys.stderr)
        return 2

    import harness
    import spans
    import workloads

    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.build(tripencil, args.workload, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    harness.run_op(workload.ops[0], workload.limit_s)   # warm-up, not counted
    if args.trace:
        # untraced and traced rotations alternate, so a change of host speed
        # between them does not show up as tracing overhead
        tracer = spans.Tracer(tripencil, tripencil.MathPreconditionError)
        untraced, samples = [], []
        for _ in range(TRACE_ROTATIONS[args.workload]):
            untraced += harness.measure(workload, rotations=1)
            tracer.install()
            try:
                samples += harness.measure(workload, rotations=1, tracer=tracer)
            finally:
                tracer.uninstall()
        overhead = sum(s.seconds for s in samples) / sum(s.seconds for s in untraced) - 1.0
        correct = harness.reproducible(untraced + samples, len(workload.ops))
        tracer.dump(workdir / f"spans-{args.workload}-seed{args.seed}.json")
        values = spans.layer_metrics(tracer.spans, overhead)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        samples = harness.measure(workload, seconds=args.seconds)
        correct = harness.reproducible(samples, len(workload.ops))
        values = harness.summarize(samples, len(workload.ops))
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(harness.END_TO_END)

    failed = sum(s.reason is not None for s in samples)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(samples)}  rotations {len(samples) // len(workload.ops)}"
          + ("" if args.trace else f"  beyond_p90 {harness.beyond(samples, values['op_p90_ms'])}"))
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {failed / len(samples):>16.6g} ratio")
    if not args.trace:
        for name, value in harness.summarize(samples, len(workload.ops), wall=True).items():
            if units[name] != "ratio":
                print(f"  {name + ' (wall clock)':40s} {value:>16.6g} {units[name]}")
    print("failures " + json.dumps(harness.failures(samples)))
    print("failures_by_op " + json.dumps(harness.failures_by_label(samples)))
    print("env " + json.dumps(environment(numpy, scipy)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
