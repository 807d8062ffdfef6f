#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench/run.py, gathered into BENCH_<label>.json.

    python scripts/bench_pairs.py --parent ../parent --change . --label twisted_oracle \\
        --what "one line on the change" --workloads direct direct:7 roundtrip --seed 1

--parent and --change are two checkouts (say, a `git archive` of the parent
commit and the working tree); each runs its own unchanged perfbench/run.py
for the run_seconds of the change's BENCHMARK.json.  A workload written
name:seed runs with that seed instead of --seed, under its own key.  There
are ten pairs per workload; in pair i both sides run one after the other, the side that runs first
alternating from pair to pair, so a drift of host speed loads both alike.
The last output line of every run (its JSON result) is kept, entry i of each
list being pair i, in the layout of BENCH_pivot_kernel.json.  Also prints,
per workload and end-to-end metric, both sides' quartiles (q1/median/q3),
the number of pairs the change wins and a verdict (see verdict()) against
the metric's bound in BENCHMARK.json; and per workload, each side's failed
and attempted operations over its ten runs, flagged where the change fails
a larger share of them (see failures()).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[str, str]:
    """One run of perfbench/run.py in a checkout: its last output line and its env line."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds)],
                         cwd=checkout, capture_output=True, text=True, check=True).stdout.splitlines()
    env = next((line[len("env "):] for line in out if line.startswith("env ")), "{}")
    return out[-1], env


def workload_seed(spec: str, default: int) -> tuple[str, int]:
    """The workload and seed of a --workloads entry, name or name:seed."""
    name, _, seed = spec.partition(":")
    return name, int(seed) if seed else default


def host(env_line: str) -> str:
    """The host description from run.py's env record."""
    env = json.loads(env_line)
    if not env:
        return "unknown host"
    threads = sorted(set(env["blas_threads"].values()))
    return (f"{env['nproc']} CPUs, {env['cpu_model']}, {env['python']}, numpy {env['numpy']}, "
            f"scipy {env['scipy']}, BLAS pinned to {'/'.join(threads)} thread")


def merge(label: str, what: str, command: str, host_line: str,
          lines: dict[str, dict[str, list[str]]]) -> dict:
    """The BENCH document from the raw result lines, lines[side][workload][i] being pair i."""
    if set(lines) != set(SIDES):
        raise ValueError(f"expected the sides {SIDES}, got {sorted(lines)}")
    for workload in lines["parent"]:
        if len(lines["parent"][workload]) != len(lines["change"].get(workload, ())):
            raise ValueError(f"unpaired runs for workload {workload!r}")
    return {
        "label": label,
        "what": what,
        "command": command,
        "host": host_line,
        "note": ("last output line of the unchanged perfbench/run.py; parent = the parent commit, "
                 "change = this commit; the side that runs first alternates from pair to pair; "
                 "entry i of each list is pair i"),
        **{side: {w: [json.loads(line) for line in runs] for w, runs in lines[side].items()}
           for side in SIDES},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """gain, worse, unresolved or within bound for paired runs of one metric, pair i being old[i], new[i].

    gain: the change wins at least 9 pairs in 10 (ties count for neither)
    and the medians differ by more than the parent's interquartile range.
    worse: the change's median is worse than the parent's by more than the
    bound, a fraction of the parent's median.  unresolved: the parent's
    interquartile range is wider than that bound, and not every change run
    beats every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = _quartiles(old)
    gap = sign * (statistics.median(new) - median)
    if 10 * _wins(old, new, better) >= 9 * len(old) and gap > q3 - q1:
        return "gain"
    if gap < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not min(sign * x for x in new) > max(sign * x for x in old):
        return "unresolved"
    return "within bound"


def _wins(old: list[float], new: list[float], better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (b - a) > 0 for a, b in zip(old, new))


def summary(doc: dict, metrics: list[dict]) -> list[dict]:
    """Per workload and metric: both sides' quartiles, the pairs the change wins and the verdict.

    metrics holds the end_to_end entries of BENCHMARK.json: name, better and bound.
    """
    rows = []
    for workload, parent_runs in doc["parent"].items():
        change_runs = doc["change"][workload]
        for metric in metrics:
            name, better = metric["name"], metric["better"]
            old = [run["metrics"][name]["value"] for run in parent_runs]
            new = [run["metrics"][name]["value"] for run in change_runs]
            rows.append({
                "workload": workload,
                "metric": name,
                "parent": _quartiles(old),
                "change": _quartiles(new),
                "wins": _wins(old, new, better),
                "pairs": len(old),
                "verdict": verdict(old, new, better, metric["bound"]),
            })
    return rows


def failures(doc: dict) -> list[dict]:
    """Per workload: each side's (failed, attempted) over its runs, and whether the change fails a larger share."""
    rows = []
    for workload in doc["parent"]:
        counts = {side: (sum(run["failed"] for run in doc[side][workload]),
                         sum(run["attempted"] for run in doc[side][workload])) for side in SIDES}
        (old_failed, old_attempted), (new_failed, new_attempted) = counts["parent"], counts["change"]
        rows.append({"workload": workload, **counts,
                     "fails_more": new_failed * old_attempted > old_failed * new_attempted})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--what", required=True, help="one line on what the change does")
    parser.add_argument("--workloads", nargs="+", default=["direct", "sweep", "roundtrip"],
                        help="workload names, each optionally as name:seed")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]

    lines = {side: {w: [] for w in args.workloads} for side in SIDES}
    env = "{}"
    for spec in args.workloads:
        workload, seed = workload_seed(spec, args.seed)
        for i in range(PAIRS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                line, env = run_side(getattr(args, side), workload, seed, seconds)
                lines[side][spec].append(line)
                print(f"{spec} pair {i + 1}/{PAIRS} {side}: {line}", file=sys.stderr)

    command = (f"python3 perfbench/run.py --workload {{{','.join(args.workloads)}}} "
               f"--seed {args.seed} --seconds {seconds:g}")
    if any(":" in spec for spec in args.workloads):
        command += " (a workload written name:seed runs with that seed)"
    doc = merge(args.label, args.what, command, host(env), lines)
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")

    for row in summary(doc, contract["end_to_end"]):
        quartiles = {side: "/".join(f"{q:.6g}" for q in row[side]) for side in SIDES}
        print(f"{row['workload']:10s} {row['metric']:16s} parent {quartiles['parent']:28s} "
              f"change {quartiles['change']:28s} change wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    for row in failures(doc):
        counts = {side: "/".join(map(str, row[side])) for side in SIDES}
        flag = "the change fails a larger share" if row["fails_more"] else "no larger share fails"
        print(f"{row['workload']:10s} {'failed/attempted':16s} parent {counts['parent']:28s} "
              f"change {counts['change']:28s} {flag}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
