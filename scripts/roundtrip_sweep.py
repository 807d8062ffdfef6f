#!/usr/bin/env python3
"""Reconstruction accuracy sweep, binned by system conditioning.

Generates seeded instances over a range of orders, recovers the Hermitian
matrix by both the eigenpair route and the m-function route, and reports
worst-case entry errors binned by min_j |Delta_j| (the conditioning of the
per-index 2x2 systems).  An instance whose generation or reconstruction
raises a library error is a failed row tagged with the error's class; the
failures are listed by class, and the exit status is 1 if there are any.

    python scripts/roundtrip_sweep.py --count 300 --max-n 10
    python scripts/roundtrip_sweep.py --count 500 --csv sweep.csv
"""

import argparse
import csv
import math
import sys

import numpy as np

import tripencil as tp


def run_case(seed, max_n, min_im_ratio):
    """One instance through both routes: its row, or a failed row tagged with the library error's class."""
    n = 2 + seed % (max_n - 1)
    k = 1 + (seed * 7) % (n - 1)
    try:
        return measure(seed, n, k, min_im_ratio)
    except tp.PencilError as exc:
        return {"seed": seed, "n": n, "k": k, "min_delta": math.nan, "eig_err": math.nan, "m_err": math.nan,
                "residual": math.nan, "eig_pass": False, "m_pass": False, "error": type(exc).__name__}


def measure(seed, n, k, min_im_ratio):
    cfg = tp.GeneratorConfig(n=n, k=k, seed=seed, min_im_ratio=min_im_ratio)
    truth, inst = tp.generate_instance(cfg)

    result = tp.solve(inst)
    eig_report = tp.verify(truth, result)

    eigs = tp.pencil_eigenvalues(truth)
    omega = float(np.max(eigs.real) + 1.5 + 0.01 * (seed % 37))
    table = tp.m_table(truth, omega)
    pr = tp.right_components(truth, omega)
    pl = tp.left_components(truth, omega)
    entries = tp.reconstruct_from_m(truth.J, k, omega, table, pr, pl, truth.H.b[k])
    m_report = tp.verify(truth, entries)

    return {
        "seed": seed,
        "n": n,
        "k": k,
        "min_delta": min(eig_report.delta_magnitudes),
        "eig_err": max(eig_report.entry_errors.values()),
        "m_err": max(m_report.entry_errors.values()) if m_report.entry_errors else 0.0,
        "residual": max(eig_report.residual_lambda, eig_report.residual_mu),
        "eig_pass": eig_report.passed,
        "m_pass": m_report.passed,
        "error": "",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200, help="number of seeded instances")
    ap.add_argument("--max-n", type=int, default=10, help="largest order index")
    ap.add_argument("--min-im-ratio", type=float, default=0.1)
    ap.add_argument("--seed0", type=int, default=0, help="first seed")
    ap.add_argument("--csv", help="dump per-instance rows to this file")
    args = ap.parse_args(argv)

    rows = [run_case(args.seed0 + i, args.max_n, args.min_im_ratio)
            for i in range(args.count)]

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")

    # bin by log10 of the smallest 2x2 determinant magnitude
    bins = {}
    for row in rows:
        if row["error"]:
            continue
        key = int(math.floor(math.log10(row["min_delta"])))
        bins.setdefault(key, []).append(row)

    print(f"{'log10 min|Delta|':>18} {'count':>6} {'worst eig err':>14} "
          f"{'worst m err':>12} {'worst residual':>15}")
    for key in sorted(bins):
        group = bins[key]
        print(f"{key:>18} {len(group):>6} "
              f"{max(r['eig_err'] for r in group):>14.2e} "
              f"{max(r['m_err'] for r in group):>12.2e} "
              f"{max(r['residual'] for r in group):>15.2e}")

    failures = [r for r in rows if not (r["eig_pass"] and r["m_pass"])]
    print(f"\n{len(rows)} instances, {len(failures)} failures")
    by_class = {}
    for row in failures:
        by_class.setdefault(row["error"] or "verify failed", []).append(row["seed"])
    for name, seeds in sorted(by_class.items()):
        print(f"  {name}: {len(seeds)} (seeds {', '.join(map(str, seeds))})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
