"""Where the expansion mass sits: average per-order contribution of the
coefficient sums across sampled configurations, next to the rebuilt count.
Configurations with more atoms than the enumeration budget are skipped and
counted, as in the reconstruction audit; the averages run over the rest.

Usage: python3 scripts/expansion_profile.py [--paths 400] [--out expansion_profile.csv]
"""
import argparse
import csv

import numpy as np

from pseudochaos import AtomBudgetExceeded, HawkesParams, Kernel, Window, reconstruct, sample_poisson

SEED = 31415


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=400)
    ap.add_argument("--T", type=float, default=3.0)
    ap.add_argument("--M", type=float, default=2.0)
    ap.add_argument("--out", default="expansion_profile.csv")
    ns = ap.parse_args()

    params = HawkesParams(
        mu=1.0, kernel=Kernel.exponential(0.5, 1.0), window=Window(T=ns.T, M=ns.M)
    )
    per_order = np.zeros(32)
    abs_per_order = np.zeros(32)
    totals = []
    mismatches = skipped = 0
    for i in range(ns.paths):
        try:
            report = reconstruct(params, sample_poisson(params.window, (SEED, i)))
        except AtomBudgetExceeded:
            skipped += 1
            continue
        for k, v in enumerate(report.per_size, start=1):
            per_order[k] += v
            abs_per_order[k] += abs(v)
        totals.append(report.total)
        mismatches += not report.exact_match

    print(f"{skipped} of {ns.paths} configurations skipped over the atom budget")
    if not totals:
        ap.exit(2, "error: every configuration is over the atom budget; lower --T or --M\n")
    top = max((k for k in range(32) if abs_per_order[k]), default=0)
    rows = [
        (k, per_order[k] / len(totals), abs_per_order[k] / len(totals))
        for k in range(1, top + 1)
    ]
    print(f"mean rebuilt count: {np.mean(totals):.4f}   mismatches: {mismatches}")
    for k, signed, absolute in rows:
        print(f"order {k:2d}: signed {signed:+9.5f}   |.| {absolute:9.5f}")

    with open(ns.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["order", "mean_signed_sum", "mean_abs_sum"])
        writer.writerows(rows)
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
