"""Sweep the horizon and compare the Monte Carlo event-count mean (exact
thinning) against the resolvent quadrature.

Usage: python3 scripts/mean_convergence.py [--paths 4000] [--out mean_sweep.csv]
"""
import argparse
import csv

from pseudochaos import (
    ExperimentSpec,
    HawkesParams,
    Kernel,
    Window,
    build_ladder,
    expected_count_analytic,
    run_experiment,
)

HORIZONS = [1.0, 2.0, 4.0, 6.0, 8.0]
KERNEL = Kernel.exponential(0.5, 1.0)
MU = 1.0
SEED = 20240


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=4000)
    ap.add_argument("--out", default="mean_sweep.csv")
    ns = ap.parse_args()
    if ns.paths < 2:
        ap.error(f"--paths must be >= 2 for a standard error and a z-score, got {ns.paths}")

    ladder = build_ladder(KERNEL, 0.01, max(HORIZONS) + 1.0)
    rows = []
    for T in HORIZONS:
        params = HawkesParams(mu=MU, kernel=KERNEL, window=Window(T=T, M=4.0))
        ana = expected_count_analytic(params, ladder)
        spec = ExperimentSpec("hawkes_mean", params, ns.paths, seed=SEED, thinning="exact")
        mc = run_experiment(spec).headline
        z = (mc.mean - ana.value) / mc.se
        rows.append((T, ana.value, mc.mean, mc.se, z))
        print(f"T={T:4.1f}  analytic={ana.value:8.4f}  mc={mc.mean:8.4f} +- {mc.se:.4f}  z={z:+.2f}")

    with open(ns.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "analytic", "mc_mean", "mc_se", "z_score"])
        writer.writerows(rows)
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
