"""How the chain process departs from a counting process as self-excitation
grows: jump-size spectrum and ignored-atom fraction versus kernel amplitude.
The histogram uses paths 0..paths-1 of the seed's keys and the martingale
residual the next disjoint block, paths..2*paths-1, so the two share no path.

Usage: python3 scripts/jump_size_survey.py [--paths 3000] [--out jump_survey.csv]
"""
import argparse
import csv

from pseudochaos import HawkesParams, Kernel, Window, jump_size_histogram, martingale_residual

AMPLITUDES = [0.0, 0.2, 0.4, 0.6, 0.8]
SEED = 777


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", type=int, default=3000)
    ap.add_argument("--out", default="jump_survey.csv")
    ns = ap.parse_args()

    rows = []
    for alpha in AMPLITUDES:
        kernel = Kernel.exponential(alpha, 1.0)
        params = HawkesParams(mu=1.0, kernel=kernel, window=Window(T=5.0, M=4.0))
        hist = jump_size_histogram(params, ns.paths, (SEED, 0))
        res = martingale_residual(params, ns.paths, (SEED, ns.paths))
        biggest = max(hist.counts) if hist.counts else 0
        rows.append((
            alpha, hist.frac_ge2, hist.frac_ge2_se, biggest,
            hist.ignored_fraction, res.total_mean.mean, res.residual.mean,
        ))
        print(
            f"alpha={alpha:.1f}  frac(jump>=2)={hist.frac_ge2:.4f}  max jump={biggest:3d}  "
            f"ignored={hist.ignored_fraction:.3f}  mean={res.total_mean.mean:7.3f}  "
            f"residual={res.residual.mean:+.4f}"
        )

    with open(ns.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "alpha", "frac_ge2", "frac_ge2_se", "max_jump",
            "ignored_fraction", "mean_total", "martingale_residual",
        ])
        writer.writerows(rows)
    print(f"wrote {ns.out}")


if __name__ == "__main__":
    main()
