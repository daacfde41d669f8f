"""Paired benchmark of two checkouts: alternating perfbench runs, one traced
run per tree, everything written to one JSON file.

Usage: python3 scripts/bench.py --parent PARENT_TREE --change CHANGE_TREE
           --workload desk_table [desk_exp ...] --seeds 501-510
           [--seconds 36] [--smoke] [--tier1] [--out BENCH.json]

Each tree runs its own perfbench/run.py on its own src/. For every workload
and seed the two trees run back to back, the parent first on even-numbered
seeds and the change first on odd ones, so a drift of host speed favours
neither side. Then each tree makes one --trace 1 run on the first seed. The
output holds, per workload and end-to-end metric, the median and quartiles of
both sides, the pairs in which the change is better and the relative change
against the metric's bound in BENCHMARK.json; per run, the attempted and
failed operations, every failing probe with its detail, and the digest; per
workload and side, the failed and attempted operations summed over the runs,
the failed share and every failing probe with its seed and kind; for the
traced runs, the self-check and the per-layer counts; and the
environment, with each tree's commit and a hash of its src/. --tier1 adds
the Tier-1 test wall time of each tree.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def parse_seeds(text: str) -> list[int]:
    """'501-503,507' -> [501, 502, 503, 507]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def src_hash(tree: Path) -> str:
    """sha256 over the paths and bytes of the tree's src/*.py files."""
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One perfbench run of a tree, summarised from its last stdout line and
    the record it writes under .perfbench_out/."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=3 * seconds + 900)
    run = {"seed": seed, "trace": trace, "returncode": done.returncode}
    if done.returncode != 0:
        run["stderr"] = done.stderr[-2000:]
        return run
    last = json.loads(done.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}{'-smoke' if smoke else ''}-trace{trace}"
    record = json.loads((tree / ".perfbench_out" / f"result-{tag}.json").read_text())
    run.update(
        correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
        failing_probes=[{k: p[k] for k in ("name", "detail", "statistical")}
                        for p in record["probes"] if not p["ok"]],
        digest=record["digest"],
        metrics={name: m["value"] for name, m in last["metrics"].items()},
        environment=record["environment"],
    )
    if trace:
        run["trace_problems"] = record["trace_problems"]
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(metric: dict, pairs: list[dict]) -> dict:
    """Both sides' quartiles of one end-to-end metric, the pairs the change
    wins, and its relative change (positive = better) against the bound."""
    name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
    pairs = [p for p in pairs if name in p["parent"].get("metrics", {})
             and name in p["change"].get("metrics", {})]
    if not pairs:
        return {"pairs": 0}
    out = {"pairs": len(pairs), "better": metric["better"], "bound": metric["bound"]}
    for side in SIDES:
        q1, med, q3 = quartiles([p[side]["metrics"][name] for p in pairs])
        out[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
    out["change_better"] = sum(
        sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name]) > 0 for p in pairs)
    parent, change = out["parent"]["median"], out["change"]["median"]
    gain = sign * (change - parent)
    out["relative_gain"] = gain / parent
    out["worse_beyond_bound"] = -out["relative_gain"] > metric["bound"]
    out["gain_beyond_parent_iqr"] = gain > out["parent"]["iqr"]
    return out


def failures(pairs: list[dict]) -> dict:
    """Per side: the failed and attempted operations summed over every run,
    the failed share, the runs that ended in an error, and each failing probe
    with its seed and kind (exact: an identity; statistical: a pooled band)."""
    out = {}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        failed = sum(r.get("failed", 0) for r in runs)
        attempted = sum(r.get("attempted", 0) for r in runs)
        out[side] = {
            "failed": failed, "attempted": attempted,
            "share": failed / attempted if attempted else 0.0,
            "errored_runs": [r["seed"] for r in runs if r["returncode"] != 0],
            "probes": [{"seed": r["seed"], "name": p["name"],
                        "kind": "statistical" if p["statistical"] else "exact",
                        "detail": p["detail"]}
                       for r in runs for p in r.get("failing_probes", [])],
        }
    return out


def failure_line(workload: str, side: str, f: dict) -> str:
    probes = ", ".join(f"{p['name']} seed {p['seed']} ({p['kind']})" for p in f["probes"])
    errored = f", errored seeds {f['errored_runs']}" if f["errored_runs"] else ""
    return (f"{workload:10s} {side:6s} failed {f['failed']} of {f['attempted']} "
            f"({f['share']:.4%}){errored}; failing probes: {probes or 'none'}")


def tier1_seconds(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    tail = done.stdout.strip().splitlines()[-1:] or [""]
    return {"wall_s": time.perf_counter() - t0, "returncode": done.returncode, "summary": tail[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--smoke", action="store_true", help="pass --smoke to perfbench")
    ap.add_argument("--tier1", action="store_true", help="also time each tree's Tier-1 tests")
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    ns = ap.parse_args(argv)
    trees = {"parent": ns.parent.resolve(), "change": ns.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    result = {"seeds": ns.seeds, "seconds": ns.seconds, "smoke": ns.smoke,
              "trees": {side: {"src_sha256": src_hash(tree)} for side, tree in trees.items()},
              "workloads": {}}
    for workload in ns.workload:
        pairs = []
        for k, seed in enumerate(ns.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(trees[side], workload, seed, ns.seconds, 0, ns.smoke)
                print(f"{workload} seed {seed} {side}: failed {pair[side].get('failed')} "
                      f"of {pair[side].get('attempted')}, digest {pair[side].get('digest')}",
                      flush=True)
            pair["digests_equal"] = pair["parent"].get("digest") == pair["change"].get("digest")
            pairs.append(pair)
        traced = {side: bench_run(trees[side], workload, ns.seeds[0], ns.seconds, 1, ns.smoke)
                  for side in SIDES}
        calls = {side: {name: value for name, value in traced[side].get("metrics", {}).items()
                        if name.endswith(".calls")} for side in SIDES}
        result["workloads"][workload] = {
            "metrics": {m["name"]: summarise(m, pairs) for m in spec["end_to_end"]},
            "digests_equal": all(p["digests_equal"] for p in pairs),
            "trace_calls_equal": calls["parent"] == calls["change"],
            "failures": failures(pairs),
            "pairs": pairs,
            "traced": traced,
        }
    for side in SIDES:
        env = next((p[side]["environment"] for w in result["workloads"].values()
                    for p in w["pairs"] if "environment" in p[side]), {})
        result["trees"][side]["commit"] = env.get("commit", "unknown")
        result.setdefault("environment", {k: env.get(k) for k in
                                          ("cpu_count", "cpus_usable", "machine", "python", "numpy")})
        if ns.tier1:
            result["trees"][side]["tier1"] = tier1_seconds(trees[side])
    ns.out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, w in result["workloads"].items():
        for name, m in w["metrics"].items():
            if m["pairs"]:
                print(f"{workload:10s} {name:22s} parent {m['parent']['median']:.6g} "
                      f"change {m['change']['median']:.6g}, gain {m['relative_gain']:+.1%}, "
                      f"change better in {m['change_better']}/{m['pairs']}")
        for side in SIDES:
            print(failure_line(workload, side, w["failures"][side]))
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
