import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "script", ["expansion_profile.py", "jump_size_survey.py", "mean_convergence.py"]
)
def test_script_runs_at_tiny_scale(script, tmp_path):
    out = tmp_path / "x.csv"
    proc = _run_script(script, "--paths", 20, "--out", out)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2 and rows[0]


def test_expansion_profile_skips_configurations_over_the_budget(tmp_path):
    # the CLI's desk window averages 20 atoms a path, some above the budget of 22
    out = tmp_path / "x.csv"
    proc = _run_script("expansion_profile.py", "--T", 5, "--M", 4, "--paths", 30, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert "9 of 30 configurations skipped over the atom budget" in proc.stdout
    assert out.exists()


def test_mean_convergence_refuses_a_single_path():
    proc = _run_script("mean_convergence.py", "--paths", 1)
    assert proc.returncode == 2
    assert "--paths must be >= 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_script_smoke(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--workload", "desk_exp", "--seeds", "1", "--seconds", "1",
         "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    w = result["workloads"]["desk_exp"]
    # one tree against itself: same digests, same traced call counts, a clean self-check
    assert w["digests_equal"] and w["trace_calls_equal"]
    assert w["failures"]["parent"]["attempted"] == w["pairs"][0]["parent"]["attempted"]
    for side in ("parent", "change"):
        assert w["pairs"][0][side]["attempted"] > 0
        assert w["traced"][side]["trace_problems"] == []
    sim = w["metrics"]["sim_paths_per_s"]
    assert sim["pairs"] == 1 and sim["parent"]["median"] > 0
    assert result["environment"]["numpy"]


def _bench_module():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_failures_sum_every_run_and_name_each_failing_probe():
    bench = _bench_module()
    chain = {"name": "chain.total_mean_vs_analytic", "detail": "7.77 +- 0.12", "statistical": True}
    audit = {"name": "audit.exact", "detail": "path 3", "statistical": False}
    pairs = [
        {"parent": {"seed": 10, "returncode": 0, "attempted": 100, "failed": 35,
                    "failing_probes": [chain]},
         "change": {"seed": 10, "returncode": 0, "attempted": 120, "failed": 0,
                    "failing_probes": []}},
        {"parent": {"seed": 11, "returncode": 0, "attempted": 300, "failed": 5,
                    "failing_probes": [audit]},
         "change": {"seed": 11, "returncode": 1, "stderr": "boom"}},
    ]
    f = bench.failures(pairs)
    assert (f["parent"]["failed"], f["parent"]["attempted"]) == (40, 400)
    assert f["parent"]["share"] == 0.1 and f["parent"]["errored_runs"] == []
    assert [(p["seed"], p["kind"]) for p in f["parent"]["probes"]] == [
        (10, "statistical"), (11, "exact")]
    assert (f["change"]["failed"], f["change"]["attempted"], f["change"]["share"]) == (0, 120, 0.0)
    assert f["change"]["errored_runs"] == [11] and f["change"]["probes"] == []
    line = bench.failure_line("expansion", "parent", f["parent"])
    assert "failed 40 of 400 (10.0000%)" in line
    assert "chain.total_mean_vs_analytic seed 10 (statistical)" in line
    assert "audit.exact seed 11 (exact)" in line
    assert "failing probes: none" in bench.failure_line("expansion", "change", f["change"])
