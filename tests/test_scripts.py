import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["expansion_profile.py", "jump_size_survey.py", "mean_convergence.py"]
)
def test_script_runs_at_tiny_scale(script, tmp_path):
    out = tmp_path / "x.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--paths", "20", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) >= 2 and rows[0]


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
    for side in ("parent", "change"):
        assert w["pairs"][0][side]["attempted"] > 0
        assert w["traced"][side]["trace_problems"] == []
    sim = w["metrics"]["sim_paths_per_s"]
    assert sim["pairs"] == 1 and sim["parent"]["median"] > 0
    assert result["environment"]["numpy"]
