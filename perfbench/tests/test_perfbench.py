"""Tests of the benchmark itself: BENCHMARK.json's shape, seeded inputs,
tiny-scale runs of every workload, and the tracer's binding check.

    python3 -m pytest -q perfbench/tests
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke_run(workload, seed, trace):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return lines, result, digest


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    for op in workloads.OPS:
        first = workloads.inputs(w, 11, op, 0)
        assert first == workloads.inputs(w, 11, op, 0), op
        assert first != workloads.inputs(w, 12, op, 0), op
        assert first != workloads.inputs(w, 11, op, 1), op


def test_expansion_configurations_have_the_requested_sizes():
    w = workloads.WORKLOADS["expansion"]
    sizes = [len(atoms) for atoms in workloads.inputs(w, 3, "expand", 0)]
    assert sizes == [n for n, count in w.expand_sizes for _ in range(count)]
    assert max(sizes) == 22


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(name):
    lines, result, digest = smoke_run(name, 5, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    # failed counts the 3-se alarms of pooled Monte Carlo probes too, which a
    # correct program raises at a 0.27% rate each; no exact probe may fail
    assert not any(line.startswith("probe FAIL") for line in lines)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(re.fullmatch(rf"{re.escape(metric)} \S+ {re.escape(unit)}( \(.*\))?", line)
                   for line in lines), metric
        assert result["metrics"][metric]["value"] > 0
    assert any(line.startswith("ops_failed_frac ") for line in lines)
    assert any(line.startswith("environment ") for line in lines)

    _, again, digest_again = smoke_run(name, 5, 0)
    assert digest_again == digest
    _, _, other = smoke_run(name, 6, 0)
    assert other != digest

    lines, traced, digest_traced = smoke_run(name, 5, 1)
    assert traced["correct"] is True
    assert digest_traced == digest
    assert "trace self-check ok" in lines
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"]:
        if metric["name"] not in ("setup_s", "peak_rss_mb"):
            assert any(line.startswith(f"trace overhead {metric['name']} ") for line in lines)


def test_each_timed_call_is_rescaled_by_the_speed_loop_run_before_it():
    """A call that took 0.5 s while the speed loop read the host as twice as
    slow as the reference counts as 0.25 s: rates double, times halve."""
    pc = run.import_package()
    import ops

    class FixedSpeed:
        def __init__(self):
            self.loops = []

        def read(self, loop):
            self.loops.append(loop)
            return 2.0

    def half_second_clock():
        ticks = iter([0.0, 0.5] * 100)
        return lambda: next(ticks)

    ctx = ops.Context(pc, workloads.smoke(workloads.WORKLOADS["desk_table"]), 1, None)
    ctx.speed = FixedSpeed()
    ctx.set_reference()
    sim, char, ladder = ops.SimOp(ctx), ops.CharOp(ctx), ops.LadderOp(ctx)
    for op in (sim, char, ladder):
        op.clock = half_second_clock()
        op.call(0, digest=False)
    assert sim.samples == [sim.batch / 0.25]
    assert char.samples == [char.batch / 0.25]
    assert ctx.speed.loops == ["python", "array"]
    # desk_table times its fine ladder as measured
    assert ladder.samples == [0.5]


def test_speedometer_reads_how_much_slower_the_host_runs():
    from speed import REFERENCE_S, Speedometer

    speed = Speedometer()
    for loop in REFERENCE_S:
        readings = [speed.read(loop) for _ in range(3)]
        assert all(r > 0 for r in readings)
        assert speed.readings[loop] == readings


def test_tracer_reports_a_binding_it_did_not_replace():
    pc = run.import_package()
    from tracing import Tracer

    class Partial(Tracer):
        def install(self):
            super().install()
            pc.harness.simulate = pc.harness.simulate.__wrapped_original__

    assert Tracer(pc).missed_bindings() == []
    assert Partial(pc).missed_bindings() == ["pseudochaos.harness.simulate"]
    assert not hasattr(pc.harness.simulate, "__wrapped_original__")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench("--workload", "desk_exp", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
