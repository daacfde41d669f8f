"""End-to-end benchmark of pseudochaos.

    python3 perfbench/run.py --workload desk_exp --seed 1 --seconds 36 --trace 0

One process, one client, n_jobs=1: each workload runs its operations in a
closed loop through the package's public functions and prints every
end-to-end metric of BENCHMARK.json by name with its unit, then, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Every time is rescaled to a fixed reference speed of the host by a speed
loop run just before each timed call (speed.py).

--trace 0 measures for --seconds seconds: first every operation three times
(the digest calls), then whichever operation is furthest below its share of
the run, until the time is up. --trace 1 makes only the digest calls, each
once untraced and once with the package's layers wrapped (see tracing.py), so
every count repeats exactly for a seed; it reports the per-layer metrics and,
as the tracing overhead, the gap between the traced and untraced calls.
Records, spans and artifacts go to .perfbench_out/ at the root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one process means one thread of numeric work too
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench_out"
DIGEST_CALLS = 3        # calls of each operation behind the digest and the traced run
SETUP_SAMPLES = 7       # set-ups per run: this process and six fresh interpreters
SPEED_READINGS = 5      # speed-loop readings that rescale each set-up time
WORKLOAD_NAMES = ("desk_exp", "desk_table", "expansion")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def import_package():
    """Import pseudochaos from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(src))
    import pseudochaos

    if Path(pseudochaos.__file__).resolve().parent != src / "pseudochaos":
        raise ImportError(f"pseudochaos imported from {pseudochaos.__file__}, not {src}")
    return pseudochaos


def set_up(args):
    """Import, kernels and parameters, and one untimed warm-up of each operation.

    Returns the context and the set-up time, rescaled to the reference speed
    by the median of a few runs of the python speed loop right after it
    (see speed.py)."""
    t0 = perf_counter()
    pc = import_package()
    import ops
    import workloads

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    ctx = ops.Context(pc, w, args.seed, OUT / "artifacts" / args.workload)
    ops.warm_up(ctx)
    elapsed = perf_counter() - t0
    readings = [ctx.speed.read("python") for _ in range(SPEED_READINGS)]
    return ctx, elapsed / statistics.median(readings)


def setup_sample(args) -> float:
    """Set-up time of a fresh interpreter running this script with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def measure(ops_list, seconds: float, coeff_min: int) -> float:
    """Closed loop over the operations for `seconds`: the digest calls, then
    whichever operation is furthest below its share of the run, then any
    coefficient queries still missing for the p99.

    Returns the peak resident set after the digest calls: peak memory over
    fixed work, so a faster program that fits more calls into the run (and so
    meets rarer, larger configurations) does not read as a memory regression.
    """
    deadline = perf_counter() + seconds
    for index in range(DIGEST_CALLS):
        for op in ops_list:
            op.call(index, digest=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while perf_counter() < deadline:
        op = min(ops_list, key=lambda o: o.busy / o.share)
        op.call(op.calls, digest=False)
    coeff = next(op for op in ops_list if op.name == "coeff")
    while coeff.attempted < coeff_min:
        coeff.call(coeff.calls, digest=False)
    return peak_mb


def measure_traced(plain, traced, tracer) -> list[str]:
    """The digest calls of every operation, each made untraced and then traced
    on the same inputs. Returns the trace self-check failures: counter
    increments that differ from what the call must produce, names left
    unwrapped, and a traced digest that differs from the untraced one."""
    import ops

    problems = []
    for index in range(DIGEST_CALLS):
        for op, top in zip(plain, traced):
            op.call(index, digest=True)
            before = tracer.snapshot()
            top.call(index, digest=True)
            delta = tracer.snapshot() - before
            for key, want in top.expected.items():
                if delta[key] != want:
                    problems.append(f"{top.name} call {index}: {key} = {delta[key]}, want {want}")
    problems += [f"unwrapped binding {name}" for name in tracer.missed_bindings()]
    if ops.digest(plain) != ops.digest(traced):
        problems.append("traced digest differs from the untraced one")
    return problems


def environment() -> dict:
    import numpy

    caches = {}
    for index in sorted((Path("/sys/devices/system/cpu/cpu0/cache")).glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    version = "unknown"
    try:
        import tomllib

        version = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["version"]
    except (OSError, KeyError, ImportError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pseudochaos": version,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's .git, read as files; "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        ctx, setup_first = set_up(args)
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    import ops
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ctx.set_reference()
    plain = ops.make_ops(ctx)
    if args.trace:
        tracer = Tracer(ctx.pc)
        traced = ops.make_ops(ctx, tracer)
        t_run = perf_counter()
        problems = measure_traced(plain, traced, tracer)
        run_ops = plain + traced
    else:
        setups = [setup_first] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        t_run = perf_counter()
        peak_mb = measure(plain, args.seconds, ctx.w.coeff_min)
        problems = []
        run_ops = plain
    run_s = perf_counter() - t_run
    for op in run_ops:
        op.finish()

    attempted = sum(op.attempted for op in run_ops)
    failed = sum(op.failed for op in run_ops)
    probes = [p for op in run_ops for p in op.probes]
    errors = [e for op in run_ops for e in op.errors]
    correct = all(p.ok for p in probes if not p.statistical) and not errors and not problems
    digest = ops.digest(plain)
    env = environment()

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"measured {run_s:.2f} s; {why}")
    print("environment " + json.dumps(env, sort_keys=True))
    for loop, readings in ctx.speed.readings.items():
        if readings:
            print(f"host speed: the {loop} loop ran {statistics.median(readings):.3f}x its "
                  f"reference time (median of {len(readings)} readings)")
    for op in run_ops:
        print(f"  {op.name:7s}{' traced' if op.tracer else ''} {op.calls:4d} calls, "
              f"{op.attempted:6d} operations, {len(op.samples):5d} samples ({op.unit_name}), "
              f"busy {op.busy:.2f} s")
    print(f"ops_failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    for p in probes:
        status = "ok   " if p.ok else ("ALARM" if p.statistical else "FAIL ")
        print(f"probe {status} {p.name}: {p.detail}")
    for e in errors[:3]:
        print(e, file=sys.stderr)
    print(f"digest {digest}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "seconds": args.seconds, "measured_s": run_s,
              "environment": env, "digest": digest, "attempted": attempted, "failed": failed,
              "probes": [p.as_dict() for p in probes], "trace_problems": problems}
    tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}-trace{args.trace}"
    if args.trace:
        layer = tracer.layer_metrics()
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        untraced = op_metrics(plain)
        gaps = {name: tracing_gap(untraced[name], value, units[name])
                for name, value in op_metrics(traced).items()}
        for name, gap in gaps.items():
            print(f"trace overhead {name} {gap:+.1%}")
        print(f"trace self-check {'ok' if not problems else 'FAILED'}"
              + "".join(f"\n  {p}" for p in problems))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{tag}.npz")
        print(f"spans {len(tracer.span_start)} kept, {tracer.dropped} dropped")
        record.update(per_layer=layer, overhead=gaps)
    else:
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_mb,
                  **op_metrics(plain)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        record.update(setup_samples=setups, speed_readings=ctx.speed.readings,
                      samples={op.name: op.samples for op in plain},
                      slowdowns={op.name: op.slowdowns for op in plain})
    counts = {name: len(op.samples) for op in plain for name in op.metrics()}
    for name, m in metrics.items():
        stat = "p99" if name.endswith("_p99_ms") else "median"
        n = f" ({stat} of {counts[name]} samples)" if name in counts else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{n}")
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if ctx.out_root is not None:
        shutil.rmtree(ctx.out_root, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def op_metrics(ops_list) -> dict:
    values = {}
    for op in ops_list:
        values.update(op.metrics())
    return values


def tracing_gap(untraced: float, traced: float, unit: str) -> float:
    """Relative slowdown under tracing: time per unit of work, traced over untraced."""
    return (traced / untraced if unit in ("ms", "s") else untraced / traced) - 1.0


if __name__ == "__main__":
    sys.exit(main())
