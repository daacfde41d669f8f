"""The nine timed operations of the benchmark and their correctness probes.

Each call of an operation builds its seeded inputs, times only the package
call(s), then checks the outputs untimed. Per-call probes are exact
identities; the Monte Carlo statistics are pooled over every call of the run
and checked once, with the acceptance suite's band (3 se plus the reported
budget), after the loop.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import traceback
from pathlib import Path
from time import perf_counter, process_time

from speed import Speedometer
from workloads import (
    AUDIT, CHAR, DESK, EXP_ALPHA, EXP_BETA, IPP, MU, ORACLE_EVERY, TABLE_STEP, Workload,
    inputs, table_values,
)


def pool(estimates) -> tuple[int, float, float]:
    """(n, mean, se) of the union of the samples behind several MCEstimates."""
    n = sum(e.n for e in estimates)
    mean = sum(e.n * e.mean for e in estimates) / n
    within = sum((e.n - 1) * (e.se * e.se * e.n if e.se is not None else 0.0) for e in estimates)
    between = sum(e.n * (e.mean - mean) ** 2 for e in estimates)
    var = (within + between) / (n - 1) if n > 1 else 0.0
    return n, mean, math.sqrt(var / n)


class Probe:
    """One correctness check: exact (an identity) or statistical (a band)."""

    def __init__(self, name: str, ok: bool, detail: str, statistical: bool = False):
        self.name, self.ok, self.detail, self.statistical = name, bool(ok), detail, statistical

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail,
                "statistical": self.statistical}


def band_probe(name: str, est: tuple, target: float, slack: float) -> Probe:
    n, mean, se = est
    ok = abs(mean - target) <= 3.0 * se + slack
    return Probe(name, ok, f"{mean:.5f} +- {se:.5f} (n={n}) vs {target:.5f}, "
                           f"band 3 se + {slack:.3g}", statistical=True)


class Context:
    """Package handle, kernel and parameter sets of one workload."""

    def __init__(self, pc, w: Workload, seed: int, out_root: Path | None):
        self.pc, self.w, self.seed = pc, w, seed
        self.kernel = self.make_kernel(1.0)

        def params(window):
            return pc.HawkesParams(mu=MU, kernel=self.kernel, window=pc.Window(*window))

        self.desk, self.audit, self.ipp, self.char = (
            params(DESK), params(AUDIT), params(IPP), params(CHAR))
        self.expand = params(w.expand_window)
        self.out_root = out_root if w.out_dir else None
        self.reference = None     # analytic desk mean, set by set_reference
        self.speed = Speedometer()  # one of its loops runs before every operation call

    def make_kernel(self, scale: float):
        """The workload's kernel with its amplitude multiplied by scale."""
        if self.w.kernel == "exp":
            return self.pc.Kernel.exponential(scale * EXP_ALPHA, EXP_BETA)
        return self.pc.Kernel.from_table(TABLE_STEP, scale * table_values())

    def set_reference(self) -> None:
        pc = self.pc
        self.reference = pc.expected_count_analytic(
            self.desk, pc.build_ladder(self.kernel, 0.01, self.desk.window.T))

    def configuration(self, atoms, window):
        pc = self.pc
        return pc.Configuration(window=window, atoms=tuple(pc.Point(t, th) for t, th in atoms))


class Op:
    name = ""
    unit_name = "paths"
    clock = perf_counter      # the clock of the timed package calls

    def __init__(self, ctx: Context, tracer=None):
        self.ctx = ctx
        self.tracer = tracer      # when set, traces the timed package calls
        self.batch = ctx.w.batch[self.name]
        self.share = ctx.w.share[self.name]
        self.pace = ctx.w.pace.get(self.name, "python")     # speed.py loop, or None
        self.busy = 0.0           # wall seconds of whole calls, for scheduling
        self.calls = 0
        self.samples: list[float] = []    # at the reference speed (speed.py)
        self.slowdowns: list[float] = []  # the rescaling of each timed call
        self.attempted = 0
        self.failed = 0
        self.probes: list[Probe] = []
        self.outputs: dict[int, tuple] = {}
        self.errors: list[str] = []
        # trace counter increments the last call must produce; a traced run
        # checks them to prove every binding on the path was wrapped
        self.expected: dict[str, int] = {}

    def call(self, index: int, digest: bool) -> None:
        start = perf_counter()
        self.run(index, digest)
        self.calls += 1
        self.busy += perf_counter() - start

    def read_speed(self) -> float:
        """How many times slower than the reference speed the host runs this
        operation's kind of work now; 1 for an operation timed as measured."""
        return self.ctx.speed.read(self.pace) if self.pace else 1.0

    def guarded(self, call, slowdown: float | None = None):
        """Time call(), a package call; an exception counts the operation as
        failed. The time is rescaled to the reference speed by `slowdown`,
        or else by a run of the operation's speed loop just before the call.
        The call looks its functions up when it runs, so it sees the trace
        wrappers bound in by `install`."""
        if slowdown is None:
            slowdown = self.read_speed()
        self.slowdowns.append(slowdown)
        self.attempted += 1
        if self.tracer:
            self.tracer.install()
        t0 = self.clock()
        try:
            result = call()
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc())
            result = None
        finally:
            dt = self.clock() - t0
            if self.tracer:
                self.tracer.uninstall()
        return result, dt / slowdown

    def fail(self, probe: Probe, n_ops: int = 1) -> None:
        self.probes.append(probe)
        self.failed += n_ops

    def run(self, index: int, digest: bool) -> None:
        raise NotImplementedError

    def pooled_probes(self) -> list[Probe]:
        return []

    def finish(self) -> None:
        """Run the pooled probes; a failing one fails every call it pooled."""
        for probe in self.pooled_probes():
            if probe.ok:
                self.probes.append(probe)
            else:
                self.fail(probe, len(self.pooled))

    def metrics(self) -> dict:
        return {self.metric: statistics.median(self.samples)} if self.samples else {}


class ExperimentOp(Op):
    """One `run_experiment` call of `batch` paths per call."""

    statistic = ""
    spec_kwargs: dict = {}

    def __init__(self, ctx, tracer=None):
        super().__init__(ctx, tracer)
        self.pooled = []          # the MCEstimate each call contributes to the pooled probe

    def params(self):
        return self.ctx.desk

    def run(self, index, digest):
        ctx, pc = self.ctx, self.ctx.pc
        seed = inputs(ctx.w, ctx.seed, self.name, index)
        spec = pc.ExperimentSpec(self.statistic, self.params(), self.batch, seed, **self.spec_kwargs)
        out = None if ctx.out_root is None else ctx.out_root / self.name
        self.expected = self.expected_counts()
        res, dt = self.guarded(lambda: pc.run_experiment(spec, out_dir=out))
        if res is None:
            return
        self.samples.append(self.batch / dt)
        self.collect(res, index)
        if digest:
            self.outputs[index] = self.digest_values(res)

    def expected_counts(self) -> dict:
        return {"harness.run_experiment.calls": 1}

    def collect(self, res, index):
        self.pooled.append(res.headline)

    def digest_values(self, res):
        h = res.headline
        return (h.n, h.mean, h.se)


class SimOp(ExperimentOp):
    name, metric, statistic = "sim", "sim_paths_per_s", "hawkes_mean"
    spec_kwargs = {"thinning": "capped"}

    def expected_counts(self):
        b = self.batch
        return {**super().expected_counts(), "hawkes.simulate.calls": b,
                "hawkes.solve_path.calls": b, "configurations.sample_poisson.calls": b}

    def digest_values(self, res):
        return super().digest_values(res) + (res.extra["overflow_fraction"],)

    def pooled_probes(self):
        ref = self.ctx.reference
        return [band_probe(f"{self.name}.mean_vs_analytic", pool(self.pooled), ref.value,
                           ref.error_budget)] if self.pooled else []


class ExactOp(SimOp):
    name, metric = "exact", "exact_paths_per_s"
    spec_kwargs = {"thinning": "exact"}

    def expected_counts(self):
        b = self.batch
        return {"harness.run_experiment.calls": 1, "hawkes.simulate.calls": b,
                "hawkes.solve_path.calls": b, "mc.rng_from_key.calls": b}

    def collect(self, res, index):
        super().collect(res, index)
        if res.extra["overflow_fraction"] != 0.0:
            self.fail(Probe("exact.no_overflow", False, f"call {index}: exact thinning overflowed"))


class ChainOp(ExperimentOp):
    name, metric, statistic = "chain", "chain_paths_per_s", "histogram"

    def expected_counts(self):
        return {**super().expected_counts(), "branching.branching_path.calls": self.batch}

    def collect(self, res, index):
        self.pooled.append(res.extra["total_mean"])
        frac = res.extra["frac_jumps_ge2"]
        if not frac > 0.01:
            self.fail(Probe("chain.frac_jumps_ge2", False, f"call {index}: {frac} <= 0.01"))

    def digest_values(self, res):
        t = res.extra["total_mean"]
        return (t.n, t.mean, t.se, res.extra["frac_jumps_ge2"])

    def pooled_probes(self):
        ref = self.ctx.reference
        return [band_probe("chain.total_mean_vs_analytic", pool(self.pooled), ref.value,
                           ref.error_budget)] if self.pooled else []


class AuditOp(ExperimentOp):
    name, metric, statistic = "audit", "audit_paths_per_s", "reconstruction"

    def params(self):
        return self.ctx.audit

    def collect(self, res, index):
        a = res.extra["audit"]
        if a.n_exact != a.n_checked:
            self.fail(Probe("audit.exact", False, f"call {index}: {a.n_exact}/{a.n_checked} exact"))

    def digest_values(self, res):
        a = res.extra["audit"]
        return (a.n_checked, a.n_exact, a.n_skipped_budget)


class IppOp(ExperimentOp):
    name, metric, statistic = "ipp", "ipp_paths_per_s", "ipp"

    def params(self):
        return self.ctx.ipp

    def pooled_probes(self):
        return [band_probe("ipp.diff_vs_0", pool(self.pooled), 0.0, 0.0)] if self.pooled else []


class CharOp(ExperimentOp):
    name, metric, statistic = "char", "char_paths_per_s", "characterization"
    spec_kwargs = {"j_max": 4, "points_per_path": 2}

    def __init__(self, ctx, tracer=None):
        super().__init__(ctx, tracer)
        self.last_terms = []      # highest-order term of each call, for the truncation budget

    def params(self):
        return self.ctx.char

    def collect(self, res, index):
        super().collect(res, index)
        self.last_terms.append(res.extra["report"].terms[-1])

    def digest_values(self, res):
        return tuple((t.mean, t.se) for t in res.extra["report"].terms) + super().digest_values(res)

    def pooled_probes(self):
        if not self.pooled:
            return []
        _, last_mean, last_se = pool(self.last_terms)
        budget = abs(last_mean) + 3.0 * last_se
        return [band_probe("char.residual_vs_0", pool(self.pooled), 0.0, budget)]


class LadderOp(Op):
    """`batch` ladder builds, each followed by the analytic desk mean, with a
    seeded kernel amplitude per call."""

    name, metric, unit_name = "ladder", "ladder_s", "ladders"

    def run(self, index, digest):
        ctx, pc = self.ctx, self.ctx.pc
        step, horizon, n_max = ctx.w.ladder
        kernel = ctx.make_kernel(inputs(ctx.w, ctx.seed, self.name, index))
        params = pc.HawkesParams(mu=MU, kernel=kernel, window=ctx.desk.window)
        self.expected = {"kernels.build_ladder.calls": self.batch,
                         "harness.expected_count_analytic.calls": self.batch}
        total = 0.0
        for _ in range(self.batch):
            res, dt = self.guarded(lambda: build_and_integrate(pc, params, step, horizon, n_max))
            if res is None:
                return
            total += dt
        ladder, ana = res
        self.samples.append(total / self.batch)
        self.check(kernel, ladder, ana, index)
        if digest:
            self.outputs[index] = (ana.value, ana.error_budget, float(ladder.resolvent.sum()))

    def check(self, kernel, ladder, ana, index):
        if kernel.family == "exponential":
            # closed-form mean of the exponential kernel (acceptance criterion 3)
            a, b, T = kernel.alpha, kernel.beta, self.ctx.desk.window.T
            r = b - a
            closed = MU * T * b / r - MU * a / r**2 * (1.0 - math.exp(-r * T))
            ok = abs(ana.value - closed) <= ana.error_budget + 1e-9
            detail = f"analytic {ana.value:.6f} vs closed form {closed:.6f}"
        else:
            # resolvent mass l1 / (1 - l1), criterion 9's tolerance
            l1 = kernel.l1_norm
            ok = abs(ladder.resolvent_l1() - l1 / (1.0 - l1)) < 1e-2
            detail = f"resolvent L1 {ladder.resolvent_l1():.5f} vs {l1 / (1.0 - l1):.5f}"
        if not ok:
            self.fail(Probe("ladder.analytic", False, f"call {index}: {detail}"), self.batch)


def build_and_integrate(pc, params, step, horizon, n_max):
    """The ladder operation: build the ladder, then the analytic mean from it."""
    ladder = pc.build_ladder(params.kernel, step, horizon, n_max)
    return ladder, pc.expected_count_analytic(params, ladder)


class ExpandOp(Op):
    """`reconstruct` on seeded configurations; throughput in subsets per second."""

    name, metric, unit_name = "expand", "expand_subsets_per_s", "subsets"

    def run(self, index, digest):
        ctx, pc = self.ctx, self.ctx.pc
        window = ctx.expand.window
        configs = [ctx.configuration(a, window) for a in inputs(ctx.w, ctx.seed, self.name, index)]
        self.expected = {"expansion.reconstruct.calls": len(configs),
                         "expansion.reconstruct.subsets": sum(1 << len(c) for c in configs)}
        subsets = 0
        seconds = 0.0
        values = []
        for k, source in enumerate(configs):
            report, dt = self.guarded(lambda: pc.reconstruct(ctx.expand, source))
            if report is None:
                continue
            subsets += 1 << len(source)
            seconds += dt
            if not report.exact_match:
                self.fail(Probe("expand.exact_match", False,
                                f"call {index} config {k}: total {report.total} "
                                f"vs {report.event_count} events"))
            values.append((report.per_size, report.event_count))
        if seconds > 0.0:
            self.samples.append(subsets / seconds)
        if digest:
            self.outputs[index] = tuple(values)


class CoeffOp(Op):
    """Timed `hawkes_coefficient` queries; every ORACLE_EVERY-th is compared,
    untimed, with the brute-force oracle.

    A query's latency is the process CPU time of the call. The query is
    single-threaded compute, so on a quiet machine this equals its wall time;
    on a shared host it leaves out the moments the process is descheduled,
    which would otherwise make up the p99 of millisecond queries.
    """

    name, unit_name = "coeff", "queries"
    clock = process_time

    def run(self, index, digest):
        ctx, pc = self.ctx, self.ctx.pc
        params = ctx.desk
        values = []
        self.expected = {"expansion.hawkes_coefficient.calls": self.batch}
        slowdown = self.read_speed()      # one reading per batch of short queries
        for pts in inputs(ctx.w, ctx.seed, self.name, index):
            points = [pc.Point(t, th) for t, th in pts]
            query = self.attempted
            value, dt = self.guarded(lambda: pc.hawkes_coefficient(params, points), slowdown)
            if value is None:
                continue
            self.samples.append(dt * 1e3)
            values.append(value)
            if query % ORACLE_EVERY == 0:
                oracle = pc.coefficient_oracle(pc.HawkesCount(params), params.window, points)
                if oracle != value:
                    self.fail(Probe("coeff.oracle", False,
                                    f"query {query} (k={len(points)}): {value} vs oracle {oracle}"))
        if digest:
            self.outputs[index] = tuple(values)

    def metrics(self):
        if len(self.samples) < 2:
            return {}
        cuts = statistics.quantiles(self.samples, n=100)
        return {"coeff_p50_ms": statistics.median(self.samples), "coeff_p99_ms": cuts[98]}


OP_CLASSES = (SimOp, ExactOp, ChainOp, AuditOp, IppOp, CharOp, LadderOp, ExpandOp, CoeffOp)


def make_ops(ctx: Context, tracer=None) -> list[Op]:
    return [cls(ctx, tracer) for cls in OP_CLASSES]


def digest(ops) -> str:
    """Hash of the seeded numeric outputs of the digest calls of every op."""
    h = hashlib.sha256()
    for op in ops:
        for index in sorted(op.outputs):
            h.update(repr((op.name, index, op.outputs[index])).encode())
    return h.hexdigest()[:16]


def warm_up(ctx: Context) -> None:
    """One untimed call of each operation at its smallest size."""
    pc, w = ctx.pc, ctx.w
    out = None if ctx.out_root is None else ctx.out_root / "warmup"
    for statistic, params, kw in (
        ("hawkes_mean", ctx.desk, {"thinning": "capped"}),
        ("hawkes_mean", ctx.desk, {"thinning": "exact"}),
        ("histogram", ctx.desk, {}),
        ("reconstruction", ctx.audit, {}),
        ("ipp", ctx.ipp, {}),
        ("characterization", ctx.char, {"j_max": 4, "points_per_path": 2}),
    ):
        pc.run_experiment(pc.ExperimentSpec(statistic, params, 2, 0, **kw), out_dir=out)
    # the smallest ladder of any workload: a fine ladder here would make
    # set-up a second copy of ladder_s
    build_and_integrate(pc, ctx.desk, 0.01, ctx.desk.window.T, 40)
    atoms = inputs(w, 0, "expand", 0)[-1]
    pc.reconstruct(ctx.expand, ctx.configuration(atoms, ctx.expand.window))
    pts = [pc.Point(t, th) for t, th in inputs(w, 0, "coeff", 0)[0]]
    pc.hawkes_coefficient(ctx.desk, pts)
