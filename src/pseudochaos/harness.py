"""Seeded experiment runner: resolvent-based analytic mean, path-parallel
Monte Carlo with per-path rng keys, reconstruction audits, CSV artifacts, and
the table of acceptance criteria behind the test suite and the CLI selfcheck."""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import branching, expansion, malliavin
from .configurations import (
    DEFAULT_ATOM_BUDGET,
    Point,
    Window,
    _poisson_arrays,
    _write_rows,
    sample_poisson,
)
from .hawkes import HawkesCount, HawkesParams, simulate, solve_path
from .kernels import ConvolutionLadder, Kernel, build_ladder
from .malliavin import ConstantFunctional, RectangleCount, ipp_check_order1, iterated_difference
from .mc import MCEstimate, RngKey, _map_paths, rng_from_key

STATISTICS = (
    "hawkes_mean",
    "reconstruction",
    "residual",
    "histogram",
    "characterization",
    "ipp",
)

# the functionals the ipp statistic can check, by the name a spec gives
IPP_FUNCTIONALS = {
    "hawkes_count": HawkesCount,
    "window_count": lambda params: RectangleCount(params.window),
    "constant": lambda params: ConstantFunctional(3.0, params.window),
}


@dataclass(frozen=True)
class AnalyticMean:
    value: float
    error_budget: float   # resolvent truncation tail plus a quadrature estimate


def expected_count_analytic(params: HawkesParams, ladder: ConvolutionLadder) -> AnalyticMean:
    """Expected event count at the horizon from the renewal structure of the
    mean: mu*T + mu * double integral of the resolvent over the triangle."""
    T, mu = params.window.T, params.mu
    if ladder.horizon < T - 1e-12:
        raise ValueError(f"ladder horizon {ladder.horizon} shorter than T={T}")

    def double_integral(grid: np.ndarray, resolvent: np.ndarray) -> float:
        inner = np.concatenate([[0.0], np.cumsum(0.5 * (resolvent[1:] + resolvent[:-1]) * (grid[1:] - grid[:-1]))])
        xs = np.append(grid[grid < T], T)
        vals = np.interp(xs, grid, inner)
        return float(np.trapezoid(vals, xs))

    fine = double_integral(ladder.grid, ladder.resolvent)
    coarse = double_integral(ladder.grid[::2], ladder.resolvent[::2])
    budget = mu * T * ladder.tail_bound + abs(fine - coarse)
    return AnalyticMean(value=mu * T + mu * fine, error_budget=budget)


@dataclass(frozen=True)
class ExperimentSpec:
    statistic: str
    params: HawkesParams
    n_paths: int
    seed: int
    thinning: str = "capped"          # hawkes_mean only
    budget: int = DEFAULT_ATOM_BUDGET  # reconstruction and characterization
    j_max: int = 4                    # characterization only
    points_per_path: int = 1          # characterization only
    functional: str = "hawkes_count"  # ipp only: a key of IPP_FUNCTIONALS

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; pick from {STATISTICS}")
        if self.functional not in IPP_FUNCTIONALS:
            raise ValueError(f"unknown functional {self.functional!r}; pick from {tuple(IPP_FUNCTIONALS)}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")


@dataclass(frozen=True)
class AuditResult:
    n_checked: int
    n_exact: int
    n_skipped_budget: int


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    headline: MCEstimate
    extra: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)


def reconstruction_audit(
    params: HawkesParams,
    n_paths: int,
    rng_key: RngKey,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> AuditResult:
    """Per path, rebuild the event count from the expansion and tally exact
    matches; paths beyond the enumeration budget are skipped, not failed.
    Each path is drawn as `sample_poisson`'s time and mark arrays and goes
    straight to the subset table: no Point or Configuration is built."""
    seed, base_index = rng_key
    return _tally(_reconstruction_flags(params, budget, seed, base_index, base_index + n_paths))


def _reconstruction_flags(
    params: HawkesParams, budget: int, seed: int, start: int, stop: int
) -> np.ndarray:
    """Per path p in [start, stop), on key (seed, p): 1 if the expansion
    rebuilds the event count exactly, 0 if not, -1 if over the atom budget."""
    flags = np.empty(stop - start, dtype=np.int64)
    for i, p in enumerate(range(start, stop)):
        times, marks = _poisson_arrays(params.window, rng_from_key((seed, p)))
        if len(times) > budget:
            flags[i] = -1
        else:
            per_size, event_count = expansion._coefficient_table(params, times, marks)
            flags[i] = sum(per_size) == event_count
    return flags


def _tally(flags: np.ndarray) -> AuditResult:
    return AuditResult(
        n_checked=int((flags >= 0).sum()),
        n_exact=int((flags == 1).sum()),
        n_skipped_budget=int((flags < 0).sum()),
    )


def _hawkes_paths(params: HawkesParams, thinning: str, rows_too: bool, seed, start, stop) -> dict:
    """Event counts and overflow flags per path, and paths.csv's rows if rows_too."""
    counts = np.empty(stop - start)
    overflow = np.empty(stop - start, dtype=bool)
    rows = []
    for i, p in enumerate(range(start, stop)):
        path = simulate(params, (seed, p), thinning=thinning)
        counts[i] = path.event_count
        overflow[i] = path.overflow
        if rows_too:
            for atom, ok, lam in zip(path.source.atoms, path.accepted, path.intensities):
                rows.append((p, atom.t, atom.theta, int(ok), lam))
    return {"counts": counts, "overflow": overflow, "rows": rows}


def run_experiment(spec: ExperimentSpec, out_dir=None, n_jobs: int = 1) -> ExperimentResult:
    """Run one experiment; a pure function of its spec. With out_dir set,
    writes results.csv, a JSON-lines spec echo, and per-statistic artifacts.
    Every statistic runs its per-path loop through mc._map_paths, where
    n_jobs worker processes share the chunks of paths (no result depends on
    it), and reduces the paths with its report function's own reduction."""
    extra: dict = {}
    artifact_rows: dict[str, tuple[list[str], list]] = {}
    run_paths = lambda loop, *args, chunk=256: _map_paths(
        functools.partial(loop, *args), spec.seed, 0, spec.n_paths, n_jobs, chunk
    )

    if spec.statistic == "hawkes_mean":
        paths = run_paths(_hawkes_paths, spec.params, spec.thinning, out_dir is not None)
        headline = MCEstimate.from_samples(paths["counts"], seed=spec.seed)
        extra["overflow_fraction"] = float(paths["overflow"].mean())
        artifact_rows["paths.csv"] = (
            ["path_id", "t", "theta", "accepted", "intensity"], paths["rows"],
        )
    elif spec.statistic == "reconstruction":
        flags = run_paths(_reconstruction_flags, spec.params, spec.budget)
        checked = flags[flags >= 0]
        headline = MCEstimate.from_samples(checked if checked.size else [0.0], seed=spec.seed)
        extra["audit"] = _tally(flags)
        artifact_rows["reconstruction.csv"] = (
            ["path_id", "exact_match"],
            [(i, int(f)) for i, f in enumerate(flags)],
        )
    elif spec.statistic in ("residual", "histogram"):
        paths = run_paths(branching._chain_paths, spec.params)
        report = branching._residual_report(paths, spec.seed)
        sizes, frac_ge2 = branching._jump_sizes(paths)
        if spec.statistic == "residual":
            headline = report.residual
        else:
            # with no jumps at all, one 0.0 sample, as for reconstruction
            big = (sizes >= 2).astype(float) if sizes.size else [0.0]
            headline = MCEstimate.from_samples(big, seed=spec.seed)
        extra["total_mean"] = report.total_mean
        extra["frac_jumps_ge2"] = frac_ge2
        artifact_rows["jumps.csv"] = (["path_id", "t", "jump_size"], paths["rows"])
        artifact_rows["summary.csv"] = (
            ["residual_mean", "residual_se", "frac_jumps_ge2"],
            [(report.residual.mean, report.residual.se, frac_ge2)],
        )
    elif spec.statistic == "characterization":
        expansion._require_characterization_args(spec.j_max, spec.n_paths, spec.points_per_path, spec.budget)
        paths = run_paths(
            expansion._characterization_chunk, HawkesCount(spec.params), spec.params.window,
            spec.j_max, spec.points_per_path, chunk=expansion._CHUNK,
        )
        report = expansion._characterization_report(paths, spec.params.window, spec.seed)
        headline = report.residual
        extra["report"] = report
        artifact_rows["characterization.csv"] = (
            ["order", "mean", "se"],
            [(j + 1, t.mean, t.se) for j, t in enumerate(report.terms)]
            + [("cumulative", report.cumulative.mean, report.cumulative.se),
               ("reference", report.reference.mean, report.reference.se)],
        )
    elif spec.statistic == "ipp":
        F = IPP_FUNCTIONALS[spec.functional](spec.params)
        check = malliavin._ipp_check(run_paths(malliavin._ipp_paths, F, spec.params.window), spec.seed)
        headline = check.diff
        extra["check"] = check
    else:  # unreachable: spec validates
        raise AssertionError(spec.statistic)

    result = ExperimentResult(spec=spec, headline=headline, extra=extra)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in artifact_rows.items():
            result.artifacts.append(_write_rows(out / name, header, rows))
        result.artifacts.append(
            _write_rows(
                out / "results.csv",
                ["statistic", "mean", "se", "n", "seed"],
                [(spec.statistic, headline.mean, headline.se, headline.n, spec.seed)],
            )
        )
        log = out / "run.jsonl"
        with open(log, "w") as fh:
            fh.write(json.dumps({"spec": _spec_dict(spec)}, sort_keys=True) + "\n")
        result.artifacts.append(log)
    return result


def _spec_dict(spec: ExperimentSpec) -> dict:
    d = asdict(spec)
    d["params"]["kernel"] = asdict(spec.params.kernel)
    return d


# -- acceptance criteria --------------------------------------------------------
# The ten acceptance criteria, each defined once with its pinned seeds, bands
# and tolerances. A criterion takes a size map, size(full) -> int, applied to
# each of its path and query counts: tests/test_acceptance.py runs the table
# at full size and `selfcheck` at reduced size. A sub-check labelled `a ~ b`
# asks for a within 3 standard errors (plus the reported budget, if any) of b.

EXP = Kernel.exponential(0.5, 1.0)
DEFAULT = HawkesParams(mu=1.0, kernel=EXP, window=Window(T=5.0, M=4.0))
CLOSED_FORM_MEAN_T5 = 10.0 - 2.0 * (1.0 - math.exp(-2.5))  # 8.16417...

# pinned on the first verified run of criterion 8 (seed 8000, 10^4 paths);
# the 3-se band around it is a regression fence, not a theory value
FRAC_GE2_REGRESSION = 0.223262


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _verdict(name: str, detail: str, checks: dict[str, bool]) -> CheckResult:
    """Passed iff every named sub-check holds; the detail names those that fail."""
    failed = [label for label, ok in checks.items() if not ok]
    if failed:
        detail += "; FAILED: " + "; ".join(failed)
    return CheckResult(name, not failed, detail)


def criterion_1_exact_pathwise_reconstruction(size) -> CheckResult:
    n = size(1000)
    params = HawkesParams(mu=1.0, kernel=EXP, window=Window(T=3.0, M=2.0))
    audit = reconstruction_audit(params, n, (1000, 0))
    detail = f"{audit.n_exact}/{audit.n_checked} exact, {audit.n_skipped_budget} over budget"
    return _verdict("criterion 1 (exact reconstruction)", detail, {
        "every checked path exact": audit.n_exact == audit.n_checked,
        "at least 95% of paths within budget": 20 * audit.n_checked >= 19 * n,
        "every path checked or skipped": audit.n_checked + audit.n_skipped_budget == n,
    })


def criterion_2_coefficient_oracle_equivalence(size) -> CheckResult:
    n = size(500)
    F = HawkesCount(DEFAULT)
    rng = np.random.default_rng(2000)
    window = DEFAULT.window
    differ = []
    for i in range(n):
        pts = random_distinct_points(rng, window, int(rng.integers(1, 7)))   # k, then the points
        if expansion.hawkes_coefficient(DEFAULT, pts) != expansion.coefficient_oracle(F, window, pts):
            differ.append(i)
    detail = f"{n - len(differ)}/{n} queries agree exactly"
    return _verdict("criterion 2 (coefficient oracle)", detail, {
        f"closed form equals the oracle (queries {differ[:5]} differ)": not differ,
    })


def criterion_3_hawkes_mean_matches_resolvent(size) -> CheckResult:
    ana = expected_count_analytic(DEFAULT, build_ladder(EXP, 0.01, 6.0))
    spec = ExperimentSpec("hawkes_mean", DEFAULT, size(10_000), seed=3000, thinning="exact")
    mc = run_experiment(spec).headline
    detail = f"mc {mc.mean:.4f} +- {mc.se:.4f} vs analytic {ana.value:.5f}"
    return _verdict("criterion 3 (mean vs resolvent)", detail, {
        "analytic ~ closed form": abs(ana.value - CLOSED_FORM_MEAN_T5) <= ana.error_budget + 1e-9,
        "mc ~ analytic": mc.within(ana.value, slack=ana.error_budget),
    })


def criterion_4_poisson_reductions(size) -> CheckResult:
    params = HawkesParams(mu=1.0, kernel=Kernel.zero(), window=Window(T=5.0, M=4.0))
    mc = run_experiment(ExperimentSpec("hawkes_mean", params, size(10_000), seed=4000)).headline
    n = size(100)
    F = HawkesCount(params)
    rng = np.random.default_rng(4001)
    vanish = sum(
        iterated_difference(F, sample_poisson(params.window, (4002, i)),
                            random_distinct_points(rng, params.window, 2)) == 0.0
        for i in range(n)
    )
    detail = f"mc {mc.mean:.4f} +- {mc.se:.4f} vs 5.0; {vanish}/{n} second differences vanish"
    return _verdict("criterion 4 (flat-kernel reduction)", detail, {
        "mc ~ 5": mc.within(5.0),
        "every second difference exactly 0": vanish == n,
    })


def criterion_5_characterization_identity(size) -> CheckResult:
    window = Window(T=2.0, M=1.0)
    rect = expansion.characterization_check(
        RectangleCount(window), window, 2, size(20_000), (5000, 0)
    )
    poisson = HawkesParams(mu=1.0, kernel=Kernel.zero(), window=Window(T=2.0, M=2.0))
    flat = expansion.characterization_check(
        HawkesCount(poisson), poisson.window, 2, size(20_000), (5001, 0)
    )
    hawkes = HawkesParams(mu=1.0, kernel=EXP, window=Window(T=2.0, M=4.0))
    report = expansion.characterization_check(
        HawkesCount(hawkes), hawkes.window, 4, size(60_000), (5002, 0), points_per_path=4
    )
    detail = (
        f"rect {rect.cumulative.mean:.4f}~{window.area}, flat {flat.cumulative.mean:.4f}~2, "
        f"hawkes residual {report.residual.mean:.4f} +- {report.residual.se:.4f} "
        f"(budget {report.truncation_budget:.4f})"
    )
    return _verdict("criterion 5 (characterization)", detail, {
        "rect cumulative ~ area": rect.cumulative.within(window.area),
        "rect second term exactly 0": rect.terms[1].mean == 0.0 and rect.terms[1].se == 0.0,
        "flat cumulative ~ 2": flat.cumulative.within(2.0),
        "flat second term exactly 0": flat.terms[1].mean == 0.0 and flat.terms[1].se == 0.0,
        "hawkes residual ~ 0": report.residual.within(0.0, slack=report.truncation_budget),
    })


def criterion_6_integration_by_parts(size) -> CheckResult:
    n = size(10_000)
    window = Window(T=2.0, M=2.0)
    flat = HawkesParams(mu=1.0, kernel=Kernel.zero(), window=window)
    excite = HawkesParams(mu=1.0, kernel=EXP, window=window)
    chk_flat = ipp_check_order1(HawkesCount(flat), window, n, (6000, 0))
    chk_exp = ipp_check_order1(HawkesCount(excite), window, n, (6001, 0))
    chk_rect = ipp_check_order1(RectangleCount(window), window, n, (6002, 0))
    chk_const = ipp_check_order1(ConstantFunctional(3.0, window), window, n, (6003, 0))
    detail = (
        f"diffs {chk_flat.diff.mean:.4f}, {chk_exp.diff.mean:.4f}, "
        f"{chk_rect.diff.mean:.4f}; constant lhs exactly 0"
    )
    return _verdict("criterion 6 (integration by parts)", detail, {
        "flat diff ~ 0": chk_flat.diff.within(0.0),
        "flat lhs ~ 2 and rhs ~ 2": chk_flat.lhs.within(2.0) and chk_flat.rhs.within(2.0),
        "exp diff ~ 0": chk_exp.diff.within(0.0),
        "rect diff ~ 0": chk_rect.diff.within(0.0),
        "rect lhs exactly the area": chk_rect.lhs.mean == window.area and chk_rect.lhs.se == 0.0,
        "constant lhs exactly 0": chk_const.lhs.mean == 0.0 and chk_const.lhs.se == 0.0,
        "constant rhs ~ 0": chk_const.rhs.within(0.0),
    })


def criterion_7_branching_martingale(size) -> CheckResult:
    report = branching.martingale_residual(DEFAULT, size(10_000), (7000, 0))
    cond = branching.conditional_residual(DEFAULT, size(500), 8, (7001, 0))
    detail = (
        f"residual {report.residual.mean:.4f} +- {report.residual.se:.4f}, "
        f"mean {report.total_mean.mean:.4f} vs {CLOSED_FORM_MEAN_T5:.5f}, "
        f"conditional {cond.mean:.4f} +- {cond.se:.4f}"
    )
    return _verdict("criterion 7 (branching martingale)", detail, {
        "residual ~ 0": report.residual.within(0.0),
        "mean ~ closed form": report.total_mean.within(CLOSED_FORM_MEAN_T5),
        "conditional residual ~ 0": cond.within(0.0),
    })


def criterion_8_not_a_counting_process(size) -> CheckResult:
    hist = branching.jump_size_histogram(DEFAULT, size(10_000), (8000, 0))
    unit = True
    for i in range(size(200)):
        path = solve_path(DEFAULT, sample_poisson(DEFAULT.window, (8001, i)))
        unit &= path.event_count == len(path.events) == len({p.t for p in path.events})
    detail = (
        f"frac(jump >= 2) = {hist.frac_ge2:.4f} +- {hist.frac_ge2_se:.4f} "
        f"(regression {FRAC_GE2_REGRESSION}); thinning jumps all unit"
    )
    return _verdict("criterion 8 (not a counting process)", detail, {
        "frac(jump >= 2) > 0.01": hist.frac_ge2 > 0.01,
        "frac(jump >= 2) ~ regression":
            abs(hist.frac_ge2 - FRAC_GE2_REGRESSION) <= 3.0 * hist.frac_ge2_se,
        "thinning jumps all unit": unit,
    })


def criterion_9_convolution_ladder(size) -> CheckResult:
    ladder = build_ladder(EXP, 0.01, 40.0)
    worst_mass = max(abs(ladder.level_l1(n) - 0.5**n) for n in range(1, 11))
    ts = np.linspace(0.0, 10.0, 201)
    worst_point = float(np.max(np.abs(ladder.resolvent_at(ts) - 0.5 * np.exp(-0.5 * ts))))
    quarter = build_ladder(Kernel.exponential(0.25, 1.0), 0.01, 40.0)
    detail = (
        f"mass err {worst_mass:.2e}, pointwise err {worst_point:.2e}, "
        f"resolvent L1 {ladder.resolvent_l1():.4f} and {quarter.resolvent_l1():.4f}"
    )
    return _verdict("criterion 9 (convolution ladder)", detail, {
        "level masses within 1e-4": worst_mass < 1e-4,
        "resolvent within 5e-4 pointwise": worst_point < 5e-4,
        "resolvent L1 within 1e-2 of 1": abs(ladder.resolvent_l1() - 1.0) < 1e-2,
        "alpha 0.25 resolvent L1 within 1e-3": abs(quarter.resolvent_l1() - 1.0 / 3.0) < 1e-3,
    })


def criterion_10_chain_length_tail(size) -> CheckResult:
    p_tail = 8
    bound = DEFAULT.mu * DEFAULT.window.T * 0.5**p_tail / (1 - 0.5)
    totals = (branching.chain_length_totals(DEFAULT, sample_poisson(DEFAULT.window, (10_000, i)))
              for i in range(size(10_000)))
    est = MCEstimate.from_samples([t[p_tail:].sum() for t in totals])
    detail = f"mass beyond {p_tail}: {est.mean:.5f} +- {est.se:.5f} vs bound {bound:.5f}"
    return _verdict("criterion 10 (chain-length tail)", detail, {
        "tail mass below bound + 3 se": est.mean <= bound + 3.0 * est.se,
    })


CRITERIA = (
    criterion_1_exact_pathwise_reconstruction,
    criterion_2_coefficient_oracle_equivalence,
    criterion_3_hawkes_mean_matches_resolvent,
    criterion_4_poisson_reductions,
    criterion_5_characterization_identity,
    criterion_6_integration_by_parts,
    criterion_7_branching_martingale,
    criterion_8_not_a_counting_process,
    criterion_9_convolution_ladder,
    criterion_10_chain_length_tail,
)


def selfcheck() -> list[CheckResult]:
    """Every criterion of CRITERIA at a tenth of its size: each path or query
    count `full` becomes min(full, max(200, int(full * 0.1)))."""
    size = lambda full: min(full, max(200, int(full * 0.1)))
    return [criterion(size) for criterion in CRITERIA]


def random_distinct_points(rng, window: Window, k: int):
    while True:
        ts = rng.uniform(0.0, window.T, size=k)
        if len(set(ts)) == k:
            return [Point(float(t), float(th)) for t, th in zip(ts, rng.uniform(0.0, window.M, size=k))]
