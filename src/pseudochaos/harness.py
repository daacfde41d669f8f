"""Seeded experiment runner: resolvent-based analytic mean, path-parallel
Monte Carlo with per-path rng keys, reconstruction audits, CSV artifacts, and
the reduced-scale selfcheck behind the CLI."""
from __future__ import annotations

import csv
import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import branching, expansion
from .configurations import DEFAULT_ATOM_BUDGET, Window, sample_poisson
from .hawkes import HawkesCount, HawkesParams, simulate
from .kernels import ConvolutionLadder, Kernel, build_ladder
from .malliavin import ConstantFunctional, RectangleCount, ipp_check_order1, iterated_difference
from .mc import MCEstimate, RngKey

STATISTICS = (
    "hawkes_mean",
    "reconstruction",
    "residual",
    "histogram",
    "characterization",
    "ipp",
)


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
        h = grid[1] - grid[0]
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
    budget: int = DEFAULT_ATOM_BUDGET  # reconstruction only
    j_max: int = 4                    # characterization only
    points_per_path: int = 1          # characterization only

    def __post_init__(self):
        if self.statistic not in STATISTICS:
            raise ValueError(f"unknown statistic {self.statistic!r}; pick from {STATISTICS}")
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
    matches; paths beyond the enumeration budget are skipped, not failed."""
    seed, base_index = rng_key
    return _tally(_reconstruction_flags(params, budget, seed, base_index, base_index + n_paths))


def _reconstruction_flags(
    params: HawkesParams, budget: int, seed: int, start: int, stop: int
) -> np.ndarray:
    """Per path p in [start, stop), on key (seed, p): 1 if the expansion
    rebuilds the event count exactly, 0 if not, -1 if over the atom budget."""
    flags = np.empty(stop - start, dtype=np.int64)
    for i, p in enumerate(range(start, stop)):
        source = sample_poisson(params.window, (seed, p))
        if len(source) > budget:
            flags[i] = -1
        else:
            flags[i] = expansion.reconstruct(params, source, budget=budget).exact_match
    return flags


def _tally(flags: np.ndarray) -> AuditResult:
    return AuditResult(
        n_checked=int((flags >= 0).sum()),
        n_exact=int((flags == 1).sum()),
        n_skipped_budget=int((flags < 0).sum()),
    )


# -- path-parallel runner -----------------------------------------------------
# Each per-path loop takes (..., seed, start, stop) and returns arrays or row
# lists indexed by path, so the merge is a concatenation in chunk order and
# results cannot depend on which process ran which chunk.

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


def _concat(parts: list):
    """Merge per-chunk results in chunk order: arrays concatenate, row lists
    chain, dicts merge key by key."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _concat([part[key] for part in parts]) for key in first}
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    return [row for part in parts for row in part]


def _map_paths(loop, spec: ExperimentSpec, n_jobs: int, *args, chunk: int = 256):
    """Run loop(*args, spec.seed, start, stop) over the chunks of the spec's
    paths and concatenate the results."""
    starts = range(0, spec.n_paths, chunk)
    stops = [min(s + chunk, spec.n_paths) for s in starts]
    per_chunk = functools.partial(loop, *args, spec.seed)
    if n_jobs == 1:
        return _concat(list(map(per_chunk, starts, stops)))
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return _concat(list(pool.map(per_chunk, starts, stops)))


def run_experiment(spec: ExperimentSpec, out_dir=None, n_jobs: int = 1) -> ExperimentResult:
    """Run one experiment; a pure function of its spec. With out_dir set,
    writes results.csv, a JSON-lines spec echo, and per-statistic artifacts."""
    extra: dict = {}
    artifact_rows: dict[str, tuple[list[str], list]] = {}

    if spec.statistic == "hawkes_mean":
        paths = _map_paths(_hawkes_paths, spec, n_jobs, spec.params, spec.thinning, out_dir is not None)
        headline = MCEstimate.from_samples(paths["counts"], seed=spec.seed)
        extra["overflow_fraction"] = float(paths["overflow"].mean())
        artifact_rows["paths.csv"] = (
            ["path_id", "t", "theta", "accepted", "intensity"], paths["rows"],
        )
    elif spec.statistic == "reconstruction":
        flags = _map_paths(_reconstruction_flags, spec, n_jobs, spec.params, spec.budget)
        checked = flags[flags >= 0]
        headline = MCEstimate.from_samples(checked if checked.size else [0.0], seed=spec.seed)
        extra["audit"] = _tally(flags)
        artifact_rows["reconstruction.csv"] = (
            ["path_id", "exact_match"],
            [(i, int(f)) for i, f in enumerate(flags)],
        )
    elif spec.statistic in ("residual", "histogram"):
        paths = _map_paths(branching._chain_paths, spec, n_jobs, spec.params)
        totals, jump_rows = paths["totals"], paths["rows"]
        residual = MCEstimate.from_samples(totals - paths["comps"], seed=spec.seed)
        sizes = np.array([r[2] for r in jump_rows]) if jump_rows else np.zeros(0)
        frac_ge2 = float((sizes >= 2).mean()) if sizes.size else 0.0
        if spec.statistic == "residual":
            headline = residual
        else:
            headline = MCEstimate.from_samples((sizes >= 2).astype(float), seed=spec.seed)
        extra["total_mean"] = MCEstimate.from_samples(totals, seed=spec.seed)
        extra["frac_jumps_ge2"] = frac_ge2
        artifact_rows["jumps.csv"] = (["path_id", "t", "jump_size"], jump_rows)
        artifact_rows["summary.csv"] = (
            ["residual_mean", "residual_se", "frac_jumps_ge2"],
            [(residual.mean, residual.se, frac_ge2)],
        )
    elif spec.statistic == "characterization":
        report = expansion.characterization_check(
            HawkesCount(spec.params),
            spec.params.window,
            spec.j_max,
            spec.n_paths,
            (spec.seed, 0),
            points_per_path=spec.points_per_path,
        )
        headline = report.residual
        extra["report"] = report
        artifact_rows["characterization.csv"] = (
            ["order", "mean", "se"],
            [(j + 1, t.mean, t.se) for j, t in enumerate(report.terms)]
            + [("cumulative", report.cumulative.mean, report.cumulative.se),
               ("reference", report.reference.mean, report.reference.se)],
        )
    elif spec.statistic == "ipp":
        check = ipp_check_order1(
            HawkesCount(spec.params), spec.params.window, spec.n_paths, (spec.seed, 0)
        )
        headline = check.diff
        extra["check"] = check
    else:  # unreachable: spec validates
        raise AssertionError(spec.statistic)

    result = ExperimentResult(spec=spec, headline=headline, extra=extra)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in artifact_rows.items():
            result.artifacts.append(_write_csv(out / name, header, rows))
        result.artifacts.append(
            _write_csv(
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _spec_dict(spec: ExperimentSpec) -> dict:
    d = asdict(spec)
    d["params"]["kernel"] = asdict(spec.params.kernel)
    return d


# -- reduced-scale selfcheck ---------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def selfcheck(seed: int = 2024, scale: float = 0.2) -> list[CheckResult]:
    """Reduced-scale sweep of the acceptance checks; the full-scale versions
    live in the test suite. Returns one result per criterion."""
    results: list[CheckResult] = []
    n = lambda full: max(200, int(full * scale))
    kernel = Kernel.exponential(0.5, 1.0)
    zero = Kernel.zero()

    # 1: exact reconstruction
    params_rec = HawkesParams(mu=1.0, kernel=kernel, window=Window(T=3.0, M=2.0))
    audit = reconstruction_audit(params_rec, n(1000), (seed, 0))
    results.append(CheckResult(
        "reconstruction-exact",
        audit.n_exact == audit.n_checked and audit.n_checked >= 0.95 * n(1000),
        f"{audit.n_exact}/{audit.n_checked} exact, {audit.n_skipped_budget} skipped",
    ))

    # 2: coefficient closed form vs brute-force oracle
    params5 = HawkesParams(mu=1.0, kernel=kernel, window=Window(T=5.0, M=4.0))
    F = HawkesCount(params5)
    rng = np.random.default_rng(seed)
    mismatches = 0
    n_queries = max(60, int(500 * scale))
    for _ in range(n_queries):
        k = int(rng.integers(1, 7))
        pts = random_distinct_points(rng, params5.window, k)
        if expansion.hawkes_coefficient(params5, pts) != expansion.coefficient_oracle(
            F, params5.window, pts
        ):
            mismatches += 1
    results.append(CheckResult(
        "coefficient-oracle-equality", mismatches == 0,
        f"{mismatches}/{n_queries} mismatches",
    ))

    # 3: Hawkes mean vs resolvent quadrature (exact thinning)
    spec = ExperimentSpec("hawkes_mean", params5, n(10_000), seed, thinning="exact")
    mean = run_experiment(spec).headline
    ana = expected_count_analytic(params5, build_ladder(kernel, 0.01, params5.window.T))
    ok = mean.within(ana.value, slack=ana.error_budget)
    results.append(CheckResult(
        "hawkes-mean-resolvent", ok,
        f"mc {mean.mean:.4f} +- {mean.se:.4f} vs analytic {ana.value:.4f}",
    ))

    # 4: Poisson reduction
    params0 = HawkesParams(mu=1.0, kernel=zero, window=Window(T=5.0, M=4.0))
    mean0 = run_experiment(ExperimentSpec("hawkes_mean", params0, n(10_000), seed)).headline
    pairs_ok = True
    F0 = HawkesCount(params0)
    for _ in range(20):
        pts = random_distinct_points(rng, params0.window, 2)
        base = sample_poisson(params0.window, (seed, int(rng.integers(1 << 30))))
        if iterated_difference(F0, base, pts) != 0.0:
            pairs_ok = False
            break
    results.append(CheckResult(
        "poisson-reduction",
        mean0.within(5.0) and pairs_ok,
        f"mc {mean0.mean:.4f} +- {mean0.se:.4f} vs 5, second differences zero: {pairs_ok}",
    ))

    # 5: characterization identity
    win_rect = Window(T=2.0, M=1.0)
    rep_rect = expansion.characterization_check(RectangleCount(win_rect), win_rect, 2, n(4000), (seed, 0))
    params_h = HawkesParams(mu=1.0, kernel=kernel, window=Window(T=2.0, M=4.0))
    rep_h = expansion.characterization_check(
        HawkesCount(params_h), params_h.window, 4, n(20_000), (seed, 0), points_per_path=2
    )
    ok = (
        rep_rect.residual.within(0.0)
        and rep_rect.terms[1].within(0.0)
        and rep_h.residual.within(0.0, slack=rep_h.truncation_budget)
    )
    results.append(CheckResult(
        "characterization-identity", ok,
        f"rect residual {rep_rect.residual.mean:.4f}, hawkes residual {rep_h.residual.mean:.4f} "
        f"(budget {rep_h.truncation_budget:.4f})",
    ))

    # 6: integration by parts, order 1
    win = Window(T=2.0, M=2.0)
    params_ipp = HawkesParams(mu=1.0, kernel=kernel, window=win)
    checks = [
        ipp_check_order1(HawkesCount(params_ipp), win, n(10_000), (seed, 0)),
        ipp_check_order1(RectangleCount(win), win, n(10_000), (seed, 0)),
        ipp_check_order1(ConstantFunctional(3.0, win), win, n(10_000), (seed, 0)),
    ]
    ok = all(c.diff.within(0.0) for c in checks) and checks[2].lhs.mean == 0.0
    results.append(CheckResult(
        "integration-by-parts", ok,
        "; ".join(f"diff {c.diff.mean:.4f} +- {c.diff.se:.4f}" for c in checks),
    ))

    # 7: branching martingale + mean
    res = branching.martingale_residual(params5, n(10_000), (seed, 0))
    ana5 = expected_count_analytic(params5, build_ladder(kernel, 0.01, 5.0))
    ok = res.residual.within(0.0) and res.total_mean.within(ana5.value, slack=ana5.error_budget)
    results.append(CheckResult(
        "branching-martingale", ok,
        f"residual {res.residual.mean:.4f} +- {res.residual.se:.4f}, "
        f"mean {res.total_mean.mean:.4f} vs {ana5.value:.4f}",
    ))

    # 8: jumps of size >= 2 occur
    hist = branching.jump_size_histogram(params5, n(10_000), (seed, 0))
    results.append(CheckResult(
        "simultaneous-jumps", hist.frac_ge2 > 0.01,
        f"frac >= 2: {hist.frac_ge2:.4f}",
    ))

    # 9: ladder masses and the exponential resolvent
    ladder = build_ladder(kernel, 0.01, 40.0)
    mass_ok = all(
        abs(ladder.level_l1(m) - kernel.l1_norm**m) < 1e-3 for m in range(1, 11)
    )
    ts = np.linspace(0.0, 5.0, 41)
    exact = 0.5 * np.exp(-0.5 * ts)
    point_ok = bool(np.max(np.abs(ladder.resolvent_at(ts) - exact)) < 1e-3)
    l1_ok = abs(ladder.resolvent_l1() - 1.0) < 1e-2
    results.append(CheckResult(
        "convolution-ladder", mass_ok and point_ok and l1_ok,
        f"resolvent L1 {ladder.resolvent_l1():.4f}",
    ))

    # 10: chain-length tail bound
    p_tail = 8
    tail_bound = params5.mu * params5.window.T * kernel.l1_norm**p_tail / (1 - kernel.l1_norm)
    masses = np.empty(n(10_000))
    for p in range(len(masses)):
        src = sample_poisson(params5.window, (seed + 1, p))
        totals = branching.chain_length_totals(params5, src)
        masses[p] = totals[p_tail:].sum()
    est = MCEstimate.from_samples(masses, seed=seed + 1)
    ok = est.mean <= tail_bound + 3.0 * (est.se or 0.0)
    results.append(CheckResult(
        "chain-length-tail", ok, f"mass {est.mean:.5f} vs bound {tail_bound:.5f}",
    ))
    return results


def random_distinct_points(rng, window: Window, k: int):
    from .configurations import Point

    while True:
        ts = rng.uniform(0.0, window.T, size=k)
        if len(set(ts)) == k:
            return [Point(float(t), float(th)) for t, th in zip(ts, rng.uniform(0.0, window.M, size=k))]
