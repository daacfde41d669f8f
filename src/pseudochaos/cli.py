"""Command-line front end: flat key=value configs, subcommand dispatch, CSV output.

Exit codes: 0 success, 1 failed check or I/O error, 2 usage/config error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import expansion, harness
from .configurations import (
    DEFAULT_ATOM_BUDGET, AtomBudgetExceeded, Point, Window, _write_rows, read_csv, sample_poisson,
)
from .hawkes import HawkesParams
from .kernels import Kernel, StabilityError, build_ladder
from .mc import MCEstimate


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mu: float = 1.0
    T: float = 5.0
    M: float = 4.0
    kernel: str = "exp"          # exp | table | zero
    alpha: float = 0.5
    beta: float = 1.0
    table: str = ""              # CSV path for table kernels
    seed: int = 7
    n_paths: int = 10_000
    h: float = 0.01              # quadrature grid step
    n_max: int = 40              # convolution ladder depth
    j_max: int = 4               # characterization orders
    points_per_path: int = 1
    thinning: str = "capped"     # capped | exact
    budget: int = DEFAULT_ATOM_BUDGET


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PARSERS = {"float": float, "int": int, "str": str}
_REQUIRED = ("mu", "T", "M", "kernel")


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines with # comments into a validated RunConfig."""
    cfg = _read_config(text)
    validate_config(cfg)
    return cfg


def _read_config(text: str) -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[_FIELD_TYPES[key]](val)
        except ValueError:
            raise ConfigError(f"line {lineno}: malformed {_FIELD_TYPES[key]} for {key!r}: {val!r}")
    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing key {key!r}")
    if values["kernel"] == "exp":
        for key in ("alpha", "beta"):
            if key not in values:
                raise ConfigError(f"missing key {key!r} (required for kernel = exp)")
    elif values["kernel"] == "table":
        if not values.get("table"):
            raise ConfigError("missing key 'table' (required for kernel = table)")
    elif values["kernel"] != "zero":
        raise ConfigError(f"unknown kernel {values['kernel']!r}; pick exp, table or zero")
    return RunConfig(**values)


def validate_config(cfg: RunConfig) -> HawkesParams:
    """Check cfg and return the process it describes; a kernel table is read
    here, once."""
    if cfg.mu <= 0.0:
        raise ConfigError(f"mu must be > 0, got {cfg.mu}")
    if cfg.budget < 0:
        raise ConfigError(f"budget must be >= 0, got {cfg.budget}")
    if cfg.thinning not in ("capped", "exact"):
        raise ConfigError(f"thinning must be 'capped' or 'exact', got {cfg.thinning!r}")
    try:
        return build_params(cfg)
    except OSError as exc:
        raise ConfigError(f"cannot read kernel table {cfg.table!r}: {exc}") from exc
    except StabilityError as exc:
        raise StabilityError(
            f"{exc} (kernel={cfg.kernel}, alpha={cfg.alpha}, beta={cfg.beta})"
        ) from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        # repr would quote strings in a way the parser keeps literally
        lines.append(f"{f.name} = {value}" if isinstance(value, str) else f"{f.name} = {value!r}")
    return "\n".join(lines) + "\n"


def build_kernel(cfg: RunConfig) -> Kernel:
    if cfg.kernel == "exp":
        return Kernel.exponential(cfg.alpha, cfg.beta)
    if cfg.kernel == "zero":
        return Kernel.zero()
    return Kernel.from_csv(cfg.table)


def build_params(cfg: RunConfig) -> HawkesParams:
    return HawkesParams(mu=cfg.mu, kernel=build_kernel(cfg), window=Window(T=cfg.T, M=cfg.M))


def _load_config(ns) -> tuple[RunConfig, HawkesParams]:
    cfg = _read_config(Path(ns.config).read_text()) if ns.config else RunConfig()
    params = validate_config(cfg)
    if ns.seed is not None:
        cfg.seed = ns.seed
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if ns.paths is not None:
        cfg.n_paths = ns.paths
    return cfg, params


def _require_band(cfg: RunConfig) -> None:
    """A 3-se band needs an se, which one path cannot give."""
    if cfg.n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2 for a 3-se band check, got {cfg.n_paths}")


def _spec(cfg: RunConfig, params: HawkesParams, statistic: str, **overrides) -> harness.ExperimentSpec:
    """The experiment cfg describes for one statistic; overrides win."""
    settings = dict(thinning=cfg.thinning, budget=cfg.budget, j_max=cfg.j_max,
                    points_per_path=cfg.points_per_path) | overrides
    return harness.ExperimentSpec(statistic, params, cfg.n_paths, cfg.seed, **settings)


def _out_path(ns, name: str) -> Path | None:
    """The named file in --out's directory, made if missing; None (stdout) without --out."""
    if ns.out is None:
        return None
    Path(ns.out).mkdir(parents=True, exist_ok=True)
    return Path(ns.out) / name


def _parse_points(text: str) -> list[Point]:
    points = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            t, theta = chunk.split(":")
            points.append(Point(float(t), float(theta)))
        except ValueError as exc:
            raise ConfigError(f"bad point {chunk!r}, expected t:theta") from exc
    if not points:
        raise ConfigError("no points given")
    return points


def _pm(est: MCEstimate) -> str:
    """'mean +- se' at 5 decimals; a single-sample estimate has no se."""
    se = "n/a" if est.se is None else f"{est.se:.5f}"
    return f"{est.mean:.5f} +- {se}"


def cmd_simulate(cfg: RunConfig, params: HawkesParams, ns) -> int:
    res = harness.run_experiment(_spec(cfg, params, "hawkes_mean"), out_dir=ns.out)
    h = res.headline
    print(f"event count over {h.n} paths ({cfg.thinning}): {_pm(h)}")
    print(f"overflow fraction: {res.extra['overflow_fraction']:.5f}")
    return 0


def cmd_expect(cfg: RunConfig, params: HawkesParams, ns) -> int:
    _require_band(cfg)
    ladder = build_ladder(params.kernel, cfg.h, cfg.T, cfg.n_max)
    ana = harness.expected_count_analytic(params, ladder)
    spec = _spec(cfg, params, "hawkes_mean", thinning="exact")
    mc = harness.run_experiment(spec, out_dir=ns.out).headline
    ok = mc.within(ana.value, slack=ana.error_budget)
    print(f"analytic mean: {ana.value:.5f} (error budget {ana.error_budget:.2g})")
    print(f"mc mean ({mc.n} paths, exact thinning): {_pm(mc)}")
    print("agreement within 3 se + budget:", "yes" if ok else "NO")
    return 0 if ok else 1


def cmd_coeff(cfg: RunConfig, params: HawkesParams, ns) -> int:
    queries = []
    if ns.points:
        queries.append(_parse_points(ns.points))
    if ns.random:
        if ns.k_max < 1:
            raise ConfigError(f"--k-max must be >= 1, got {ns.k_max}")
        rng = np.random.default_rng(cfg.seed)
        for _ in range(ns.random):
            k = int(rng.integers(1, ns.k_max + 1))
            queries.append(harness.random_distinct_points(rng, params.window, k))
    if not queries:
        raise ConfigError("coeff needs --points or --random N")
    k_top = max(len(q) for q in queries)
    header = ["k"] + [f"{name}_{i}" for i in range(1, k_top + 1) for name in ("t", "theta")]
    header.append("c_k")
    rows = []
    for q in queries:
        flat = []
        for p in sorted(q, key=lambda p: p.t):
            flat += [p.t, p.theta]
        flat += [""] * (2 * k_top - len(flat))
        c_k = expansion.hawkes_coefficient(params, q, budget=cfg.budget)
        rows.append([len(q)] + flat + [c_k])
    path = _write_rows(_out_path(ns, "coefficients.csv"), header, rows)
    if path is not None:
        print(f"wrote {path}")
    return 0


def cmd_reconstruct(cfg: RunConfig, params: HawkesParams, ns) -> int:
    if ns.atoms:
        source = read_csv(ns.atoms, params.window)
        provenance = ns.atoms
    else:
        source = sample_poisson(params.window, (cfg.seed, 0))
        provenance = f"rng_key={cfg.seed},0"
    report = expansion.reconstruct(params, source, budget=cfg.budget)
    rows = [[k + 1, v] for k, v in enumerate(report.per_size)]
    rows.append(["source", provenance])
    rows.append(["total", report.total])
    rows.append(["event_count", report.event_count])
    rows.append(["exact_match", report.exact_match])
    path = _write_rows(_out_path(ns, "reconstruction.csv"), ["k", "coefficient_sum"], rows)
    if path is not None:
        print(f"wrote {path}")
    return 0 if report.exact_match else 1


def cmd_branching(cfg: RunConfig, params: HawkesParams, ns) -> int:
    res = harness.run_experiment(_spec(cfg, params, "histogram"), out_dir=ns.out)
    total = res.extra["total_mean"]
    print(f"mean value at horizon: {_pm(total)}")
    print(f"fraction of jumps >= 2: {res.extra['frac_jumps_ge2']:.5f}")
    return 0


def cmd_characterize(cfg: RunConfig, params: HawkesParams, ns) -> int:
    _require_band(cfg)
    res = harness.run_experiment(_spec(cfg, params, "characterization"), out_dir=ns.out)
    report = res.extra["report"]
    for j, term in enumerate(report.terms, start=1):
        print(f"order {j}: {_pm(term)}")
    print(f"cumulative: {_pm(report.cumulative)}")
    print(f"reference E[F]: {_pm(report.reference)}")
    print(f"residual: {_pm(report.residual)} "
          f"(truncation budget {report.truncation_budget:.5f})")
    ok = report.residual.within(0.0, slack=report.truncation_budget)
    print("identity holds within 3 se + budget:", "yes" if ok else "NO")
    return 0 if ok else 1


def cmd_ipp(cfg: RunConfig, params: HawkesParams, ns) -> int:
    _require_band(cfg)
    ok = True
    for name in harness.IPP_FUNCTIONALS:
        out_dir = None if ns.out is None else Path(ns.out) / name
        res = harness.run_experiment(_spec(cfg, params, "ipp", functional=name), out_dir=out_dir)
        check = res.extra["check"]
        good = check.diff.within(0.0)
        if name == "constant":
            good = good and check.lhs.mean == 0.0
        ok &= good
        print(f"{name}: lhs {check.lhs.mean:.5f} rhs {check.rhs.mean:.5f} "
              f"diff {_pm(check.diff)} -> {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def cmd_selfcheck(cfg: RunConfig, params: HawkesParams, ns) -> int:
    results = harness.selfcheck()
    failed = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        failed += not r.passed
    return 0 if failed == 0 else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "coeff": cmd_coeff,
    "reconstruct": cmd_reconstruct,
    "expect": cmd_expect,
    "branching": cmd_branching,
    "characterize": cmd_characterize,
    "ipp": cmd_ipp,
    "selfcheck": cmd_selfcheck,
}


# what else a run that meets the atom budget can change, by subcommand
_BUDGET_HINTS = {
    "reconstruct": ", pass fewer atoms with --atoms, or pick another --seed",
    "characterize": ", or lower j_max",
}


def build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pseudochaos",
        description="expansion coefficients, reconstruction audits and Monte Carlo "
                    "checks for self-exciting counting processes",
    )
    ap.add_argument("--config", help="path to a key = value config file")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--out", help="directory for CSV artifacts")
    ap.add_argument("--paths", type=int, help="override the number of Monte Carlo paths")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if name == "coeff":
            sp.add_argument("--points", help="comma-separated t:theta pairs")
            sp.add_argument("--random", type=int, default=0, help="emit N random queries")
            sp.add_argument("--k-max", dest="k_max", type=int, default=4)
        if name == "reconstruct":
            sp.add_argument("--atoms", help="CSV of atoms (t,theta) to reconstruct")
    return ap


def main(argv=None) -> int:
    ns = build_argparser().parse_args(argv)
    try:
        cfg, params = _load_config(ns)
        return _COMMANDS[ns.command](cfg, params, ns)
    except (ValueError, AtomBudgetExceeded, FileNotFoundError, MemoryError) as exc:
        # numpy refuses an allocation larger than memory at once, having used
        # none, and one past the address space or the largest arange with
        # ValueError("array is too big" or "Maximum allowed size exceeded")
        too_big = isinstance(exc, MemoryError) or any(
            s in str(exc) for s in ("array is too big", "Maximum allowed size exceeded"))
        hint = "; lower T, M, n_paths or n_max, or raise h" if too_big else ""
        if isinstance(exc, AtomBudgetExceeded):
            hint = "; raise budget in the --config file" + _BUDGET_HINTS.get(ns.command, "")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
