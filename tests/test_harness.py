import hashlib
import math

import numpy as np
import pytest

from pseudochaos import (
    AtomBudgetExceeded,
    ExperimentSpec,
    HawkesParams,
    Kernel,
    MCEstimate,
    RectangleCount,
    Window,
    build_ladder,
    expected_count_analytic,
    ipp_check_order1,
    jump_size_histogram,
    martingale_residual,
    reconstruction_audit,
    run_experiment,
)
from pseudochaos import expansion
from pseudochaos.configurations import _pad_rows, _poisson_arrays
from pseudochaos.harness import (
    CLOSED_FORM_MEAN_T5,
    AuditResult,
    CheckResult,
    _reconstruction_flags,
    _verdict,
)
from pseudochaos.mc import rng_from_key


def test_analytic_mean_zero_kernel(zero_kernel):
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=Window(T=5.0, M=4.0))
    ladder = build_ladder(zero_kernel, 0.01, 6.0)
    ana = expected_count_analytic(params, ladder)
    assert ana.value == 5.0
    assert ana.error_budget == 0.0


def test_analytic_mean_matches_closed_form(params_default, exp_kernel):
    ladder = build_ladder(exp_kernel, 0.01, 6.0)
    ana = expected_count_analytic(params_default, ladder)
    assert abs(ana.value - CLOSED_FORM_MEAN_T5) <= ana.error_budget + 1e-9
    assert ana.error_budget < 1e-3


def test_analytic_mean_is_linear_in_mu(exp_kernel):
    ladder = build_ladder(exp_kernel, 0.01, 6.0)
    one = expected_count_analytic(
        HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=5.0, M=4.0)), ladder
    )
    two = expected_count_analytic(
        HawkesParams(mu=2.0, kernel=exp_kernel, window=Window(T=5.0, M=4.0)), ladder
    )
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)


def test_analytic_mean_on_a_two_node_ladder(exp_kernel):
    # the coarse half-grid holds one node, so the budget is the whole double integral
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=1.0, M=4.0))
    ana = expected_count_analytic(params, build_ladder(exp_kernel, 1.0, 1.0))
    closed = 1.0 + 1.0 - 2.0 * (1.0 - math.exp(-0.5))
    assert abs(ana.value - closed) <= ana.error_budget


def test_failed_criterion_names_its_failed_sub_checks():
    result = _verdict("criterion 0", "headline", {"a ~ 0": True, "b ~ 0": False, "c": False})
    assert result == CheckResult("criterion 0", False, "headline; FAILED: b ~ 0; c")
    assert _verdict("criterion 0", "headline", {"a ~ 0": True}).passed


def test_analytic_mean_requires_covering_horizon(params_default, exp_kernel):
    ladder = build_ladder(exp_kernel, 0.01, 3.0)
    with pytest.raises(ValueError, match="horizon"):
        expected_count_analytic(params_default, ladder)


def test_run_experiment_is_deterministic(tmp_path, params_default):
    spec = ExperimentSpec("hawkes_mean", params_default, 300, seed=5)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    res_a = run_experiment(spec, out_dir=out_a)
    res_b = run_experiment(spec, out_dir=out_b)
    assert res_a.headline == res_b.headline
    for name in ("results.csv", "paths.csv", "run.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_experiment_parallel_matches_serial(tmp_path, params_default, params_small):
    specs = [
        ExperimentSpec("hawkes_mean", params_default, 600, seed=6),
        ExperimentSpec("hawkes_mean", params_default, 600, seed=6, thinning="exact"),
        ExperimentSpec("reconstruction", params_small, 600, seed=6, budget=6),
        ExperimentSpec("residual", params_default, 600, seed=6),
        ExperimentSpec("histogram", params_default, 600, seed=6),
        # 600 paths are two characterization chunks of up to 512
        ExperimentSpec("characterization", params_small, 600, seed=6, j_max=3, points_per_path=2),
        # 600 paths are three runner chunks of up to 256
        *(ExperimentSpec("ipp", params_small, 600, seed=6, functional=name)
          for name in ("hawkes_count", "window_count", "constant")),
    ]
    for i, spec in enumerate(specs):
        serial = run_experiment(spec, out_dir=tmp_path / f"serial{i}", n_jobs=1)
        parallel = run_experiment(spec, out_dir=tmp_path / f"parallel{i}", n_jobs=2)
        assert serial.headline == parallel.headline, spec
        assert serial.extra == parallel.extra, spec
        assert [a.name for a in serial.artifacts] == [b.name for b in parallel.artifacts]
        for a, b in zip(serial.artifacts, parallel.artifacts):
            assert a.read_bytes() == b.read_bytes(), (spec, a.name)


def test_characterization_statistic_honours_the_budget(params_small):
    spec = ExperimentSpec("characterization", params_small, 10, seed=6, j_max=3, budget=2)
    with pytest.raises(AtomBudgetExceeded, match="3 atoms exceed the enumeration budget of 2"):
        run_experiment(spec)


def test_reconstruction_audit_matches_runner(exp_kernel):
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=3.0, M=4.0))
    res = run_experiment(ExperimentSpec("reconstruction", params, 300, seed=24, budget=6))
    assert reconstruction_audit(params, 300, (24, 0), budget=6) == res.extra["audit"]


def _per_path_audit(params, budget, seed, start, stop):
    """The audit's reference: one path at a time, `_coefficient_table` on the
    path's own draws. Per path, (per_size, event_count, flag), with
    (None, None, -1) for a path over budget."""
    out = []
    for p in range(start, stop):
        times, marks = _poisson_arrays(params.window, rng_from_key((seed, p)))
        if len(times) > budget:
            out.append((None, None, -1))
        else:
            per_size, event_count = expansion._coefficient_table(params, times, marks)
            out.append((per_size, event_count, int(sum(per_size) == event_count)))
    return out


@pytest.mark.parametrize("kernel", ["exp", "table"])
@pytest.mark.parametrize(
    "T, M, start",
    [
        (3.0, 2.0, 0),     # the audit window of criterion 1
        (3.0, 2.0, 37),    # a start that is not a multiple of the 256-path chunk
        (5.0, 4.0, 37),    # the desk window: about 29% of paths over the budget
        (2.0, 1.0, 0),     # M = mu: every atom always accepted; 14% of paths empty
        (0.3, 1.0, 0),     # 74% of paths empty
    ],
)
def test_packed_audit_matches_the_per_path_loop(kernel, T, M, start, exp_kernel, table_kernel, monkeypatch):
    params = HawkesParams(mu=1.0, kernel={"exp": exp_kernel, "table": table_kernel}[kernel],
                          window=Window(T=T, M=M))
    n, budget, seed = 300, 22, 3131
    reference = _per_path_audit(params, budget, seed, start, start + n)
    if M == params.mu:
        # every atom is accepted on every subset: no table may be built
        monkeypatch.setattr(expansion, "_size_counts", lambda *args: pytest.fail("table built"))
    flags = _reconstruction_flags(params, budget, seed, start, start + n)
    assert flags.tolist() == [flag for _, _, flag in reference]

    draws = [_poisson_arrays(params.window, rng_from_key((seed, p))) for p in range(start, start + n)]
    kept = [draw for draw, (_, _, flag) in zip(draws, reference) if flag >= 0]
    times, marks, counts = _pad_rows([t for t, _ in kept], [th for _, th in kept])
    per_size, events = expansion._packed_coefficient_tables(params, times, marks, counts)
    checked = [(sizes, count) for sizes, count, flag in reference if flag >= 0]
    assert len(checked) == len(per_size)
    if T * M <= 2.0:
        assert (counts == 0).any()
    for row, count, (sizes, event_count), n_atoms in zip(per_size, events, checked, counts):
        assert row.tolist() == sizes + [0] * (len(row) - n_atoms)
        assert count == event_count


def test_reconstruction_audit_refuses_fewer_than_one_path(params_small):
    for n_paths in (0, -1):
        with pytest.raises(ValueError, match=f"n_paths must be >= 1, got {n_paths}"):
            reconstruction_audit(params_small, n_paths, (24, 0))


def test_chain_reports_match_runner(params_default):
    res = run_experiment(ExperimentSpec("residual", params_default, 300, seed=25))
    assert martingale_residual(params_default, 300, (25, 0)).residual == res.headline
    hist = jump_size_histogram(params_default, 300, (25, 0))
    assert hist.frac_ge2 == res.extra["frac_jumps_ge2"]
    assert martingale_residual(params_default, 300, (25, 0)).total_mean == res.extra["total_mean"]


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_chain_and_audit_reports_at_a_key_offset_are_pinned(params_default, params_small):
    # path p draws from (seed, base + p): pinned at base 37, so the layout
    # cannot shift to (seed, p) or to a chunk-indexed key unnoticed
    audit = reconstruction_audit(params_small, 200, (24, 37), budget=6)
    assert audit == AuditResult(n_checked=115, n_exact=115, n_skipped_budget=85)
    residual = martingale_residual(params_default, 300, (25, 37))
    assert residual.residual.mean == -0.12464945790057304
    assert _sha(residual) == "b95f9352e95546dce7d30834bdc89b5e36bc5cd483acb2091bc175265046089e"
    hist = jump_size_histogram(params_default, 300, (25, 37))
    assert (hist.n_jumps, hist.frac_ge2) == (1482, 0.2321187584345479)
    assert _sha(hist) == "266b105c08fd72dd7dde0345db4d9dea2981dd2b9c8e9eaa51d4cd364175d467"


def test_reconstruction_artifacts_are_pinned(tmp_path, params_default):
    # 3000 desk paths: about 29% pass the 22-atom budget and are flagged -1,
    # every other path rebuilds its count exactly
    run_experiment(ExperimentSpec("reconstruction", params_default, 3000, seed=2626), out_dir=tmp_path)
    flags = (tmp_path / "reconstruction.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in flags} == {"-1", "1"}
    digests = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("reconstruction.csv", "results.csv")
    ]
    assert digests == [
        "60bdcc5d9536cebcf8d8432bb41077d8363464632e7bbea0abdccc95e073818b",
        "06736840c2d822b04f97e6d6193811366537905f79ca023052a2b5da8eedb08e",
    ]


def test_histogram_without_jumps_reports_one_zero_sample(tmp_path, exp_kernel):
    # so small a baseline leaves every path empty: no jump to take a fraction of
    params = HawkesParams(mu=0.001, kernel=exp_kernel, window=Window(T=0.1, M=4.0))
    res = run_experiment(ExperimentSpec("histogram", params, 5, seed=7), out_dir=tmp_path)
    assert res.headline == MCEstimate(n=1, mean=0.0, se=None, seed=7)
    assert res.extra["frac_jumps_ge2"] == 0.0
    assert res.extra["total_mean"].mean == 0.0
    assert (tmp_path / "jumps.csv").read_text().splitlines() == ["path_id,t,jump_size"]


def test_single_path_has_no_standard_error(params_default):
    spec = ExperimentSpec("hawkes_mean", params_default, 1, seed=7)
    assert run_experiment(spec).headline.se is None


def test_band_check_refuses_a_one_sample_estimate():
    w = Window(T=2.0, M=2.0)
    diff = ipp_check_order1(RectangleCount(w), w, 1, (7, 0)).diff
    assert diff.n == 1 and diff.se is None
    with pytest.raises(ValueError, match="one-sample estimate"):
        diff.within(0.0)
    with pytest.raises(ValueError, match="one-sample estimate"):
        MCEstimate.from_samples([3.0]).within(3.0, slack=1.0)


def test_band_check_with_zero_se_is_a_point_band():
    est = MCEstimate.from_samples([2.0, 2.0, 2.0])
    assert est.se == 0.0
    assert est.within(2.0)
    assert not est.within(2.5)
    assert est.within(2.5, slack=0.5)


def test_se_halves_when_paths_quadruple(params_default):
    small = run_experiment(ExperimentSpec("hawkes_mean", params_default, 400, seed=8))
    large = run_experiment(ExperimentSpec("hawkes_mean", params_default, 1600, seed=9))
    ratio = large.headline.se / small.headline.se
    assert 0.3 <= ratio <= 0.7


def test_reconstruction_audit_small_window(params_small):
    audit = reconstruction_audit(params_small, 150, (21, 0))
    assert audit.n_checked == 150
    assert audit.n_exact == 150
    assert audit.n_skipped_budget == 0


def test_reconstruction_audit_zero_kernel_all_exact(zero_kernel):
    # flat kernel: the expansion carries order-one terms only
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=Window(T=3.0, M=2.0))
    audit = reconstruction_audit(params, 100, (23, 0))
    assert audit.n_exact == audit.n_checked == 100


def test_reconstruction_audit_skips_over_budget(exp_kernel):
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=3.0, M=4.0))
    audit = reconstruction_audit(params, 60, (22, 0), budget=6)
    assert audit.n_skipped_budget > 0
    assert audit.n_exact == audit.n_checked
    assert audit.n_checked + audit.n_skipped_budget == 60


def test_run_experiment_reconstruction_statistic(params_small):
    spec = ExperimentSpec("reconstruction", params_small, 80, seed=10)
    res = run_experiment(spec)
    audit = res.extra["audit"]
    assert audit.n_exact == audit.n_checked == 80
    assert res.headline.mean == 1.0


def test_run_experiment_branching_statistics(tmp_path, params_default):
    spec = ExperimentSpec("histogram", params_default, 250, seed=11)
    res = run_experiment(spec, out_dir=tmp_path)
    assert 0.0 < res.extra["frac_jumps_ge2"] < 1.0
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "residual_mean,residual_se,frac_jumps_ge2"
    jumps = (tmp_path / "jumps.csv").read_text().splitlines()
    assert jumps[0] == "path_id,t,jump_size"
    assert len(jumps) > 1


def test_run_experiment_characterization_statistic(params_small):
    spec = ExperimentSpec("characterization", params_small, 400, seed=12, j_max=2)
    res = run_experiment(spec)
    report = res.extra["report"]
    assert report.j_max == 2
    assert res.headline == report.residual


def test_run_experiment_ipp_statistic(params_small):
    spec = ExperimentSpec("ipp", params_small, 400, seed=13)
    res = run_experiment(spec)
    assert res.extra["check"].diff == res.headline


def test_spec_validation(params_small):
    with pytest.raises(ValueError, match="statistic"):
        ExperimentSpec("nonsense", params_small, 10, seed=0)
    with pytest.raises(ValueError, match="n_paths"):
        ExperimentSpec("hawkes_mean", params_small, 0, seed=0)
    with pytest.raises(ValueError, match="functional"):
        ExperimentSpec("ipp", params_small, 10, seed=0, functional="nonsense")


def test_spec_refuses_a_negative_budget(params_small):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        ExperimentSpec("reconstruction", params_small, 10, seed=0, budget=-1)

