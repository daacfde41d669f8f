import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pseudochaos import (
    AtomBudgetExceeded,
    Configuration,
    ExperimentSpec,
    HawkesCount,
    HawkesParams,
    Kernel,
    MCEstimate,
    Point,
    TimeCollisionError,
    Window,
    chaotic_coefficient_mc,
    characterization_check,
    coefficient_oracle,
    hawkes_coefficient,
    reconstruct,
    run_experiment,
    sample_poisson,
    solve_path,
)
from pseudochaos.configurations import DEFAULT_ATOM_BUDGET, _poisson_arrays
from pseudochaos.expansion import (
    _DEAD,
    _coefficient_table,
    _signed_binomial_table,
    _size_histograms,
)
from pseudochaos.harness import _reconstruction_flags, random_distinct_points
from pseudochaos.hawkes import _intensity
from pseudochaos.malliavin import RectangleCount, iterated_difference
from pseudochaos.mc import rng_from_key

PHI_AT_1 = 0.5 * math.exp(-1.0)


def reconstruct_direct(params, source):
    """The plain reading of the reconstruction identity: per-size sums of
    hawkes_coefficient over every atom subset, one query per subset."""
    # coefficient queries validate against the params window; lift it when
    # the source lives on a larger one (exact-thinning candidates may)
    if source.window != params.window:
        params = HawkesParams(mu=params.mu, kernel=params.kernel, window=source.window)
    per_size = [0] * len(source)
    for k in range(1, len(source) + 1):
        for combo in itertools.combinations(source.atoms, k):
            per_size[k - 1] += hawkes_coefficient(params, combo)
    return tuple(per_size)


def coefficient_table_by_passes(params, config):
    """The O(n 2^n) table the subset-doubling one replaced: one pass per
    earlier atom over all masks for the intensities (active[mask] carries
    which atoms the triangular solve accepts on `mask`), and one per bit for
    the Moebius sums."""
    n = len(config)
    times, marks = config.times, config.marks
    mu, kernel = params.mu, params.kernel
    per_size = np.zeros(n + 1)
    active = np.zeros(1, dtype=np.int64)
    sizes = np.zeros(1, dtype=np.int64)
    for i in range(n):
        row = kernel._eval(times[i] - times[:i]) if i else ()
        bits = ((active >> j) & 1 for j in range(i))
        ind = marks[i] <= _intensity(np.full(1 << i, mu), row, bits)
        active = np.concatenate([active, active | (np.int64(1 << i) * ind)])
        g = ind.astype(np.int64)
        for b in range(i):
            blocks = g.reshape(-1, 2, 1 << b)
            blocks[:, 1, :] -= blocks[:, 0, :]
            g = blocks.reshape(-1)
        per_size += np.bincount(sizes + 1, weights=g, minlength=n + 1)
        sizes = np.concatenate([sizes, sizes + 1])
    return [int(round(v)) for v in per_size[1:]]


def table_live(params, config):
    """Which atoms the subset table keeps live (accepted on some subset)."""
    return tuple(h is not _DEAD for _, h in _size_histograms(params, config.times, config.marks))


def assert_table_events_are_the_paths(params, config):
    path = solve_path(params, config)
    assert table_live(params, config) == path.accepted
    assert reconstruct(params, config).event_count == path.event_count


def report_fields(report):
    return report.per_size, report.total, report.event_count, report.exact_match


@pytest.fixture(scope="module")
def count_small(params_small):
    return HawkesCount(params_small)


def test_order_one_coefficient_is_baseline_indicator(params_small):
    assert hawkes_coefficient(params_small, [Point(1.0, 0.5)]) == 1
    assert hawkes_coefficient(params_small, [Point(1.0, 1.5)]) == 0


def test_order_two_worked_examples(params_small):
    # -1{1.1 <= 1} + 1{1.1 <= 1 + phi(1)} = 1
    pts = [Point(1.0, 0.5), Point(2.0, 1.1)]
    assert hawkes_coefficient(params_small, pts) == 1
    # -1{0.9 <= 1} + 1{0.9 <= 1 + phi(1)} = 0
    pts = [Point(1.0, 0.5), Point(2.0, 0.9)]
    assert hawkes_coefficient(params_small, pts) == 0


def test_coefficient_is_symmetric(params_small):
    rng = np.random.default_rng(8)
    for _ in range(20):
        pts = random_distinct_points(rng, params_small.window, int(rng.integers(2, 5)))
        reference = hawkes_coefficient(params_small, pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert hawkes_coefficient(params_small, shuffled) == reference


def test_coefficient_values_are_integers(params_small):
    rng = np.random.default_rng(6)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        pts = random_distinct_points(rng, params_small.window, k)
        value = hawkes_coefficient(params_small, pts)
        assert isinstance(value, int)
        if k == 1:
            assert value in (0, 1)
        else:
            assert abs(value) <= 2 ** (k - 1)


def test_coefficient_vanishes_on_inert_tail(params_small):
    # the latest mark exceeds mu plus every kernel contribution, so every
    # indicator in the alternating sum is zero
    pts = [Point(0.5, 0.1), Point(1.0, 0.1), Point(2.0, 1.9)]
    bound = 1.0 + float(params_small.kernel(1.0)) + float(params_small.kernel(1.5))
    assert pts[-1].theta > bound
    assert hawkes_coefficient(params_small, pts) == 0


def test_coefficient_is_zero_at_a_dead_or_always_accepted_point(params_small, count_small):
    phi = params_small.kernel
    # a point whose mark exceeds mu plus every earlier lag is accepted on no
    # subset; the subsets with and without it cancel
    earlier_dead = [Point(0.5, 0.5), Point(1.5, 1.9), Point(2.0, 1.1)]
    assert 1.9 > 1.0 + float(phi(1.0))
    assert hawkes_coefficient(params_small, [earlier_dead[0], earlier_dead[2]]) == 1
    last_dead = [Point(0.5, 0.5), Point(1.0, 0.7), Point(2.0, 1.3)]
    assert 1.3 > 1.0 + float(phi(1.5)) + float(phi(1.0))
    # a latest mark at most mu is accepted on every subset: the binomial row
    # sums to 0 with alternating signs once k >= 2
    always = [
        [Point(0.5, 0.5), Point(2.0, 1.0)],
        [Point(0.5, 0.5), Point(1.0, 1.1), Point(2.0, 1.0)],
        [Point(0.5, 1.9), Point(1.0, 0.3), Point(1.5, 1.05), Point(2.0, 0.0)],
    ]
    for pts in [earlier_dead, last_dead] + always:
        assert hawkes_coefficient(params_small, pts) == 0
        assert coefficient_oracle(count_small, params_small.window, pts) == 0


def test_coefficient_errors(params_small):
    with pytest.raises(TimeCollisionError):
        hawkes_coefficient(params_small, [Point(1.0, 0.5), Point(1.0, 0.6)])
    with pytest.raises(ValueError):
        hawkes_coefficient(params_small, [])
    with pytest.raises(ValueError):
        hawkes_coefficient(params_small, [Point(5.0, 0.5)])  # outside window
    many = [Point(0.05 * (i + 1), 0.5) for i in range(8)]
    with pytest.raises(AtomBudgetExceeded):
        hawkes_coefficient(params_small, many, budget=6)


def test_coefficient_oracle_worked_examples(count_small, params_small):
    w = params_small.window
    assert coefficient_oracle(count_small, w, [Point(1.0, 0.5)]) == 1.0
    pts = [Point(1.0, 0.5), Point(2.0, 1.1)]
    assert coefficient_oracle(count_small, w, pts) == 1.0


def test_closed_form_equals_oracle_on_random_queries(
    count_small, params_small, knife_edge_configs, params_small_table, knife_edge_configs_table,
    pruning_edge_configs,
):
    rng = np.random.default_rng(99)
    queries = [
        random_distinct_points(rng, params_small.window, int(rng.integers(1, 6)))
        for _ in range(80)
    ]
    # the full subset of a knife-edge query puts its latest mark on the edge
    queries += [c.atoms for c in knife_edge_configs if 0 < len(c) <= 6]
    for pts in queries:
        closed = hawkes_coefficient(params_small, pts)
        brute = coefficient_oracle(count_small, params_small.window, pts)
        assert closed == brute
    # the benchmark's coefficient queries reach k = 9; the table kernel's
    # knife-edge configurations join at every size
    cases = [(params_small, c.atoms) for c in knife_edge_configs if len(c) > 6]
    cases += [(params_small_table, c.atoms) for c in knife_edge_configs_table if len(c)]
    for params in (params_small, params_small_table):
        cases += [
            (params, random_distinct_points(rng, params.window, k))
            for k in (7, 8, 9)
            for _ in range(6)
        ]
    # every prefix of up to 8 points of a pruning-edge configuration: dead,
    # always accepted and knife-edge points in every position
    cases += [
        (params, config.atoms[:k])
        for params, config in pruning_edge_configs
        for k in range(1, min(len(config), 8) + 1)
    ]
    for params, pts in cases:
        brute = coefficient_oracle(HawkesCount(params), params.window, pts)
        assert hawkes_coefficient(params, pts) == brute


def test_coefficient_table_equals_the_pass_per_atom_table(
    params_small, knife_edge_configs, params_small_table, knife_edge_configs_table,
    pruning_edge_configs,
):
    rng = np.random.default_rng(98)
    for params, knife_edge in [
        (params_small, knife_edge_configs),
        (params_small_table, knife_edge_configs_table),
    ]:
        seeded = [
            Configuration(
                params.window,
                tuple(sorted(random_distinct_points(rng, params.window, n), key=lambda p: p.t)),
            )
            for n in range(12, 21)
        ]
        for config in seeded + knife_edge:
            assert _coefficient_table(params, config.times, config.marks)[0] == coefficient_table_by_passes(params, config)
    for params, config in pruning_edge_configs:
        assert _coefficient_table(params, config.times, config.marks)[0] == coefficient_table_by_passes(params, config)


@given(st.data())
def test_closed_form_equals_oracle_property(params_small, data):
    grid = data.draw(
        st.lists(st.integers(0, 28), unique=True, min_size=1, max_size=4)
    )
    marks = data.draw(
        st.lists(
            st.integers(0, 19), min_size=len(grid), max_size=len(grid)
        )
    )
    pts = [
        Point(0.05 + 0.1 * g, 0.05 + 0.1 * m) for g, m in zip(grid, marks)
    ]
    F = HawkesCount(params_small)
    assert hawkes_coefficient(params_small, pts) == coefficient_oracle(
        F, params_small.window, pts
    )


def test_reconstruct_empty_configuration(params_small):
    report = reconstruct(params_small, Configuration.empty(params_small.window))
    assert report.total == 0
    assert report.event_count == 0
    assert report.exact_match
    assert report.per_size == ()


def test_reconstruct_two_atom_worked_example(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5), Point(2.0, 1.1)))
    report = reconstruct(params_small, source)
    # c1 contributes 1 + 0 (second atom sits above mu), c2 contributes 1
    assert report.per_size == (1, 1)
    assert report.total == 2
    assert report.event_count == 2
    assert report.exact_match


def test_reconstruct_inert_atom(params_small):
    source = Configuration(params_small.window, (Point(1.0, 1.5),))
    report = reconstruct(params_small, source)
    assert report.total == 0
    assert report.exact_match


def test_reconstruct_shared_equals_direct(params_small):
    for i in range(25):
        source = sample_poisson(Window(T=2.0, M=2.0), (311, i))
        if len(source) > 8:
            continue
        lifted = Configuration(params_small.window, source.atoms)
        fast = reconstruct(params_small, lifted)
        slow = reconstruct_direct(params_small, lifted)
        assert fast.per_size == slow
        assert fast.total == sum(slow)
        assert fast.exact_match and sum(slow) == fast.event_count


def test_reconstruct_matches_on_larger_paths(
    params_small, knife_edge_configs, params_small_table, knife_edge_configs_table
):
    sources = [sample_poisson(params_small.window, (313, i)) for i in range(40)]
    for i, source in enumerate(sources + knife_edge_configs):
        report = reconstruct(params_small, source)
        assert report.exact_match, (i, report.per_size, report.event_count)
    for i, source in enumerate(knife_edge_configs_table):
        report = reconstruct(params_small_table, source)
        assert report.exact_match, (i, report.per_size, report.event_count)


@pytest.mark.parametrize("mark", [0.0, 1.0])
def test_reconstruct_of_always_accepted_atoms_builds_no_table(params_default, mark):
    # every mark at most mu: each atom is accepted on every subset, so the
    # table is the binomial rows alone, at the 22-atom budget
    atoms = tuple(Point(0.2 * (i + 1), mark) for i in range(22))
    source = Configuration(params_default.window, atoms)
    tracemalloc.start()
    report = reconstruct(params_default, source)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert report.per_size == (22,) + (0,) * 21
    assert report.exact_match and report.event_count == 22
    # a table over the 2**21 masks of the earlier atoms would take 16 MB
    assert peak < 1 << 20


def test_reconstruct_of_the_all_live_worst_case_stays_small(params_default):
    # a first mark of 0.5 and the rest at 1 + 1e-9: every atom is live and
    # undecided, so the table spans all 2**21 masks (16 MiB of intensities,
    # 2 MiB of sizes, 4 MiB of indicators). A doubling temporary or a
    # histogram that casts the 2**20 accepted sizes to intp at once adds 8 MiB
    atoms = tuple(Point(0.2 * (i + 1), 0.5 if i == 0 else 1 + 1e-9) for i in range(22))
    source = Configuration(params_default.window, atoms)
    tracemalloc.start()
    try:
        report = reconstruct(params_default, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.exact_match and report.event_count == 22
    assert peak < 24 << 20


@pytest.mark.parametrize("kernel", ["exp", "table"])
def test_array_audit_is_reconstruct_on_the_sampled_configuration(params_small, params_small_table, kernel):
    # the audit draws arrays and builds no Point: per path, its flag and the
    # table on the arrays are reconstruct's report on sample_poisson's path
    params = params_small if kernel == "exp" else params_small_table
    flags = _reconstruction_flags(params, 12, 2626, 0, 400)
    for p, flag in enumerate(flags.tolist()):
        source = sample_poisson(params.window, (2626, p))
        times, marks = _poisson_arrays(params.window, rng_from_key((2626, p)))
        if len(source) > 12:
            assert flag == -1
            continue
        report = reconstruct(params, source)
        per_size, event_count = _coefficient_table(params, times, marks)
        assert (tuple(per_size), event_count) == (report.per_size, report.event_count)
        assert flag == report.exact_match == 1
    assert (flags == -1).any()


def test_reconstruct_budget(params_small):
    atoms = tuple(Point(0.05 * (i + 1), 0.5) for i in range(10))
    source = Configuration(params_small.window, atoms)
    with pytest.raises(AtomBudgetExceeded):
        reconstruct(params_small, source, budget=9)


def test_reconstruct_exact_on_exact_thinning_sources(params_small):
    # candidate configurations from local-bound thinning live on an enlarged
    # mark window; the finite-sum identity holds there too, on both routes
    from pseudochaos import simulate

    for i in range(15):
        source = simulate(params_small, (319, i), thinning="exact").source
        if len(source) > 10:
            continue
        fast = reconstruct(params_small, source)
        slow = reconstruct_direct(params_small, source)
        assert fast.exact_match and sum(slow) == fast.event_count
        assert fast.per_size == slow


@given(st.data())
def test_reconstruction_is_exact_on_generated_configurations(params_small, data):
    grid = data.draw(st.lists(st.integers(0, 28), unique=True, min_size=0, max_size=7))
    marks = data.draw(
        st.lists(st.integers(0, 19), min_size=len(grid), max_size=len(grid))
    )
    atoms = tuple(
        Point(0.05 + 0.1 * g, 0.05 + 0.1 * m) for g, m in sorted(zip(grid, marks))
    )
    source = Configuration(params_small.window, atoms)
    report = reconstruct(params_small, source)
    assert report.exact_match
    assert report.total == solve_path(params_small, source).event_count
    assert_table_events_are_the_paths(params_small, source)


def test_table_live_atoms_are_the_path_solvers_accepted_atoms(
    params_small, knife_edge_configs, params_small_table, knife_edge_configs_table,
    pruning_edge_configs,
):
    # the event count comes from the table's own fold, never from solve_path
    cases = [
        (params, sample_poisson(params.window, (331, i)))
        for params in (params_small, params_small_table)
        for i in range(60)
    ]
    cases += [(params_small, c) for c in knife_edge_configs]
    cases += [(params_small_table, c) for c in knife_edge_configs_table]
    cases += pruning_edge_configs
    for params, config in cases:
        assert_table_events_are_the_paths(params, config)


def test_always_accepted_atom_adds_exactly_one_to_the_size_one_sum():
    # an atom accepted on every subset of its k live predecessors has
    # h[s] = C(k, s); the table's weights send all of it to size 1, since
    # sum_s C(k, s) (-1)^(a-s) C(k-s, a-s) = C(k, a) (1 - 1)^a
    for k in range(DEFAULT_ATOM_BUDGET + 1):
        h = np.array([math.comb(k, s) for s in range(k + 1)])
        assert (h @ _signed_binomial_table(k)).tolist() == [1] + [0] * k, k


@pytest.mark.parametrize(
    "name, fields",
    [
        # every mark 0: all 22 atoms always accepted
        ("zero22", ((22,) + (0,) * 21, 22, 22, True)),
        # a first mark of 0.5, then 1 + 1e-9: the full 2^21 doubling
        ("edge22", ((1, 21) + (0,) * 20, 22, 22, True)),
        # the CLI's `--seed 6 reconstruct`: 20 atoms on the default window
        ("seed6", ((3, 0, 1) + (0,) * 17, 4, 4, True)),
    ],
)
def test_reconstruct_reports_are_pinned(params_default, name, fields):
    if name == "seed6":
        source = sample_poisson(params_default.window, (6, 0))
    else:
        marks = [0.0] * 22 if name == "zero22" else [0.5] + [1 + 1e-9] * 21
        atoms = tuple(Point(0.2 * (i + 1), mark) for i, mark in enumerate(marks))
        source = Configuration(params_default.window, atoms)
    assert report_fields(reconstruct(params_default, source)) == fields


@pytest.mark.parametrize("kernel", ["exp", "table"])
def test_reconstruct_reports_on_audit_paths_are_pinned(params_small, params_small_table, kernel):
    # the 200 paths of criterion 1's key on the audit window; the 801-node
    # table samples the same exponential and gives the same reports here
    params = params_small if kernel == "exp" else params_small_table
    reports = [
        report_fields(reconstruct(params, sample_poisson(params.window, (1000, p))))
        for p in range(200)
    ]
    assert sum(r[2] for r in reports) == 783
    assert all(r[3] for r in reports)
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
        "30ee1e00efd9fa3b02f068b4661b784b5fbd859a4ae776076250f7105c2196f2"
    )


def test_reconstruct_exact_even_when_intensity_overflows(exp_kernel):
    # the finite-sum identity owes nothing to the mark ceiling
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=3.0, M=1.05))
    for i in range(40):
        source = sample_poisson(params.window, (317, i))
        assert reconstruct(params, source).exact_match


def test_characterization_rectangle_count():
    window = Window(T=2.0, M=1.0)
    report = characterization_check(RectangleCount(window), window, 2, 4000, (41, 0))
    # first difference is 1 and second differences vanish identically
    assert report.terms[0].mean == pytest.approx(2.0)
    assert report.terms[1].mean == 0.0
    assert report.terms[1].se == 0.0
    assert report.cumulative.within(2.0)
    assert report.residual.within(0.0)


def test_characterization_poisson_count(zero_kernel):
    window = Window(T=2.0, M=2.0)
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=window)
    report = characterization_check(HawkesCount(params), window, 2, 4000, (42, 0))
    assert report.terms[1].mean == 0.0
    assert report.terms[1].se == 0.0
    assert report.cumulative.within(2.0)
    assert report.reference.within(2.0)


def test_characterization_is_deterministic(params_small):
    F = HawkesCount(params_small)
    a = characterization_check(F, params_small.window, 3, 700, (43, 0))
    b = characterization_check(F, params_small.window, 3, 700, (43, 0))
    assert a == b


def test_characterization_check_matches_runner_at_any_job_count(params_small):
    # 700 paths are two chunks of up to 512
    F, window = HawkesCount(params_small), params_small.window
    report = characterization_check(F, window, 3, 700, (43, 0))
    spec = ExperimentSpec("characterization", params_small, 700, seed=43, j_max=3)
    assert report == run_experiment(spec).extra["report"]
    assert report == run_experiment(spec, n_jobs=2).extra["report"]


@pytest.mark.parametrize("rng_key, n_paths, digest", [
    ((27, 37), 300, "933489bb2842f79531241dec73210b55d2a940852436c8e49efc49242986ba59"),
    # two chunks, from the keys (43, 1) and (43, 2)
    ((43, 1), 700, "62609317ce6c91644cecae2790bca45988f3d895c179e165588b5bbcb0bb1c8d"),
])
def test_characterization_at_a_key_offset_is_pinned(params_small, rng_key, n_paths, digest):
    # chunk c of key base b draws from (seed, b + c)
    report = characterization_check(HawkesCount(params_small), params_small.window, 3, n_paths, rng_key)
    assert report.cumulative.n == n_paths
    assert hashlib.sha256(repr(report).encode()).hexdigest() == digest


def test_characterization_on_the_bench_configuration_is_pinned(table_kernel):
    # the benchmark's char operation: the 801-node table on the T = 2, M = 4
    # window, j_max 4 and two point draws per path, over two chunks
    window = Window(T=2.0, M=4.0)
    params = HawkesParams(mu=1.0, kernel=table_kernel, window=window)
    report = characterization_check(HawkesCount(params), window, 4, 700, (2801, 0), points_per_path=2)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        "bb5f57e68dbe61eedbc721813eee406a687b5304cb28a2aa18b8853e6a814a0a"
    )


def test_characterization_multiple_point_draws(params_small):
    F = HawkesCount(params_small)
    report = characterization_check(
        F, params_small.window, 2, 600, (44, 0), points_per_path=3
    )
    assert report.cumulative.n == 600


@pytest.mark.parametrize("j_max, points_per_path", [(0, 1), (2, 0), (2, -1)])
def test_characterization_rejects_empty_draws(params_small, j_max, points_per_path):
    F = HawkesCount(params_small)
    with pytest.raises(ValueError, match="j_max" if j_max < 1 else "points_per_path"):
        characterization_check(
            F, params_small.window, j_max, 10, (44, 0), points_per_path=points_per_path
        )


def test_characterization_rejects_no_paths(params_small):
    F = HawkesCount(params_small)
    with pytest.raises(ValueError, match="n_paths must be >= 1, got 0"):
        characterization_check(F, params_small.window, 2, 0, (44, 0))


def test_chaotic_coefficient_poisson_is_constant(zero_kernel):
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=Window(T=2.0, M=2.0))
    est = chaotic_coefficient_mc(params, 1, [Point(1.0, 0.5)], 200, (45, 0))
    assert est.mean == 1.0
    assert est.se == 0.0


def test_chaotic_coefficient_ignores_points_beyond_horizon(params_small):
    est = chaotic_coefficient_mc(params_small, 1, [Point(4.0, 0.5)], 200, (46, 0))
    assert est.mean == 0.0
    assert est.se == 0.0


def test_chaotic_coefficient_runs_agree(params_small):
    pts = [Point(1.0, 0.5)]
    a = chaotic_coefficient_mc(params_small, 1, pts, 3000, (47, 0))
    b = chaotic_coefficient_mc(params_small, 1, pts, 3000, (48, 0))
    width = 3.0 * math.hypot(a.se, b.se)
    assert abs(a.mean - b.mean) <= width


CHAOTIC_POINTS = [Point(1.0, 0.5), Point(2.0, 1.2)]


@pytest.mark.parametrize(
    "fixture, rng_key, mean, se",
    [
        ("params_default", (47, 0), 0.23833333333333334, 0.056095314319729035),
        ("params_default", (48, 3), 0.19166666666666668, 0.06140078644263801),
        ("params_small_table", (47, 0), 0.135, 0.024060823039585268),
    ],
)
def test_chaotic_coefficient_is_pinned(fixture, rng_key, mean, se, request):
    # the samples follow the characterization's chunk streams: chunk c of 512
    # paths draws from the key (seed, base_index + c)
    params = request.getfixturevalue(fixture)
    est = chaotic_coefficient_mc(params, 2, CHAOTIC_POINTS, 600, rng_key)
    assert (est.n, est.mean, est.se) == (600, mean, se)


@pytest.mark.parametrize(
    "points",
    [CHAOTIC_POINTS, [Point(0.5, 1.1), Point(1.5, 0.8), Point(2.5, 1.3)]],
)
def test_chaotic_coefficient_agrees_with_per_path_differences(params_small, points):
    # the same estimator, one path at a time through iterated_difference
    F = HawkesCount(params_small)
    oracle = MCEstimate.from_samples([
        iterated_difference(F, sample_poisson(params_small.window, (50, i)), points)
        for i in range(2000)
    ])
    est = chaotic_coefficient_mc(params_small, len(points), points, 2000, (49, 0))
    assert abs(est.mean - oracle.mean) <= 3.0 * math.hypot(est.se, oracle.se)


def test_chaotic_coefficient_rejects_no_points(params_small):
    with pytest.raises(ValueError, match="need at least one point, got points=\\[\\]"):
        chaotic_coefficient_mc(params_small, 0, [], 10, (47, 0))
