import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pseudochaos import (
    ExperimentSpec,
    HawkesParams,
    Kernel,
    Point,
    StabilityError,
    Window,
    branching_path,
    build_ladder,
    chain_length_totals,
    conditional_residual,
    expected_count_analytic,
    hawkes_coefficient,
    reconstruct,
    run_experiment,
    sample_poisson,
)
from pseudochaos import kernels

EXP = Kernel.exponential(0.5, 1.0)
# the 801-node table the CLI tests and the benchmark use: 0.5 e^{-t}, step 0.01
TABLE_801 = Kernel.from_table(0.01, (0.5 * np.exp(-0.01 * np.arange(801))).tolist())
ONE_NODE = Kernel.from_table(0.1, [0.3])
FAST_PATH_KERNELS = {
    "exp": EXP,
    "table801": TABLE_801,
    "one_node": ONE_NODE,
    "table5": Kernel.from_table(0.25, [0.5, 0.45, 0.3, 0.1, 0.0]),
}

# analytic oracles for the exponential family: the n-fold self-convolution is
# a^n t^(n-1) e^(-b t) / (n-1)!, and the resolvent sums to a e^(-(b-a) t)


def conv_level_exact(alpha, beta, n, t):
    t = np.asarray(t, dtype=float)
    return alpha**n * t ** (n - 1) * np.exp(-beta * t) / math.factorial(n - 1)


def resolvent_exact(alpha, beta, t):
    return alpha * np.exp(-(beta - alpha) * np.asarray(t, dtype=float))


def test_eval_at_zero_is_amplitude():
    assert EXP(0.0) == 0.5


def test_eval_exponential_decay():
    assert EXP(1.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_eval_zero_table():
    zero_table = Kernel.from_table(0.1, [0.0] * 8)
    assert zero_table(0.7) == 0.0


def test_eval_rejects_negative_times():
    with pytest.raises(ValueError):
        EXP(-0.5)
    with pytest.raises(ValueError):
        EXP(np.array([0.5, -1.0]))


def test_table_interpolates_and_vanishes_beyond_support():
    table = Kernel.from_table(1.0, [0.4, 0.2, 0.0])
    assert table(0.5) == pytest.approx(0.3)
    assert table(1.5) == pytest.approx(0.1)
    assert table(2.5) == 0.0
    assert table.sup_norm == 0.4


@given(st.floats(1e-3, 10.0), st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12))
def test_table_support_end(step, values):
    """Zero beyond the last node, and a running integral that does not dip
    across the support end and stays flat past it."""
    table = Kernel.from_table(step, values)
    end = table.step * (len(table.values) - 1)
    beyond = np.array([np.nextafter(end, math.inf), end + step, 2.0 * end + 1.0])
    assert not table._eval(beyond).any()
    assert np.all(np.diff(table._partial(np.array([np.nextafter(end, 0.0), end, *beyond]))) >= 0.0)
    assert np.all(table._partial(beyond) == table._partial(np.array(end)))


def test_partial_integral_empty_interval():
    assert EXP.partial_integral(0.0) == 0.0


def test_partial_integral_exponential():
    assert EXP.partial_integral(1.0) == pytest.approx(0.5 * (1 - math.exp(-1)), rel=1e-12)


def test_partial_integral_limit_is_l1_norm():
    assert EXP.partial_integral(200.0) == pytest.approx(EXP.l1_norm, rel=1e-12)
    assert EXP.l1_norm == pytest.approx(0.5)


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_partial_integral_monotone_and_bounded(s1, s2):
    lo, hi = sorted((s1, s2))
    assert EXP.partial_integral(lo) <= EXP.partial_integral(hi) + 1e-15
    assert EXP.partial_integral(hi) <= EXP.l1_norm + 1e-15


def test_table_partial_integral_against_dense_quadrature():
    table = Kernel.from_table(0.25, [0.5, 0.45, 0.3, 0.3, 0.1, 0.0])
    for s in (0.1, 0.3, 0.8, 1.1, 1.24, 2.0):
        grid = np.linspace(0.0, s, 20001)
        oracle = np.trapezoid(table(grid), grid)
        assert table.partial_integral(s) == pytest.approx(oracle, abs=1e-6)


def test_ladder_level_two_matches_analytic_convolution():
    ladder = build_ladder(EXP, 0.005, 10.0, n_max=5)
    assert ladder.level_at(2, 1.0) == pytest.approx(conv_level_exact(0.5, 1.0, 2, 1.0), abs=1e-6)


def test_ladder_resolvent_pointwise():
    ladder = build_ladder(EXP, 0.01, 40.0)
    ts = np.linspace(0.0, 10.0, 101)
    assert np.max(np.abs(ladder.resolvent_at(ts) - resolvent_exact(0.5, 1.0, ts))) < 5e-4


def test_ladder_zero_kernel():
    ladder = build_ladder(Kernel.zero(), 0.05, 10.0, n_max=10)
    assert np.all(ladder.resolvent == 0.0)
    assert ladder.tail_bound == 0.0
    assert ladder.resolvent_l1() == 0.0


def test_ladder_level_masses_follow_geometric_law():
    ladder = build_ladder(EXP, 0.01, 40.0)
    for n in range(1, 11):
        assert ladder.level_l1(n) == pytest.approx(0.5**n, abs=1e-4)


def test_resolvent_l1_half_kernel():
    ladder = build_ladder(EXP, 0.01, 40.0)
    assert ladder.resolvent_l1() == pytest.approx(1.0, abs=1e-2)


def test_resolvent_l1_quarter_kernel_against_quadrature():
    kernel = Kernel.exponential(0.25, 1.0)
    ladder = build_ladder(kernel, 0.01, 40.0)
    grid = np.linspace(0.0, 40.0, 40001)
    oracle = np.trapezoid(resolvent_exact(0.25, 1.0, grid), grid)
    assert oracle == pytest.approx(0.25 / 0.75, abs=1e-4)
    assert ladder.resolvent_l1() == pytest.approx(oracle, abs=1e-3)


def direct_ladder_levels(kernel, step, horizon, n_max):
    """The trapezoid recursion by direct O(N^2) convolution: the reference the
    FFT ladder must reproduce to rounding."""
    n_nodes = int(np.ceil(horizon / step)) + 1
    phi = np.asarray(kernel(step * np.arange(n_nodes)), dtype=float)
    levels = np.empty((n_max, n_nodes))
    levels[0] = phi
    for n in range(1, n_max):
        prev = levels[n - 1]
        conv = np.convolve(phi, prev)[:n_nodes]
        levels[n] = step * (conv - 0.5 * (phi * prev[0] + phi[0] * prev))
    return levels


# 0.5 e^{-t} sampled at step 0.01 on [0, 8]: 801 nodes
TABLE_801 = Kernel.from_table(0.01, 0.5 * np.exp(-0.01 * np.arange(801)))


@pytest.mark.parametrize(
    "kernel, step, horizon, n_max",
    [
        (EXP, 0.01, 5.0, 40),
        (TABLE_801, 0.01, 10.0, 40),
        (Kernel.from_table(0.25, [0.5, 0.45, 0.3, 0.3, 0.1, 0.0]), 0.01, 4.0, 12),
        (EXP, 0.01, 3.337, 20),         # horizon off the grid: 335 nodes
        (EXP, 0.05, 0.05, 6),           # two nodes
        (EXP, 0.01, 5.0, 1),
        (Kernel.zero(), 0.05, 10.0, 10),
        # interior zeros then nonzero values: the support ends at the last
        # nonzero node, not at the first zero
        (Kernel.from_table(0.125, [0.3, 0.0, 0.0, 0.2, 0.1, 0.0, 0.0]), 0.0625, 3.0, 10),
        # 10 e^{-50 t} underflows to 0.0 from t = 14.95 on, inside the grid
        (Kernel.exponential(10.0, 50.0), 0.05, 20.0, 8),
        # 513 nodes: 2n - 1 = 1025 is just above a power of two, so 1024 points would wrap
        (EXP, 0.125, 64.0, 12),
        # the last table value (nonzero) sits exactly on grid node 4, and the
        # bound 20 + 5 - 1 = 24 is 5-smooth: the transform has no spare point
        (Kernel.from_table(0.25, [0.4, 0.4, 0.4]), 0.125, 2.375, 8),
    ],
    ids=["exp", "table801", "table_support_inside", "odd_nodes", "two_nodes", "n_max_1", "zero",
         "interior_zeros", "exp_underflow", "just_above_pow2", "support_on_node"],
)
def test_ladder_matches_direct_recursion(kernel, step, horizon, n_max):
    ladder = build_ladder(kernel, step, horizon, n_max)
    direct = direct_ladder_levels(kernel, step, horizon, n_max)
    assert ladder.levels.shape == direct.shape
    assert np.max(np.abs(ladder.levels - direct)) <= 1e-14
    assert np.max(np.abs(ladder.resolvent - direct.sum(axis=0))) <= 1e-14
    if kernel.l1_norm == 0.0:
        assert np.all(ladder.resolvent == 0.0)


@pytest.mark.parametrize(
    "kernel, resolvent_sum, value, budget",
    [
        (EXP, 92.06236120631638, 8.164176387039754, 8.301938281274346e-06),
        (TABLE_801, 92.06236120631638, 8.164176387039754, 8.301938219211778e-06),
    ],
    ids=["exp", "table801"],
)
def test_desk_ladders_keep_their_bits(kernel, resolvent_sum, value, budget):
    # the desk ladders (501 nodes at step 0.01) keep a 1024-point transform,
    # so these are the bits of the untrimmed power-of-two ladder
    ladder = build_ladder(kernel, 0.01, 5.0, 40)
    params = HawkesParams(mu=1.0, kernel=kernel, window=Window(T=5.0, M=4.0))
    ana = expected_count_analytic(params, ladder)
    assert float(ladder.resolvent.sum()) == resolvent_sum
    assert ana.value == value
    assert ana.error_budget == budget


def test_fft_length_is_the_smallest_5_smooth_at_or_above():
    def smooth(m):
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        return m == 1

    for n in range(1, 3000):
        want = next(m for m in range(n, 2 * n + 1) if smooth(m))
        assert kernels._fft_length(n) == want, n
    assert kernels._fft_length(24001) == 24300   # the fine desk_table ladder
    assert kernels._fft_length(1001) == 1024     # the desk ladders


def test_ladder_rejects_unstable_and_bad_step():
    with pytest.raises(StabilityError):
        build_ladder(Kernel.exponential(1.5, 1.0), 0.01, 10.0)
    with pytest.raises(ValueError):
        build_ladder(EXP, -0.01, 10.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            build_ladder(EXP, bad, 10.0)
        with pytest.raises(ValueError, match="finite"):
            build_ladder(EXP, 0.01, bad)
    # horizon / step overflows to inf: a ValueError naming both, not an OverflowError
    with pytest.raises(ValueError, match="grid step 1e-320 is too fine for horizon 5.0"):
        build_ladder(EXP, 1e-320, 5.0)


def test_nested_triple_integral_matches_convolution_form():
    # For f = 1 on [s, t] and three nested kernel factors, the chain integral
    #   int_s^t int_s^{v3} int_s^{v2} phi(v3-v2) phi(v2-v1) dv1 dv2 dv3
    # must equal int_s^t int_s^u phi_2(u - r) dr du. Both sides by direct grid
    # nesting; phi_2 from the ladder (and its analytic form as a cross-check).
    s, t = 0.5, 2.5
    ladder = build_ladder(EXP, 0.005, 5.0, n_max=4)
    u = np.linspace(s, t, 401)

    # inner chain integral: int_s^{v2} phi(v2-v1) dv1 is the kernel primitive
    inner1 = EXP.partial_integral(u - s)
    inner2 = np.empty_like(u)
    for i, v3 in enumerate(u):
        inner2[i] = np.trapezoid(EXP(v3 - u[: i + 1]) * inner1[: i + 1], u[: i + 1])
    nested = np.trapezoid(inner2, u)

    lhs_inner = np.empty_like(u)
    for i, uu in enumerate(u):
        lhs_inner[i] = np.trapezoid(ladder.level_at(2, uu - u[: i + 1]), u[: i + 1])
    lhs = np.trapezoid(lhs_inner, u)

    assert lhs == pytest.approx(nested, abs=2e-4)
    analytic_inner = [
        np.trapezoid(conv_level_exact(0.5, 1.0, 2, uu - u[: i + 1]), u[: i + 1])
        for i, uu in enumerate(u)
    ]
    assert np.trapezoid(analytic_inner, u) == pytest.approx(nested, abs=2e-4)


def test_from_csv_roundtrip(tmp_path):
    path = tmp_path / "kernel.csv"
    path.write_text("t,value\n0.0,0.5\n0.5,0.25\n1.0,0.1\n")
    kernel = Kernel.from_csv(path)
    assert kernel.step == 0.5
    assert kernel(0.25) == pytest.approx(0.375)
    assert kernel.is_nonincreasing


def test_from_csv_rejects_bad_inputs(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError, match="header"):
        Kernel.from_csv(bad_header)
    uneven = tmp_path / "b.csv"
    uneven.write_text("t,value\n0,0.5\n0.5,0.4\n1.5,0.1\n")
    with pytest.raises(ValueError, match="equally spaced"):
        Kernel.from_csv(uneven)
    short = tmp_path / "c.csv"
    short.write_text("t,value\n0\n0.01,0.4\n")
    with pytest.raises(ValueError, match=r"c\.csv, line 2"):
        Kernel.from_csv(short)


def test_from_csv_spacing_tolerance_is_relative_to_the_step(tmp_path):
    # steps 1e-10, 4e-10, 1e-10: an absolute tolerance of 1e-9 once took this
    # as step 1e-10 and read kernel(5e-10) as 0.0 where the file says 0.3
    fine = tmp_path / "fine.csv"
    fine.write_text("t,value\n0,0.5\n1e-10,0.4\n5e-10,0.3\n6e-10,0.2\n")
    with pytest.raises(ValueError, match="equally spaced"):
        Kernel.from_csv(fine)
    # the 801-node grid 0.01 * i written by repr, as CI writes it, still loads
    grid = tmp_path / "grid.csv"
    t = 0.01 * np.arange(801)
    rows = [f"{a!r},{b!r}" for a, b in zip(t.tolist(), (0.5 * np.exp(-t)).tolist())]
    grid.write_text("t,value\n" + "\n".join(rows) + "\n")
    kernel = Kernel.from_csv(grid)
    assert (kernel.step, len(kernel.values)) == (0.01, 801)


def test_monotonicity_flags():
    assert EXP.is_nonincreasing
    assert Kernel.from_table(0.5, [0.5, 0.3, 0.1]).is_nonincreasing
    assert not Kernel.from_table(0.5, [0.1, 0.3, 0.2]).is_nonincreasing


# -- the unguarded fast path ----------------------------------------------


def uncached_partial(kernel, arr):
    """The partial integral as written before the table arrays were cached."""
    if kernel.family == "exponential":
        return (kernel.alpha / kernel.beta) * (1.0 - np.exp(-kernel.beta * arr))
    v = np.asarray(kernel.values)
    if len(v) == 1:
        return np.zeros_like(arr)
    h = kernel.step
    support = h * (len(v) - 1)
    node_cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * h)])
    clipped = np.minimum(arr, support)
    idx = np.minimum((clipped / h).astype(int), len(v) - 2)
    d = clipped - idx * h
    slope = (v[idx + 1] - v[idx]) / h
    return node_cum[idx] + v[idx] * d + 0.5 * slope * d * d


def random_times(seed):
    """1e5 times reaching past every test table's support, plus the nodes'
    edge cases: zero, the last nodes of the test tables, and either side of 8."""
    rng = np.random.default_rng(seed)
    edges = [0.0, 1.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0)]
    return np.concatenate([edges, rng.uniform(0.0, 12.0, 100_000)])


@pytest.mark.parametrize("kernel", FAST_PATH_KERNELS.values(), ids=FAST_PATH_KERNELS.keys())
def test_unguarded_eval_equals_the_public_call_bit_for_bit(kernel):
    t = random_times(1)
    assert np.array_equal(kernel._eval(t), kernel(t))
    assert isinstance(kernel(0.5), float) and kernel(0.5) == kernel._eval(np.array([0.5]))[0]
    beyond = t[t > kernel.step * (len(kernel.values) - 1)]
    if kernel.family == "table":
        assert not kernel._eval(beyond).any()


@pytest.mark.parametrize("kernel", FAST_PATH_KERNELS.values(), ids=FAST_PATH_KERNELS.keys())
def test_partial_integral_equals_the_uncached_formula_bit_for_bit(kernel):
    t = random_times(2)
    assert np.array_equal(kernel.partial_integral(t), uncached_partial(kernel, t))
    assert np.array_equal(kernel._partial(t), uncached_partial(kernel, t))
    assert kernel.partial_integral(0.7) == float(uncached_partial(kernel, np.asarray(0.7)))


@pytest.mark.parametrize("kernel", FAST_PATH_KERNELS.values(), ids=FAST_PATH_KERNELS.keys())
def test_public_entry_points_still_refuse_negative_times(kernel):
    for bad in (-0.5, np.array([0.5, -1e-300])):
        with pytest.raises(ValueError, match="nonnegative"):
            kernel(bad)
        with pytest.raises(ValueError, match="nonnegative"):
            kernel.partial_integral(bad)


def test_cached_arrays_leave_the_kernel_echo_equality_and_pickle_unchanged():
    table = Kernel.from_table(0.01, TABLE_801.values)
    echo = dataclasses.asdict(table)
    assert set(echo) == {"family", "alpha", "beta", "step", "values"}
    table(np.array([0.5]))
    table.partial_integral(3.0)
    build_ladder(table, 0.05, 2.0, n_max=3)
    assert dataclasses.asdict(table) == echo
    assert table == TABLE_801 and hash(table) == hash(TABLE_801)
    clone = pickle.loads(pickle.dumps(table))
    assert clone == table
    t = random_times(3)
    assert np.array_equal(clone(t), table(t))
    assert np.array_equal(clone.partial_integral(t), table.partial_integral(t))


def test_internal_callers_never_run_the_negative_time_guard(tmp_path, monkeypatch):
    """Every sweep evaluates nonnegative differences, so the statistics, the
    chain process, the reconstruction and the coefficients go through the
    unguarded evaluators."""
    calls = []
    guard = kernels._as_nonnegative_times

    def counting_guard(t):
        calls.append(np.size(t))
        return guard(t)

    monkeypatch.setattr(kernels, "_as_nonnegative_times", counting_guard)
    params = HawkesParams(mu=1.0, kernel=TABLE_801, window=Window(T=4.0, M=3.0))
    runs = [("hawkes_mean", "capped"), ("hawkes_mean", "exact"), ("residual", "capped"),
            ("histogram", "capped"), ("reconstruction", "capped"), ("ipp", "capped"),
            ("characterization", "capped")]
    for statistic, thinning in runs:
        spec = ExperimentSpec(statistic, params, 20, seed=5, thinning=thinning)
        run_experiment(spec, out_dir=tmp_path / f"{statistic}-{thinning}")
    source = sample_poisson(params.window, (5, 0))
    assert reconstruct(params, source).exact_match
    chain_length_totals(params, source)
    branching_path(params, source).intensity(2.0)
    conditional_residual(params, 2, 2, (5, 0))
    hawkes_coefficient(params, [Point(0.5, 0.7), Point(1.2, 1.1), Point(2.0, 0.9)])
    build_ladder(TABLE_801, 0.01, 4.0)
    assert calls == []
    TABLE_801(1.0)
    assert calls == [1]
