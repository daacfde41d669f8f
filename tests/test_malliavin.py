import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pseudochaos import (
    AtomBudgetExceeded,
    CallableFunctional,
    Configuration,
    ConstantFunctional,
    EmptyWindowWeight,
    ExperimentSpec,
    HawkesCount,
    HawkesParams,
    Kernel,
    Point,
    RectangleCount,
    TimeCollisionError,
    Window,
    empty_window_expectation,
    ipp_check_order1,
    iterated_difference,
    run_experiment,
    sample_poisson,
)

W3 = Window(T=3.0, M=2.0)


@pytest.fixture(scope="module")
def count3(exp_kernel):
    return HawkesCount(HawkesParams(mu=1.0, kernel=exp_kernel, window=W3))


def test_first_difference_of_count_at_empty(count3):
    empty = Configuration.empty(W3)
    assert iterated_difference(count3, empty, [Point(1.0, 0.5)]) == 1.0


def test_second_difference_worked_example(count3):
    # H({a,b}) - H({a}) - H({b}) + H(empty) = 2 - 1 - 0 + 0
    empty = Configuration.empty(W3)
    pts = [Point(1.0, 0.5), Point(2.0, 1.1)]
    assert iterated_difference(count3, empty, pts) == 1.0


def test_differences_of_constants_vanish():
    const = ConstantFunctional(7.0, W3)
    base = Configuration.empty(W3)
    for n in range(1, 5):
        pts = [Point(0.3 * (i + 1), 0.5) for i in range(n)]
        assert iterated_difference(const, base, pts) == 0.0


def test_difference_is_symmetric_in_points(count3):
    base = sample_poisson(W3, (61, 0))
    pts = [Point(0.111, 0.4), Point(1.234, 1.7), Point(2.345, 0.9)]
    reference = iterated_difference(count3, base, pts)
    for perm in itertools.permutations(pts):
        assert iterated_difference(count3, base, list(perm)) == reference


def test_difference_composes(count3):
    # D^n F = D applied to the functional omega -> D^(n-1) F(omega)
    base = sample_poisson(W3, (62, 0))
    pts = [Point(0.5, 0.3), Point(1.5, 0.8), Point(2.5, 1.2)]
    inner = CallableFunctional(
        lambda omega: iterated_difference(count3, omega, pts[:-1]), W3
    )
    assert iterated_difference(inner, base, [pts[-1]]) == iterated_difference(
        count3, base, pts
    )


def test_difference_at_empty_base_is_subset_sum(count3):
    pts = [Point(0.5, 0.3), Point(1.5, 0.8)]
    direct = 0.0
    for size in range(3):
        for combo in itertools.combinations(pts, size):
            direct += (-1) ** (2 - size) * count3(Configuration(W3, combo))
    assert iterated_difference(count3, Configuration.empty(W3), pts) == direct


@given(st.data())
def test_difference_symmetry_property(count3, data):
    grid = data.draw(st.lists(st.integers(0, 28), unique=True, min_size=2, max_size=4))
    marks = data.draw(st.lists(st.integers(0, 19), min_size=len(grid), max_size=len(grid)))
    pts = [Point(0.05 + 0.1 * g, 0.05 + 0.1 * m) for g, m in zip(grid, marks)]
    perm = data.draw(st.permutations(pts))
    base = Configuration.empty(W3)
    assert iterated_difference(count3, base, pts) == iterated_difference(
        count3, base, list(perm)
    )


def test_difference_rejects_collisions_and_budget(count3):
    base = Configuration(W3, (Point(1.0, 0.5),))
    with pytest.raises(TimeCollisionError):
        iterated_difference(count3, base, [Point(1.0, 0.7)])
    with pytest.raises(TimeCollisionError):
        iterated_difference(count3, base, [Point(2.0, 0.7), Point(2.0, 0.8)])
    many = [Point(0.01 * (i + 1), 0.5) for i in range(5)]
    with pytest.raises(AtomBudgetExceeded):
        iterated_difference(count3, base, many, budget=4)


def test_empty_window_expectation_examples(count3):
    assert empty_window_expectation(count3, W3) == 0.0
    assert empty_window_expectation(ConstantFunctional(7.0, W3), W3) == 7.0
    assert empty_window_expectation(RectangleCount(W3), W3) == 0.0


def test_empty_window_weight():
    weight = EmptyWindowWeight(W3)
    assert weight(Configuration.empty(W3)) == pytest.approx(math.exp(6.0))
    assert weight(Configuration(W3, (Point(1.0, 0.5),))) == 0.0


def test_rectangle_count_measurability():
    F = RectangleCount(W3)
    env = Window(T=10.0, M=10.0)
    cfg = Configuration(env, (Point(1.0, 0.5), Point(5.0, 0.5), Point(6.0, 4.0)))
    assert F(cfg) == 1.0


def test_generic_eval_packed_matches_call():
    F = CallableFunctional(lambda cfg: sum(p.theta for p in cfg.atoms), W3)
    configs = [sample_poisson(W3, (63, i)) for i in range(10)]
    width = max(len(c) for c in configs) + 1
    times = np.full((len(configs), width), W3.T + 1.0)
    marks = np.full((len(configs), width), np.inf)
    for r, cfg in enumerate(configs):
        times[r, : len(cfg)] = cfg.times
        marks[r, : len(cfg)] = cfg.marks
    packed = F.eval_packed(times, marks, np.array([len(c) for c in configs]))
    assert packed.tolist() == [F(c) for c in configs]


def test_ipp_poisson_reduction(zero_kernel):
    # with a flat kernel both sides equal mu * T
    window = Window(T=2.0, M=2.0)
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=window)
    check = ipp_check_order1(HawkesCount(params), window, 4000, (71, 0))
    assert check.lhs.within(2.0)
    assert check.rhs.within(2.0)
    assert check.diff.within(0.0)


def test_ipp_constant_functional():
    window = Window(T=2.0, M=2.0)
    check = ipp_check_order1(ConstantFunctional(3.0, window), window, 2000, (72, 0))
    assert check.lhs.mean == 0.0
    assert check.lhs.se == 0.0
    assert check.rhs.within(0.0)


def test_ipp_rectangle_count():
    # first difference is identically 1, so the left side is the exact area
    # and the right side estimates the variance of the atom count
    window = Window(T=2.0, M=2.0)
    check = ipp_check_order1(RectangleCount(window), window, 4000, (73, 0))
    assert check.lhs.mean == 4.0
    assert check.lhs.se == 0.0
    assert check.rhs.within(4.0)


def test_ipp_is_deterministic(exp_kernel):
    window = Window(T=2.0, M=2.0)
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=window)
    a = ipp_check_order1(HawkesCount(params), window, 500, (74, 0))
    b = ipp_check_order1(HawkesCount(params), window, 500, (74, 0))
    assert a == b


def test_ipp_generic_functional_matches_vectorized():
    # a generic callable functional must reproduce RectangleCount exactly on
    # the same samples
    window = Window(T=2.0, M=2.0)
    generic = ipp_check_order1(CallableFunctional(len, window), window, 600, (75, 0))
    assert generic == ipp_check_order1(RectangleCount(window), window, 600, (75, 0))
    assert generic.lhs.mean == 4.0


def test_ipp_check_matches_runner_at_any_job_count(params_small):
    # 600 paths are three runner chunks of up to 256
    F, window = HawkesCount(params_small), params_small.window
    check = ipp_check_order1(F, window, 600, (76, 0))
    spec = ExperimentSpec("ipp", params_small, 600, seed=76)
    assert check == run_experiment(spec).extra["check"]
    assert check == run_experiment(spec, n_jobs=2).extra["check"]


def test_ipp_check_at_a_key_offset_is_pinned(params_default):
    # path p draws from (seed, base + p), pinned here at base 37
    check = ipp_check_order1(HawkesCount(params_default), params_default.window, 300, (26, 37))
    assert (check.lhs.mean, check.diff.mean) == (12.666666666666666, 6.08)
    assert hashlib.sha256(repr(check).encode()).hexdigest() == (
        "896615810e38b4164ff7a9bef5e7ce75d4c9fb7605a883ed24c04b868de73a0c"
    )
