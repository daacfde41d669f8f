import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pseudochaos import (
    ChainCountOverflow,
    Configuration,
    HawkesParams,
    Kernel,
    MCEstimate,
    Point,
    Window,
    branching_path,
    chain_counts,
    chain_length_totals,
    conditional_residual,
    intensity_on_configuration,
    jump_size_histogram,
    martingale_residual,
    sample_poisson,
    solve_path,
)

PHI_AT_1 = 0.5 * math.exp(-1.0)


def brute_force_chains_by_length(params, source):
    """Enumerate every time-ordered atom tuple whose first mark clears the
    baseline and whose links clear the kernel; count them by length."""
    atoms = source.atoms
    n = len(atoms)
    totals = [0] * n

    def extend(chain):
        totals[len(chain) - 1] += 1
        last = chain[-1]
        for nxt in atoms:
            if nxt.t > last.t and nxt.theta <= float(params.kernel(nxt.t - last.t)):
                extend(chain + (nxt,))

    for start in atoms:
        if start.theta <= params.mu:
            extend((start,))
    while totals and totals[-1] == 0:
        totals.pop()
    return np.array(totals, dtype=np.int64)


def test_singleton_chain(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5),))
    assert chain_counts(params_small, source).tolist() == [1]


def test_two_atom_chain_worked_example(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5), Point(2.0, 0.15)))
    # second atom starts its own chain (0.15 <= 1) and extends the first
    # (0.15 <= phi(1) = 0.18394)
    assert chain_counts(params_small, source).tolist() == [1, 2]


def test_high_mark_atom_is_ignored(exp_kernel):
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=3.0, M=6.0))
    source = Configuration(params.window, (Point(1.0, 5.0),))
    assert chain_counts(params, source).tolist() == [0]


def test_mark_ceiling_precondition(exp_kernel):
    tall = Kernel.exponential(3.0, 4.0)  # sup 3, L1 mass 0.75
    params = HawkesParams(mu=1.0, kernel=tall, window=Window(T=3.0, M=2.0))
    source = Configuration(params.window, (Point(1.0, 0.5),))
    with pytest.raises(ValueError, match="censored"):
        chain_counts(params, source)


def test_chain_length_totals_partition_the_counts(params_small):
    for i in range(30):
        source = sample_poisson(params_small.window, (411, i))
        totals = chain_length_totals(params_small, source)
        assert totals.sum() == chain_counts(params_small, source).sum()


def test_chain_totals_match_brute_force_enumeration(params_small):
    for i in range(40):
        source = sample_poisson(Window(T=2.0, M=2.0), (412, i))
        if len(source) > 7:
            continue
        lifted = Configuration(params_small.window, source.atoms)
        dp = chain_length_totals(params_small, lifted)
        brute = brute_force_chains_by_length(params_small, lifted)
        assert dp.tolist() == brute.tolist()


def test_zero_marks_link_every_pair(params_small):
    # every mark 0 starts a chain and links to every earlier atom: atom i ends
    # 2^i chains and there are C(22, l) chains of l atoms, so the table grows
    # to 22 rows
    source = Configuration(params_small.window, tuple(Point(0.1 * (i + 1), 0.0) for i in range(22)))
    assert chain_counts(params_small, source).tolist() == [2**i for i in range(22)]
    assert chain_length_totals(params_small, source).tolist() == [math.comb(22, l) for l in range(1, 23)]


def zero_mark_atoms(exp_kernel, n):
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=80.0, M=4.0))
    return params, Configuration(params.window, tuple(Point(0.5 + i, 0.0) for i in range(n)))


def test_chain_counts_of_62_atoms_stay_exact(exp_kernel):
    # 2**62 - 1 chains in all, inside int64 with no running total
    params, source = zero_mark_atoms(exp_kernel, 62)
    counts = chain_counts(params, source)
    assert counts.tolist() == [2**i for i in range(62)]
    assert chain_length_totals(params, source).tolist() == [math.comb(62, l) for l in range(1, 63)]
    assert branching_path(params, source).total == 2**62 - 1


@pytest.mark.parametrize("fn", [chain_counts, chain_length_totals, branching_path])
def test_chain_counts_past_int64_raise_naming_the_atom(exp_kernel, fn):
    # 70 atoms hold 2**70 - 1 chains: int64 arithmetic would wrap silently;
    # 2**63 - 1 chains end before atom 63, which could double them
    params, source = zero_mark_atoms(exp_kernel, 70)
    with pytest.raises(ChainCountOverflow, match=r"atom 63 \(t=63.5\)") as info:
        fn(params, source)
    assert info.value.atom == 63
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("kernel_name", ["exp_kernel", "table_kernel"])
def test_marks_on_the_link_edges_match_brute_force(kernel_name, request):
    # a mark exactly at mu starts a chain and a mark exactly at kernel(gap)
    # to an earlier atom links to it: both comparisons are <=
    params = HawkesParams(mu=0.5, kernel=request.getfixturevalue(kernel_name), window=Window(T=3.0, M=2.0))
    rng = np.random.default_rng(426)
    for _ in range(40):
        times = np.sort(rng.uniform(0.0, 3.0, size=int(rng.integers(2, 8))))
        marks = [params.mu]
        for i in range(1, len(times)):
            gap = times[i] - times[int(rng.integers(i))]
            marks.append(float(params.mu if rng.integers(3) == 0 else params.kernel(gap)))
        source = Configuration(params.window, tuple(map(Point, times.tolist(), marks)))
        totals = chain_length_totals(params, source)
        assert totals.tolist() == brute_force_chains_by_length(params, source).tolist()
        assert chain_counts(params, source).sum() == totals.sum()


def test_chain_length_totals_memory_is_linear_in_atoms(exp_kernel):
    # 2909 atoms whose longest chain has 8 atoms: a dense n x n int64 matrix
    # would take 68 MB
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=750.0, M=4.0))
    source = sample_poisson(params.window, (3, 0))
    assert len(source) == 2909
    tracemalloc.start()
    try:
        totals = chain_length_totals(params, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(totals) == 8
    assert peak < 4e6


@pytest.mark.parametrize("kernel_name", ["exp_kernel", "table_kernel"])
def test_chain_outputs_pinned_on_seeded_desk_paths(kernel_name, request):
    # the 801-node table is 0.5 e^{-t} sampled at step 0.01, and on these paths
    # it links exactly the pairs the exponential links
    params = HawkesParams(mu=1.0, kernel=request.getfixturevalue(kernel_name), window=Window(T=5.0, M=4.0))
    digests = []
    for fn in (chain_counts, chain_length_totals):
        h = hashlib.sha256()
        for i in range(300):
            values = fn(params, sample_poisson(params.window, (425, i)))
            assert values.dtype == np.int64
            h.update(np.int64(values.size).tobytes() + values.tobytes())
        digests.append(h.hexdigest()[:16])
    assert digests == ["511d394c5d134486", "44faac441b87c974"]


def test_branching_path_worked_example(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5),))
    path = branching_path(params_small, source)
    assert path.intensity(2.0) == pytest.approx(1.0 + PHI_AT_1, rel=1e-12)
    assert path.total == 1


def test_branching_path_empty(params_small):
    path = branching_path(params_small, Configuration.empty(params_small.window))
    assert path.total == 0
    assert path.intensity(1.7) == 1.0
    assert path.compensator == pytest.approx(3.0)


def test_branching_jump_sizes(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5), Point(2.0, 0.15)))
    path = branching_path(params_small, source)
    assert path.jump_sizes.tolist() == [1, 2]
    assert path.total == 3
    assert path.jump_histogram == {1: 1, 2: 1}


def test_intensity_uses_open_interval(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5),))
    path = branching_path(params_small, source)
    # the atom at exactly t contributes nothing to the intensity at t
    assert path.intensity(1.0) == 1.0
    assert path.intensity(1.0 + 1e-9) > 1.0


def test_intensity_refuses_negative_time_as_the_hawkes_intensity_does(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5),))
    path = branching_path(params_small, source)
    with pytest.raises(ValueError, match="time must be >= 0, got -0.5"):
        intensity_on_configuration(params_small, source, -0.5)
    with pytest.raises(ValueError, match="time must be >= 0, got -0.5"):
        path.intensity(-0.5)
    assert path.intensity(0.0) == 1.0


def test_compensator_matches_dense_quadrature(params_small):
    for i in range(10):
        source = sample_poisson(params_small.window, (413, i))
        path = branching_path(params_small, source)
        grid = np.linspace(0.0, params_small.window.T, 20001)
        dense = np.trapezoid([path.intensity(t) for t in grid], grid)
        assert path.compensator == pytest.approx(dense, abs=2e-3)


def test_value_is_nondecreasing_and_piecewise_constant(params_small):
    source = sample_poisson(params_small.window, (414, 3))
    path = branching_path(params_small, source)
    values = [path.value(t) for t in np.linspace(0, 3, 301)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == path.total
    assert all(float(v).is_integer() for v in values)


def test_martingale_residual_poisson(zero_kernel):
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=Window(T=5.0, M=4.0))
    report = martingale_residual(params, 3000, (415, 0))
    assert report.residual.within(0.0)
    assert report.total_mean.within(5.0)


def test_martingale_residual_exponential(params_default):
    report = martingale_residual(params_default, 3000, (416, 0))
    assert report.residual.within(0.0)


def test_conditional_residual(params_default):
    est = conditional_residual(params_default, 250, 8, (417, 0))
    assert est.within(0.0)


def test_conditional_residual_is_pinned(params_default):
    # criterion 7's conditional check at full size; merging the prefix and
    # continuation draws as arrays left every bit of it unchanged
    est = conditional_residual(params_default, 500, 8, (7001, 0))
    assert (est.n, est.mean, est.se) == (500, 0.044991855582607584, 0.0824487130779023)


def test_histogram_zero_kernel_only_unit_jumps(zero_kernel):
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=Window(T=5.0, M=4.0))
    hist = jump_size_histogram(params, 500, (418, 0))
    assert set(hist.counts) == {1}
    assert hist.frac_ge2 == 0.0


def test_histogram_reports_multijumps_and_ignored_atoms(params_default):
    hist = jump_size_histogram(params_default, 1500, (419, 0))
    assert hist.frac_ge2 > 0.01
    # marks are uniform on [0, 4] and the chain threshold is max(mu, sup) = 1
    assert hist.ignored_fraction == pytest.approx(0.75, abs=0.02)
    assert sum(hist.counts.values()) == hist.n_jumps


def test_branching_value_can_exceed_thinning_count(params_default):
    # the chain process jumps by more than one, the thinning path never does;
    # on shared configurations the totals disagree on a positive fraction
    differ = 0
    for i in range(200):
        source = sample_poisson(params_default.window, (420, i))
        bp = branching_path(params_default, source)
        hp = solve_path(params_default, source)
        assert np.all(bp.jump_sizes >= 1)
        differ += bp.total != hp.event_count
    assert differ > 0


def test_chain_tail_mass_within_series_bound(params_default):
    p_tail = 8
    kernel_mass = params_default.kernel.l1_norm
    bound = params_default.mu * params_default.window.T * kernel_mass**p_tail / (1 - kernel_mass)
    masses = []
    for i in range(2000):
        totals = chain_length_totals(
            params_default, sample_poisson(params_default.window, (421, i))
        )
        masses.append(totals[p_tail:].sum())
    est = MCEstimate.from_samples(masses)
    assert est.mean <= bound + 3.0 * est.se
