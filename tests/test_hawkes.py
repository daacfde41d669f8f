import math

import numpy as np
import pytest

from pseudochaos import (
    Configuration,
    HawkesCount,
    HawkesParams,
    Kernel,
    MCEstimate,
    Point,
    StabilityError,
    Window,
    intensity_on_configuration,
    sample_poisson,
    simulate,
    solve_path,
)

PHI_AT_1 = 0.5 * math.exp(-1.0)  # kernel value driving the worked examples


def test_intensity_on_empty_configuration(params_small):
    empty = Configuration.empty(params_small.window)
    for t in (0.0, 0.5, 2.9):
        assert intensity_on_configuration(params_small, empty, t) == 1.0


def test_intensity_single_active_atom(params_small):
    fixed = Configuration(params_small.window, (Point(1.0, 0.5),))
    assert intensity_on_configuration(params_small, fixed, 2.0) == pytest.approx(
        1.0 + PHI_AT_1, rel=1e-12
    )


def test_intensity_ignores_inert_atom(params_small):
    fixed = Configuration(params_small.window, (Point(1.0, 1.5),))
    # theta = 1.5 exceeds the triangular value a_1 = mu = 1, so the atom is dead
    assert intensity_on_configuration(params_small, fixed, 2.0) == 1.0


def test_intensity_excludes_atoms_at_and_after_t(params_small):
    fixed = Configuration(params_small.window, (Point(1.0, 0.5), Point(2.0, 0.5)))
    at_one = intensity_on_configuration(params_small, fixed, 1.0)
    assert at_one == 1.0
    truncated = Configuration(params_small.window, (Point(1.0, 0.5),))
    assert intensity_on_configuration(params_small, fixed, 1.5) == intensity_on_configuration(
        params_small, truncated, 1.5
    )


def test_solve_empty_configuration(params_small):
    path = solve_path(params_small, Configuration.empty(params_small.window))
    assert path.event_count == 0
    assert not path.overflow


def test_solve_two_atom_worked_example(params_small):
    source = Configuration(params_small.window, (Point(1.0, 0.5), Point(2.0, 1.1)))
    path = solve_path(params_small, source)
    assert path.event_count == 2
    assert path.intensities[0] == 1.0
    assert path.intensities[1] == pytest.approx(1.0 + PHI_AT_1, rel=1e-12)
    assert path.accepted == (True, True)


def test_solve_rejects_atom_above_baseline(params_small):
    source = Configuration(params_small.window, (Point(1.0, 1.5),))
    assert solve_path(params_small, source).event_count == 0


def test_acceptance_boundary_is_closed(params_small):
    source = Configuration(params_small.window, (Point(1.0, 1.0),))
    assert solve_path(params_small, source).event_count == 1


def test_all_jumps_have_unit_size(params_small):
    for i in range(30):
        path = solve_path(params_small, sample_poisson(params_small.window, (3, i)))
        # the counting path increases by exactly one at each accepted atom
        assert path.event_count == len(path.events)
        assert np.all(np.diff(path.event_times) > 0)


def test_intensity_consistency_with_solver(params_small):
    # the solver's intensity at atom i equals the triangular solve on the
    # previously accepted atoms alone, bit for bit
    for i in range(25):
        source = sample_poisson(params_small.window, (17, i))
        path = solve_path(params_small, source)
        for j, atom in enumerate(source.atoms):
            before = tuple(
                a for a, ok in zip(source.atoms[:j], path.accepted[:j]) if ok
            )
            sub = Configuration(params_small.window, before)
            assert (
                intensity_on_configuration(params_small, sub, atom.t)
                == path.intensities[j]
            )


def test_adding_an_atom_never_decreases_the_count(params_small):
    rng = np.random.default_rng(5)
    from pseudochaos import add_points

    for i in range(40):
        source = sample_poisson(params_small.window, (29, i))
        base_count = solve_path(params_small, source).event_count
        while True:
            z = Point(
                float(rng.uniform(0, params_small.window.T)),
                float(rng.uniform(0, params_small.window.M)),
            )
            if z.t not in {a.t for a in source.atoms}:
                break
        grown = solve_path(params_small, add_points(source, [z])).event_count
        assert grown >= base_count


def test_overflow_flag(exp_kernel):
    params = HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=3.0, M=1.2))
    source = Configuration(params.window, (Point(0.5, 0.5), Point(1.0, 1.1)))
    path = solve_path(params, source)
    # lambda(1.0) = 1 + 0.5 exp(-0.5) = 1.3032... > M = 1.2
    assert path.overflow
    assert path.intensities[1] > 1.2


def test_params_invariants(exp_kernel):
    with pytest.raises(ValueError):
        HawkesParams(mu=0.0, kernel=exp_kernel, window=Window(T=1.0, M=1.0))
    with pytest.raises(StabilityError):
        HawkesParams(mu=1.0, kernel=Kernel.exponential(2.0, 1.0), window=Window(T=1.0, M=2.0))
    with pytest.raises(ValueError):
        HawkesParams(mu=2.0, kernel=exp_kernel, window=Window(T=1.0, M=1.0))


def test_simulate_is_deterministic(params_default):
    for mode in ("capped", "exact"):
        a = simulate(params_default, (31, 4), thinning=mode)
        b = simulate(params_default, (31, 4), thinning=mode)
        assert a.source.atoms == b.source.atoms
        assert a.events == b.events


def test_zero_kernel_reduces_to_poisson(zero_kernel):
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=Window(T=5.0, M=4.0))
    counts = [simulate(params, (101, i)).event_count for i in range(4000)]
    est = MCEstimate.from_samples(counts)
    assert est.within(5.0)


def test_exact_thinning_never_overflows(params_default):
    paths = [simulate(params_default, (55, i), thinning="exact") for i in range(200)]
    assert not any(p.overflow for p in paths)
    # candidate marks stay below the local bound recorded in the source window
    for p in paths:
        if len(p.source):
            assert p.source.marks.max() <= p.source.window.M


def test_exact_thinning_zero_kernel_accepts_everything(zero_kernel):
    params = HawkesParams(mu=1.0, kernel=zero_kernel, window=Window(T=5.0, M=4.0))
    for i in range(50):
        path = simulate(params, (77, i), thinning="exact")
        assert all(path.accepted)


def test_exact_thinning_requires_monotone_kernel():
    bumpy = Kernel.from_table(0.5, [0.1, 0.3, 0.2, 0.0])
    params = HawkesParams(mu=1.0, kernel=bumpy, window=Window(T=2.0, M=1.0))
    with pytest.raises(ValueError, match="nonincreasing"):
        simulate(params, (0, 0), thinning="exact")


def test_packed_batch_matches_scalar_solver(params_small, knife_edge_configs):
    F = HawkesCount(params_small)
    configs = [sample_poisson(params_small.window, (211, i)) for i in range(60)]
    configs += knife_edge_configs
    width = max(len(c) for c in configs) + 2
    times = np.empty((len(configs), width))
    marks = np.full((len(configs), width), np.inf)
    n_valid = np.empty(len(configs), dtype=int)
    for r, cfg in enumerate(configs):
        n = len(cfg)
        times[r, :n] = cfg.times
        times[r, n:] = params_small.window.T + 1.0 + np.arange(width - n)
        marks[r, :n] = cfg.marks
        n_valid[r] = n
    counts = F.eval_packed(times, marks, n_valid)
    expected = [solve_path(params_small, c).event_count for c in configs]
    assert counts.tolist() == expected


def test_packed_inf_marks_behave_as_absent_atoms(params_small):
    F = HawkesCount(params_small)
    rng = np.random.default_rng(3)
    for i in range(25):
        cfg = sample_poisson(params_small.window, (212, i))
        if len(cfg) < 2:
            continue
        drop = rng.integers(0, 2, size=len(cfg)).astype(bool)
        times = cfg.times[None, :]
        marks = np.where(drop, np.inf, cfg.marks)[None, :]
        kept = Configuration(
            params_small.window,
            tuple(a for a, d in zip(cfg.atoms, drop) if not d),
        )
        got = F.eval_packed(times, marks, np.array([len(cfg)]))[0]
        assert got == solve_path(params_small, kept).event_count


def test_hawkes_count_ignores_atoms_outside_window(params_small):
    F = HawkesCount(params_small)
    env = Window(T=10.0, M=10.0)
    inside = (Point(1.0, 0.5), Point(2.0, 1.1))
    outside = (Point(4.0, 0.1), Point(5.0, 3.0))
    assert F(Configuration(env, inside)) == F(Configuration(env, inside + outside))
