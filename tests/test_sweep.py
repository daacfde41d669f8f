"""The blocked lag sweep and the bound-reusing exact thinning against their
plain readings: intensities, acceptances, sources and overflow must agree
bit for bit."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pseudochaos import (
    Configuration,
    HawkesCount,
    HawkesParams,
    Kernel,
    Point,
    Window,
    reconstruct,
    sample_poisson,
    simulate,
    solve_path,
)
from pseudochaos.hawkes import _intensity, _lag_rows, _sweep
from pseudochaos.mc import rng_from_key


def sweep_by_rows(mu, kernel, times, marks):
    """The row-by-row sweep `_lag_rows` replaced: one kernel call per atom."""
    mu, intensities, accepted = float(mu), [], []
    for i, mark in enumerate(marks.tolist()):
        row = kernel._eval(times[i] - times[:i]).tolist() if i else ()
        lam = _intensity(mu, row, accepted)
        intensities.append(lam)
        accepted.append(mark <= lam)
    return intensities, accepted


def exact_two_evaluations(params, rng_key):
    """Exact thinning with a fresh full-prefix evaluation for the bound at the
    top of every step and another for the candidate's intensity. Returns the
    candidate configuration and the loop's acceptances."""
    rng = rng_from_key(rng_key)
    mu, kernel, T = float(params.mu), params.kernel, params.window.T
    cand_t, cand_th, accepted = [], [], []

    def intensity(t):
        row = kernel._eval(t - np.asarray(cand_t)).tolist() if cand_t else ()
        return _intensity(mu, row, accepted)

    t_cur = 0.0
    bound_max = mu
    while True:
        lam_bar = intensity(t_cur)
        t_cur = t_cur + rng.exponential(1.0 / lam_bar)
        if t_cur > T:
            break
        theta = float(rng.uniform(0.0, lam_bar))
        bound_max = max(bound_max, lam_bar)
        lam = intensity(t_cur)
        cand_t.append(float(t_cur))
        cand_th.append(theta)
        accepted.append(theta <= lam)
    window = Window(T=T, M=max(params.window.M, bound_max))
    source = Configuration(window, tuple(Point(t, th) for t, th in zip(cand_t, cand_th)))
    return source, accepted


KERNELS = {
    "exp": Kernel.exponential(0.5, 1.0),
    "table": Kernel.from_table(0.01, (0.5 * np.exp(-0.01 * np.arange(801))).tolist()),
    "steep": Kernel.exponential(0.9, 3.0),
}
# desk, audit, IPP and characterization windows, and a long horizon
WINDOWS = {"desk": (5.0, 4.0), "audit": (3.0, 2.0), "ipp": (2.0, 2.0),
           "char": (2.0, 4.0), "long": (40.0, 4.0)}


def _params(kernel, window):
    return HawkesParams(mu=1.0, kernel=KERNELS[kernel], window=Window(*window))


def assert_sweeps_agree(params, config):
    path = solve_path(params, config)
    lams, acc = sweep_by_rows(params.mu, params.kernel, config.times, config.marks)
    assert list(path.intensities) == lams
    assert list(path.accepted) == acc
    assert path.overflow == any(v > config.window.M for v in lams)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_sweep_matches_row_by_row_on_seeded_paths(kernel, window):
    params = _params(kernel, WINDOWS[window])
    for i in range(20 if window == "long" else 100):
        assert_sweeps_agree(params, sample_poisson(params.window, (901, i)))


def test_sweep_matches_row_by_row_on_knife_edges(
    params_small, knife_edge_configs, params_small_table, knife_edge_configs_table
):
    for config in knife_edge_configs:
        assert_sweeps_agree(params_small, config)
    for config in knife_edge_configs_table:
        assert_sweeps_agree(params_small_table, config)


def test_table_lags_at_and_beyond_the_support_end():
    # 8.5 - 0.5 and 17.0 - 9.0 are exactly the 8.0 support end; 9.0 - 0.5 and
    # 17.0 - 8.5 lie beyond it
    params = HawkesParams(mu=1.0, kernel=KERNELS["table"], window=Window(T=20.0, M=4.0))
    times = [0.5, 8.5, 9.0, 16.5, 17.0]
    config = Configuration(params.window, tuple(Point(t, 0.0) for t in times))
    rows = list(_lag_rows(params.kernel, config.times))
    last = params.kernel.values[-1]
    assert rows[1] == [last]
    assert rows[2][0] == 0.0
    assert rows[4][1:3] == [0.0, last]
    assert_sweeps_agree(params, config)


@pytest.mark.parametrize("kernel", KERNELS)
@given(data=st.data())
def test_near_tied_atoms_agree_across_evaluators(kernel, data):
    """Atoms one ulp apart: the path solver, the packed evaluator and the
    expansion count the same events, on random marks and on knife edges."""
    params = _params(kernel, WINDOWS["audit"])
    window = params.window
    base = data.draw(st.lists(st.floats(0.0, 2.9), min_size=1, max_size=6, unique=True))
    times = np.unique(base + [np.nextafter(t, window.T) for t in base if data.draw(st.booleans())])
    if data.draw(st.booleans()):
        marks = np.array([data.draw(st.floats(0.0, window.M)) for _ in times])
    else:   # every mark equal to its intensity with all atoms accepted
        marks = np.array(_sweep(params.mu, params.kernel, times, np.zeros(len(times)))[0])
        keep = np.cumprod(marks <= window.M).astype(bool)   # the longest prefix under M
        times, marks = times[keep], marks[keep]
    config = Configuration(window, tuple(map(Point, times.tolist(), marks.tolist())))
    count = solve_path(params, config).event_count
    packed = HawkesCount(params).eval_packed(config.times[None], config.marks[None], [len(config)])
    report = reconstruct(params, config)
    assert packed[0] == count == report.total == report.event_count
    assert report.exact_match


@pytest.mark.parametrize("kernel", KERNELS)
def test_lag_rows_span_several_blocks(kernel):
    # about 600 atoms: three blocks of 256 rows
    params = _params(kernel, (150.0, 4.0))
    config = sample_poisson(params.window, (902, 0))
    assert len(config) > 512
    times = config.times
    rows = list(_lag_rows(params.kernel, times))
    assert rows == [params.kernel._eval(times[i] - times[:i]).tolist() for i in range(len(times))]
    assert_sweeps_agree(params, config)
    # an accepting sweep, so every lag enters an intensity
    lams, _ = _sweep(params.mu, params.kernel, times, np.zeros(len(times)))
    assert lams == sweep_by_rows(params.mu, params.kernel, times, np.zeros(len(times)))[0]


@pytest.mark.parametrize("window", ["desk", "long"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_exact_thinning_matches_two_evaluations(kernel, window):
    params = _params(kernel, WINDOWS[window])
    for i in range(20 if window == "long" else 150):
        path = simulate(params, (903, i), thinning="exact")
        source, accepted = exact_two_evaluations(params, (903, i))
        assert path.source == source
        assert list(path.accepted) == accepted
        assert_sweeps_agree(params, source)
        assert not path.overflow


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_point_rejects_non_finite_or_negative(bad):
    with pytest.raises(ValueError):
        Point(bad, 0.5)
    with pytest.raises(ValueError):
        Point(0.5, bad)


def test_point_rejects_a_string():
    with pytest.raises(TypeError):
        Point("1.0", 0.5)
    with pytest.raises(TypeError):
        Point(0.5, "1.0")


lags = st.lists(st.floats(0.0, 1e3), max_size=8)


@given(st.floats(1e-3, 1e3), lags)
def test_all_accepted_intensity_is_the_weighted_fold_on_scalars(mu, values):
    # value * True == value, so the fold without weights changes no bit
    assert np.float64(_intensity(mu, values)).tobytes() == (
        np.float64(_intensity(mu, values, [True] * len(values))).tobytes()
    )


@given(st.data(), lags, st.integers(1, 16))
def test_intensity_forms_are_the_weighted_fold_on_arrays(data, values, size):
    floats = st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size)
    mu = np.array(data.draw(floats))
    weights = [
        np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        for _ in values
    ]
    assert _intensity(mu.copy(), values).tobytes() == (
        _intensity(mu.copy(), values, [True] * len(values)).tobytes()
    )
    # the one-term form: out is the slice after mu in one buffer, with a guard
    # slice after it, for an array weight with zeros and for the scalar True
    for value, w in zip(values, weights):
        for weight in (w, True):
            buf = np.concatenate([mu, np.full(2 * size, -7.0)])
            _intensity(buf[:size], (value,), (weight,), out=buf[size : 2 * size])
            assert buf[size : 2 * size].tobytes() == _intensity(mu.copy(), (value,), (weight,)).tobytes()
            assert buf[:size].tobytes() == mu.tobytes()
            assert (buf[2 * size :] == -7.0).all()
