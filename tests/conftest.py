import numpy as np
import pytest
from hypothesis import settings

from pseudochaos import Configuration, HawkesParams, Kernel, Point, Window, sample_poisson
from pseudochaos.hawkes import _intensity, _lag_rows, _sweep

# MC-style tests do real work on first call (numpy warmup); wall-clock
# deadlines would only add flake.
settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")


@pytest.fixture(scope="session")
def exp_kernel():
    return Kernel.exponential(0.5, 1.0)


@pytest.fixture(scope="session")
def zero_kernel():
    return Kernel.zero()


@pytest.fixture(scope="session")
def params_small(exp_kernel):
    """Budget-safe window: about six atoms per path."""
    return HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=3.0, M=2.0))


@pytest.fixture(scope="session")
def params_default(exp_kernel):
    """Desk-scale defaults used by the harness and the CLI."""
    return HawkesParams(mu=1.0, kernel=exp_kernel, window=Window(T=5.0, M=4.0))


@pytest.fixture(scope="session")
def table_kernel():
    """0.5 e^{-t} sampled at step 0.01 on [0, 8]: the 801-node table the CLI
    tests and the benchmark use."""
    return Kernel.from_table(0.01, (0.5 * np.exp(-0.01 * np.arange(801))).tolist())


@pytest.fixture(scope="session")
def params_small_table(table_kernel):
    """params_small with the 801-node table kernel."""
    return HawkesParams(mu=1.0, kernel=table_kernel, window=Window(T=3.0, M=2.0))


def _knife_edge(params):
    window = params.window
    configs = []
    for i in range(200):
        times = sample_poisson(window, (401, i)).times
        # zero marks accept every atom, so the intensities are the full sums
        lams, _ = _sweep(params.mu, params.kernel, times, np.zeros(len(times)))
        atoms = []
        for t, lam in zip(times.tolist(), lams):
            if lam > window.M:
                break
            atoms.append(Point(t, lam))
        configs.append(Configuration(window, tuple(atoms)))
    return configs


@pytest.fixture(scope="session")
def knife_edge_configs(params_small):
    """Configurations whose every mark equals the intensity the sweep computes
    at its atom, so every atom is accepted with no margin at all: an evaluator
    that rounds one intensity sum differently from the sweep flips a decision.
    Each keeps the longest prefix whose marks fit under the mark ceiling (a
    prefix of such a configuration is one too)."""
    return _knife_edge(params_small)


@pytest.fixture(scope="session")
def knife_edge_configs_table(params_small_table):
    """The knife-edge configurations of `knife_edge_configs`, built with the
    801-node table kernel."""
    return _knife_edge(params_small_table)


@pytest.fixture(scope="session")
def pruning_edge_configs(exp_kernel, table_kernel):
    """(params, configuration) pairs, 30 for the exponential kernel and 30 for
    the 801-node table, whose every mark sits on an edge of the live-atom
    table: exactly mu (always accepted), exactly the live bound top (mu plus
    every live earlier lag, which the full subset reaches when it accepts
    every live atom), np.nextafter(top, inf) (dead by one ulp), or uniform
    in between. Dead atoms thus sit among knife edges. Each keeps the
    longest prefix whose marks fit under the mark ceiling."""
    cases = []
    for key, kernel in enumerate((exp_kernel, table_kernel)):
        params = HawkesParams(mu=1.0, kernel=kernel, window=Window(T=3.0, M=6.0))
        rng = np.random.default_rng((411, key))
        for n in np.resize(np.arange(6, 19), 30).tolist():
            times = np.unique(rng.uniform(0.0, params.window.T, size=n))
            atoms, live = [], []
            for i, row in enumerate(_lag_rows(kernel, times)):
                top = _intensity(params.mu, [row[j] for j in live], [True] * len(live))
                edges = (params.mu, top, np.nextafter(top, np.inf), rng.uniform(params.mu, top))
                mark = float(edges[rng.integers(4)])
                if mark > params.window.M:
                    break
                if mark <= top:
                    live.append(i)
                atoms.append(Point(float(times[i]), mark))
            cases.append((params, Configuration(params.window, tuple(atoms))))
    return cases
