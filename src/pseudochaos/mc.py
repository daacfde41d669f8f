"""Seeded Monte Carlo bookkeeping: splittable rng keys, the path runner that
spreads chunks of paths over worker processes, and sample estimates."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# An rng key is (seed, stream_index). Distinct keys give independent streams,
# and a key fully determines its stream, so paths can be produced in any order
# (or concurrently) with identical results.
RngKey = tuple[int, int]


def rng_from_key(key: RngKey) -> np.random.Generator:
    seed, index = key
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


# -- path runner: a per-path loop takes (..., seed, start, stop) and returns
# arrays with paths on the last axis, row lists, or a dict of them.

def _concat(parts: list):
    """Merge per-chunk results in chunk order: arrays concatenate along their
    last (path) axis, row lists chain, dicts merge key by key."""
    first = parts[0]
    if isinstance(first, dict):
        return {key: _concat([part[key] for part in parts]) for key in first}
    if isinstance(first, np.ndarray):
        return np.concatenate(parts, axis=-1)
    return [row for part in parts for row in part]


def _map_paths(loop, seed: int, start: int, stop: int, n_jobs: int = 1, chunk: int = 256):
    """Run loop(seed, lo, hi) over the chunks [lo, hi) of [start, stop), with
    the builtin map for one job, else on a pool of n_jobs worker processes,
    and concatenate the results in chunk order."""
    los = range(start, stop, chunk)
    his = [min(lo + chunk, stop) for lo in los]
    per_chunk = functools.partial(loop, seed)
    if n_jobs == 1:
        return _concat(list(map(per_chunk, los, his)))
    # imported here, so `import pseudochaos` and one-job runs do not load
    # concurrent.futures and multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return _concat(list(pool.map(per_chunk, los, his)))


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error; se is None for a single sample."""

    n: int
    mean: float
    se: float | None
    seed: int | None = None

    @classmethod
    def from_samples(cls, samples, seed: int | None = None) -> "MCEstimate":
        x = np.asarray(samples, dtype=float)
        if x.size == 0:
            raise ValueError("cannot estimate from zero samples")
        se = float(np.std(x, ddof=1) / np.sqrt(x.size)) if x.size > 1 else None
        return cls(n=int(x.size), mean=float(np.mean(x)), se=se, seed=seed)

    def within(self, target: float, slack: float = 0.0) -> bool:
        """|mean - target| <= 3 * se + slack. A one-sample estimate has no
        se and hence no band, so it raises ValueError."""
        if self.se is None:
            raise ValueError(
                f"a one-sample estimate (n={self.n}) has no standard error; "
                "a band check needs n >= 2"
            )
        return abs(self.mean - target) <= 3.0 * self.se + slack
