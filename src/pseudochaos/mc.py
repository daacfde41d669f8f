"""Seeded Monte Carlo bookkeeping: splittable rng keys and sample estimates."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# An rng key is (seed, stream_index). Distinct keys give independent streams,
# and a key fully determines its stream, so paths can be produced in any order
# (or concurrently) with identical results.
RngKey = tuple[int, int]


def rng_from_key(key: RngKey) -> np.random.Generator:
    seed, index = key
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


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

    def within(self, target: float, n_se: float = 3.0, slack: float = 0.0) -> bool:
        """|mean - target| <= n_se * se + slack. A one-sample estimate has no
        se and hence no band, so it raises ValueError."""
        if self.se is None:
            raise ValueError(
                f"a one-sample estimate (n={self.n}) has no standard error; "
                "a band check needs n >= 2"
            )
        return abs(self.mean - target) <= n_se * self.se + slack
