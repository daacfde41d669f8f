"""Configuration functionals, the iterated add-point difference operator, the
empty-window expectation, and the first-order integration-by-parts check.

The n-th difference of a functional F at points x_1..x_n is the alternating
subset sum

    sum over J of {1..n} of (-1)^(n-|J|) F(omega + atoms x_j, j in J),

which is symmetric in the points and satisfies D^n = D(D^(n-1)).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .configurations import (
    DEFAULT_ATOM_BUDGET,
    AtomBudgetExceeded,
    Configuration,
    Point,
    TimeCollisionError,
    Window,
    add_points,
    sample_poisson,
)
from .mc import MCEstimate, RngKey, rng_from_key


class Functional:
    """Deterministic map from configurations to reals, measurable with respect
    to atoms inside its window (atoms outside are ignored)."""

    def __init__(self, window: Window):
        self.window = window

    def __call__(self, config: Configuration) -> float:
        raise NotImplementedError

    def eval_packed(self, times: np.ndarray, marks: np.ndarray, n_valid: np.ndarray) -> np.ndarray:
        """Evaluate on a padded batch: row r holds n_valid[r] atoms sorted by
        time; an atom with mark +inf is treated as absent. marks is
        (rows, width), or a stack (masks, rows, width) of mark sets over the
        same times, and the result is (rows,) or (masks, rows) to match.
        Subclasses may vectorize; this fallback builds one configuration per
        row, once per mark set."""
        if marks.ndim == 3:
            return np.stack([self.eval_packed(times, m, n_valid) for m in marks])
        out = np.empty(len(times))
        for r in range(len(times)):
            nv = int(n_valid[r])
            atoms = tuple(
                Point(float(t), float(th))
                for t, th in zip(times[r, :nv], marks[r, :nv])
                if np.isfinite(th) and self.window.contains(Point(float(t), float(th)))
            )
            out[r] = self(Configuration(window=self.window, atoms=atoms))
        return out


class CallableFunctional(Functional):
    def __init__(self, fn: Callable[[Configuration], float], window: Window):
        super().__init__(window)
        self._fn = fn

    def __call__(self, config: Configuration) -> float:
        return float(self._fn(config.restrict(self.window)))


class ConstantFunctional(Functional):
    def __init__(self, value: float, window: Window):
        super().__init__(window)
        self.value = float(value)

    def __call__(self, config: Configuration) -> float:
        return self.value

    def eval_packed(self, times, marks, n_valid):
        return np.full(marks.shape[:-1], self.value)


class RectangleCount(Functional):
    """Number of atoms inside the window."""

    def __call__(self, config: Configuration) -> float:
        return float(len(config.restrict(self.window)))

    def eval_packed(self, times, marks, n_valid):
        inside = (times <= self.window.T) & (marks <= self.window.M)
        inside &= np.arange(times.shape[1]) < n_valid[:, None]
        return inside.sum(axis=-1).astype(float)


@dataclass(frozen=True)
class EmptyWindowWeight:
    """Density exp(M*T) * 1{no atoms in the window}: reweighting by it empties
    the window, collapsing expectations to evaluation at the bare configuration."""

    window: Window

    def __call__(self, config: Configuration) -> float:
        if len(config.restrict(self.window)) == 0:
            return math.exp(self.window.M * self.window.T)
        return 0.0


def _check_distinct_times(base: Configuration, points: Sequence[Point]) -> None:
    seen = {p.t for p in base.atoms}
    for p in points:
        if p.t in seen:
            raise TimeCollisionError(f"point time {p.t} collides with another atom")
        seen.add(p.t)


def iterated_difference(
    F: Functional,
    base: Configuration,
    points: Sequence[Point],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> float:
    """Alternating subset sum of F over the 2**n insertions of the given points
    into the base configuration (the n-th difference of F at those points)."""
    n = len(points)
    if n < 1:
        raise ValueError("need at least one point")
    if n > budget:
        raise AtomBudgetExceeded(n, budget)
    _check_distinct_times(base, points)
    total = 0.0
    for size in range(n + 1):
        sign = (-1.0) ** (n - size)
        for subset in itertools.combinations(points, size):
            total += sign * F(add_points(base, subset))
    return total


def empty_window_expectation(F: Functional, window: Window) -> float:
    """Expectation of F under the window-emptying reweighting: a single
    evaluation at the empty configuration."""
    return F(Configuration.empty(window))


@dataclass(frozen=True)
class IppCheck:
    lhs: MCEstimate   # T*M*E[D_X F], X uniform on the window
    rhs: MCEstimate   # E[F * (N(window) - T*M)]
    diff: MCEstimate  # per-path lhs - rhs, sharing the same samples


def _ipp_paths(F: Functional, window: Window, seed: int, start: int, stop: int) -> dict:
    """Per path p in [start, stop), on key (seed, p): the samples area * D_X F
    and F * (N(window) - area), X uniform on the window at a time no atom has."""
    area = window.area
    lhs = np.empty(stop - start)
    rhs = np.empty(stop - start)
    for i, p in enumerate(range(start, stop)):
        rng = rng_from_key((seed, p))
        omega = sample_poisson(window, rng=rng)
        while True:
            x = Point(float(rng.uniform(0.0, window.T)), float(rng.uniform(0.0, window.M)))
            if x.t not in {a.t for a in omega.atoms}:
                break
        f_omega = F(omega)
        lhs[i] = area * (F(add_points(omega, [x])) - f_omega)
        rhs[i] = f_omega * (len(omega) - area)
    return {"lhs": lhs, "rhs": rhs}


def _ipp_check(paths: dict, seed: int) -> IppCheck:
    """The IppCheck of _ipp_paths' per-path samples."""
    lhs, rhs = paths["lhs"], paths["rhs"]
    return IppCheck(
        lhs=MCEstimate.from_samples(lhs, seed=seed),
        rhs=MCEstimate.from_samples(rhs, seed=seed),
        diff=MCEstimate.from_samples(lhs - rhs, seed=seed),
    )


def ipp_check_order1(
    F: Functional,
    window: Window,
    n_paths: int,
    rng_key: RngKey,
) -> IppCheck:
    """Monte Carlo check of first-order integration by parts with the window
    indicator as integrand: the expected first difference integrated over the
    window equals E[F * (N(window) - area)]. Path p draws from the key
    (seed, base_index + p)."""
    seed, base_index = rng_key
    return _ipp_check(_ipp_paths(F, window, seed, base_index, base_index + n_paths), seed)
