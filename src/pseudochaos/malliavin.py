"""Configuration functionals, the iterated add-point difference operator, the
empty-window expectation, and the first-order integration-by-parts check.

The n-th difference of a functional F at points x_1..x_n is the alternating
subset sum

    sum over J of {1..n} of (-1)^(n-|J|) F(omega + atoms x_j, j in J),

which is symmetric in the points and satisfies D^n = D(D^(n-1)).
"""
from __future__ import annotations

import functools
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
    _pad_rows,
    _poisson_arrays,
    add_points,
)
from .mc import MCEstimate, RngKey, _map_paths, rng_from_key

# masks per stacked eval_packed call in `_masked_differences`: four inserted
# points take one call, and more points hold no more marks at once
_MASK_BLOCK = 16


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
            points = (
                Point(t, th)
                for t, th in zip(times[r, :nv].tolist(), marks[r, :nv].tolist())
                if math.isfinite(th)
            )
            atoms = tuple(p for p in points if self.window.contains(p))
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


def _masked_differences(
    F: Functional,
    times: np.ndarray,
    marks: np.ndarray,
    counts: np.ndarray,
    pts_t: np.ndarray,
    pts_th: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """F's signed sums over inserted points, on a batch of rows. Row r holds
    the counts[r] base atoms times[r, :counts[r]], marks[r, :counts[r]], in
    any order (the padding past them is ignored), and the j inserted points
    pts_t[r], pts_th[r]. Returns (diffs, ref), both in the given row order:
    diffs, shape (j, rows), whose row i - 1 is D^i F at the first i points,
    and ref, shape (rows,), F with no point kept.

    Each row's atoms and points are merged by time, and the rows are
    evaluated in order of atom count, most first, the order
    `HawkesCount.eval_packed` sweeps fastest; F gives the same values in any
    row order. F runs under all 2**j masks of the points, _MASK_BLOCK masks
    per `eval_packed` call on a stacked (masks, rows, width) mark array, so
    memory stays at _MASK_BLOCK x rows x width floats whatever j is. D^i F is
    the signed sum over the masks below 2**i, each with sign
    (-1)^(i - popcount), added in mask order."""
    n_rows, j = pts_t.shape
    n_masks = 1 << j
    # most atoms first, so the rows that hold atom i are a prefix
    by_count = np.argsort(-counts, kind="stable")
    counts, times, marks, pts_t, pts_th = (
        a[by_count] for a in (counts, times, marks, pts_t, pts_th)
    )
    w_base = times.shape[1]
    pad = np.arange(w_base) >= counts[:, None]
    # pads sort past every atom and point and can never be accepted; a point
    # outside F's window is legal: no functional accepts an atom outside it
    top = max(times.max(initial=0.0), pts_t.max(initial=0.0))
    times[pad] = top + 1.0 + np.broadcast_to(np.arange(w_base), times.shape)[pad]
    marks[pad] = np.inf

    full_t = np.concatenate([times, pts_t], axis=1)
    order = np.argsort(full_t, axis=1, kind="stable")
    full_t = np.take_along_axis(full_t, order, axis=1)
    full_th = np.take_along_axis(np.concatenate([marks, pts_th], axis=1), order, axis=1)
    n_valid = counts + j
    # the stacked marks are built atom-major, (width, masks, rows), the layout
    # the Hawkes sweep runs in, so its transpose of them is a view, not a copy
    ids = np.ascontiguousarray(np.where(order >= w_base, order - w_base, -1).T)[:, None, :]
    th = np.ascontiguousarray(full_th.T)[:, None, :]
    # the bit tests run on the smallest unsigned type that holds every mask,
    # so their temporaries are a fraction of the marks' size
    shift = np.maximum(ids, 0).astype(np.min_scalar_type(j))
    mask_type = np.min_scalar_type(n_masks - 1)
    diff = np.zeros((j, n_rows))
    for lo in range(0, n_masks, _MASK_BLOCK):
        masks = range(lo, min(lo + _MASK_BLOCK, n_masks))
        # bit k of a mask keeps point k; base atoms are always kept
        keep = (ids < 0) | (np.array(masks, dtype=mask_type)[:, None] >> shift & 1 == 1)
        # a temporary, so one block's marks are freed before the next is built
        values = F.eval_packed(full_t, np.where(keep, th, np.inf).transpose(1, 2, 0), n_valid)
        if lo == 0:
            ref = values[0]
        for mask, row in zip(masks, values):
            # a mask enters the sum of every order i that holds its points,
            # with sign (-1)^(i - popcount)
            first = max(mask.bit_length(), 1)
            signs = (-1.0) ** (np.arange(first, j + 1) - mask.bit_count())
            diff[first - 1 :] += signs[:, None] * row
    unsort = np.argsort(by_count)
    return diff[:, unsort], ref[unsort]


def _ipp_paths(F: Functional, window: Window, seed: int, start: int, stop: int) -> dict:
    """Per path p in [start, stop), on key (seed, p): the samples area * D_X F
    and F * (N(window) - area), X uniform on the window at a time no atom has
    (redrawn, time then mark, until it is)."""
    all_t, all_th, x = [], [], np.empty((stop - start, 2))
    for i, p in enumerate(range(start, stop)):
        rng = rng_from_key((seed, p))
        times, marks = _poisson_arrays(window, rng)
        x[i] = rng.uniform(0.0, window.T), rng.uniform(0.0, window.M)
        while (times == x[i, 0]).any():
            x[i] = rng.uniform(0.0, window.T), rng.uniform(0.0, window.M)
        all_t.append(times)
        all_th.append(marks)
    base_t, base_th, counts = _pad_rows(all_t, all_th)
    diffs, ref = _masked_differences(F, base_t, base_th, counts, x[:, :1], x[:, 1:])
    return {"lhs": window.area * diffs[0], "rhs": ref * (counts - window.area)}


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
    (seed, base_index + p), and the paths are evaluated 256 at a time by
    `_masked_differences`, the masks without and with X."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    seed, base_index = rng_key
    loop = functools.partial(_ipp_paths, F, window)
    return _ipp_check(_map_paths(loop, seed, base_index, base_index + n_paths), seed)
