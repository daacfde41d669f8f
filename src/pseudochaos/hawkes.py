"""Linear Hawkes paths on point configurations.

An atom (t, theta) of a configuration is accepted when theta <= lambda(t),
where lambda(t) = mu + sum of kernel(t - s) over previously accepted atoms s.
Sweeping atoms in time order simultaneously solves the triangular system for
the intensity at atom times and realizes the path of the counting process.

Every intensity, on one path or on a batch of paths or subset bitmasks, is
added up by `_intensity` alone, in ascending time order, so all evaluators
agree with the path solver on every indicator decision bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configurations import Configuration, Point, Window, sample_poisson
from .kernels import Kernel
from .malliavin import Functional
from .mc import RngKey, rng_from_key

# rows per kernel call in _lag_rows: desk paths (about 20 atoms) take one call,
# and a long path holds a few blocks of 256 x n floats, not n x n
_LAG_BLOCK = 256


@dataclass(frozen=True)
class HawkesParams:
    mu: float
    kernel: Kernel
    window: Window

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"baseline intensity must be > 0, got {self.mu}")
        self.kernel.require_stable()
        if self.window.M < self.mu:
            raise ValueError(
                f"mark ceiling M={self.window.M} must be >= mu={self.mu}, "
                "otherwise no first event is reachable"
            )


def _intensity(mu, values, weights=None, out=None):
    """mu + values[j] * weights[j], added one j at a time in ascending order:
    the one place where an intensity is summed. Items are scalars, or arrays
    over a batch of paths or subset bitmasks (an array mu is updated in place);
    a zero weight adds an exact 0.0. np.sum (pairwise) and the builtin sum
    (compensated on Python 3.12+) would round differently.

    Two forms skip work and change no bit. With weights None every term is
    added as is, since value * True == value. With out, an array, the one
    term's sum mu + values[0] * weights[0] is written into out, which must not
    overlap mu: an array weight is multiplied into out first, so no temporary
    is made, and adding commutes exactly."""
    if out is not None:
        (value,), (w,) = values, weights
        if isinstance(w, np.ndarray):
            value = np.multiply(w, value, out=out)
        else:
            value = value * w
        return np.add(mu, value, out=out)
    lam = mu
    if weights is None:
        for value in values:
            lam += value
        return lam
    for value, w in zip(values, weights):
        lam += value * w
    return lam


def _lag_rows(kernel: Kernel, times: np.ndarray):
    """Yield, for each atom i of a time-sorted array, the list of kernel(t_i - t_j)
    over j < i, from one kernel call per block of _LAG_BLOCK rows. The block's
    unused upper triangle is clamped to lag 0, so an exponential never overflows."""
    for lo in range(0, len(times), _LAG_BLOCK):
        hi = min(lo + _LAG_BLOCK, len(times))
        block = kernel._eval(np.maximum(times[lo:hi, None] - times[:hi], 0.0))
        for i, row in enumerate(block, lo):
            yield row[:i].tolist()


def _sweep(mu: float, kernel: Kernel, times: np.ndarray, marks: np.ndarray):
    """Thinning sweep in time order. Returns lists (intensities, accepted)
    where intensities[i] is lambda at atom i, folded by `_intensity` from the
    lags `_lag_rows` gives and the earlier acceptances."""
    mu, intensities, accepted = float(mu), [], []
    for row, mark in zip(_lag_rows(kernel, times), marks.tolist()):
        lam = _intensity(mu, row, accepted)
        intensities.append(lam)
        accepted.append(mark <= lam)
    return intensities, accepted


@dataclass(frozen=True)
class HawkesPath:
    params: HawkesParams
    source: Configuration
    intensities: tuple[float, ...]   # lambda at every source atom time
    accepted: tuple[bool, ...]
    overflow: bool                   # lambda exceeded the source window's M at some atom

    @cached_property
    def events(self) -> tuple[Point, ...]:
        return tuple(p for p, ok in zip(self.source.atoms, self.accepted) if ok)

    @property
    def event_count(self) -> int:
        return sum(self.accepted)

    @cached_property
    def event_times(self) -> np.ndarray:
        return np.array([p.t for p in self.events])


def solve_path(params: HawkesParams, source: Configuration) -> HawkesPath:
    """Solve the coupled count/intensity system pathwise on a fixed configuration."""
    intensities, accepted = _sweep(params.mu, params.kernel, source.times, source.marks)
    return HawkesPath(
        params=params,
        source=source,
        intensities=tuple(intensities),
        accepted=tuple(accepted),
        overflow=any(v > source.window.M for v in intensities),
    )


def intensity_on_configuration(params: HawkesParams, fixed: Configuration, t: float) -> float:
    """Intensity at time t along the deterministic path the process takes on a
    fixed configuration: solve the triangular system over atoms strictly before
    t, then add the kernel contribution of each accepted one."""
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    times = fixed.times
    cut = int(np.searchsorted(times, t, side="left"))
    _, accepted = _sweep(params.mu, params.kernel, times[:cut], fixed.marks[:cut])
    row = params.kernel._eval(t - times[:cut]).tolist() if cut else ()
    return float(_intensity(params.mu, row, accepted))


def simulate(params: HawkesParams, rng_key: RngKey, thinning: str = "capped") -> HawkesPath:
    """Simulate one path.

    thinning="capped": sample a unit Poisson configuration on the window and
    sweep it. Atoms above the mark ceiling M are never seen, so paths whose
    intensity exceeds M at some atom time carry overflow=True and are not
    law-exact; raise M to push the overflow fraction down.

    thinning="exact": local-bound candidate generation for nonincreasing
    kernels. Candidate marks are drawn below the current intensity bound, so
    no event is ever censored and overflow cannot occur. The bound after a
    candidate is the full-prefix intensity at its time: the candidate's own
    intensity plus phi(0) if it was accepted, one more `_intensity` term, so
    each candidate costs one kernel evaluation.
    """
    if thinning == "capped":
        return solve_path(params, sample_poisson(params.window, rng_key))
    if thinning != "exact":
        raise ValueError(f"unknown thinning mode {thinning!r}")
    if not params.kernel.is_nonincreasing:
        raise ValueError("exact thinning needs a nonincreasing kernel")

    rng = rng_from_key(rng_key)
    mu, kernel, T = float(params.mu), params.kernel, params.window.T
    cand_t: list[float] = []
    cand_th: list[float] = []
    accepted: list[bool] = []

    phi0 = kernel._eval(np.zeros(1)).tolist()   # what an accepted candidate adds at its own time

    t_cur = 0.0
    lam_bar = bound_max = mu
    while True:
        # For a nonincreasing kernel the intensity only decays until the next
        # accepted atom, so its value just after t_cur bounds it on (t_cur, T].
        t_cur = t_cur + rng.exponential(1.0 / lam_bar)
        if t_cur > T:
            break
        theta = float(rng.uniform(0.0, lam_bar))
        bound_max = max(bound_max, lam_bar)
        # the same full-prefix evaluation the path solver redoes on the source
        row = kernel._eval(t_cur - np.asarray(cand_t)).tolist() if cand_t else ()
        lam = _intensity(mu, row, accepted)
        cand_t.append(float(t_cur))
        cand_th.append(theta)
        accepted.append(theta <= lam)
        lam_bar = _intensity(lam, phi0, accepted[-1:])

    window = Window(T=T, M=max(params.window.M, bound_max))
    source = Configuration(
        window=window,
        atoms=tuple(Point(t, th) for t, th in zip(cand_t, cand_th)),
    )
    return solve_path(params, source)


class HawkesCount(Functional):
    """Event count over the window as a configuration functional (the value of
    the window-truncated counting process at the horizon)."""

    def __init__(self, params: HawkesParams):
        super().__init__(params.window)
        self.params = params

    def __call__(self, config: Configuration) -> float:
        if config.window != self.window:
            config = config.restrict(self.window)
        return float(solve_path(self.params, config).event_count)

    def eval_packed(self, times, marks, n_valid):
        """Vectorized sweep across a padded batch, for one set of marks or a
        stack of them over the same times (see `Functional.eval_packed`).
        Rows must be time sorted; marks of +inf disable an atom. The sweep
        runs atom-major, on (width, masks, rows) arrays: each atom column's
        lags take one kernel call and serve every mask, and `_intensity` adds
        up the intensities, each predecessor's (masks, rows) batch contiguous.
        Marks laid out in that order in memory (a transposed view) are not
        copied.

        Column i is swept only over the rows up to the last one that holds
        atom i (n_valid > i); no later row can accept it. Rows in any order
        give the same counts, and rows sorted by n_valid, most first, are the
        fastest: every column then sweeps just the rows that hold it."""
        mu, kernel = self.params.mu, self.params.kernel
        stacked = marks.ndim == 3
        times = np.ascontiguousarray(times.T)
        marks = np.ascontiguousarray(np.moveaxis(marks if stacked else marks[None], -1, 0))
        width, n_valid = times.shape[0], np.asarray(n_valid)
        inside = (times <= self.window.T) & (np.arange(width)[:, None] < n_valid)
        # held[r]: the most atoms any row from r on holds
        held = np.maximum.accumulate(n_valid[::-1])[::-1]
        accepted = np.zeros(marks.shape, dtype=bool)
        for i in range(width):
            r = int(np.count_nonzero(held > i))
            vals = kernel._eval(np.maximum(times[i, :r] - times[:i, :r], 0.0)) if i else ()
            lam = _intensity(mu, vals, accepted[:i, :, :r])
            m_i = marks[i, :, :r]
            accepted[i, :, :r] = inside[i, :r] & (m_i <= self.window.M) & (m_i <= lam)
        counts = accepted.sum(axis=0).astype(float)
        return counts if stacked else counts[0]
