"""Excitation kernels: pointwise evaluation, running integrals, iterated
self-convolutions and their sum (the resolvent).

A kernel is a nonnegative function on [0, inf). Two families are supported:

* exponential  a * exp(-b t)  with a >= 0, b > 0,
* tabulated values on a uniform grid, linearly interpolated and hard zero
  beyond the last node.

For a kernel with L1 mass < 1 the iterated convolutions
``phi_1 = phi``, ``phi_n = phi * phi_{n-1}`` have L1 mass ``|phi|_1 ** n``,
and their sum (the resolvent) has L1 mass ``|phi|_1 / (1 - |phi|_1)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configurations import _read_pairs


class StabilityError(ValueError):
    """The kernel's L1 mass is >= 1, so it cannot drive a stable process."""


def _as_nonnegative_times(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("kernel argument must be nonnegative")
    return arr


@dataclass(frozen=True)
class Kernel:
    """An excitation kernel; the frozen fields are its whole identity.

    The public entry points ``__call__`` and ``partial_integral`` refuse a
    negative time with ValueError. The sweeps inside the package evaluate
    differences that are nonnegative by construction, so they call the
    unguarded ``_eval`` and ``_partial`` instead; both read the table's grid,
    values and node integrals from cached arrays built once per kernel.
    """

    family: str
    alpha: float = 0.0
    beta: float = 1.0
    step: float = 0.0
    values: tuple[float, ...] = ()

    @classmethod
    def exponential(cls, alpha: float, beta: float) -> "Kernel":
        if not (np.isfinite(alpha) and alpha >= 0.0):
            raise ValueError(f"exponential amplitude must be >= 0, got {alpha}")
        if not (np.isfinite(beta) and beta > 0.0):
            raise ValueError(f"exponential decay rate must be > 0, got {beta}")
        return cls(family="exponential", alpha=float(alpha), beta=float(beta))

    @classmethod
    def zero(cls) -> "Kernel":
        return cls.exponential(0.0, 1.0)

    @classmethod
    def from_table(cls, step: float, values) -> "Kernel":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("table kernel needs at least one value")
        if not (np.isfinite(step) and step > 0.0):
            raise ValueError(f"table grid step must be > 0, got {step}")
        if any(not np.isfinite(v) or v < 0.0 for v in vals):
            raise ValueError("table kernel values must be finite and >= 0")
        return cls(family="table", step=float(step), values=vals)

    @classmethod
    def from_csv(cls, path) -> "Kernel":
        """Load a table kernel from CSV with header ``t,value``; the t column
        must start at 0 and rise in equal steps (to 1e-9 of the first step)."""
        pairs = _read_pairs(path, "t,value")
        if not pairs:
            raise ValueError(f"{path}: empty kernel table")
        ts, vs = [t for t, _ in pairs], [v for _, v in pairs]
        if abs(ts[0]) > 1e-12:
            raise ValueError(f"{path}: time grid must start at 0, got {ts[0]}")
        if len(ts) == 1:
            return cls.from_table(1.0, vs)
        steps = np.diff(ts)
        if np.any(steps <= 0.0):
            raise ValueError(f"{path}: time grid must be strictly increasing")
        h = float(steps[0])
        if np.any(np.abs(steps - h) > 1e-9 * h):
            raise ValueError(f"{path}: time grid must be equally spaced")
        return cls.from_table(h, vs)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        """Kernel value at t >= 0; accepts scalars or arrays."""
        out = self._eval(_as_nonnegative_times(t))
        return out if out.ndim else float(out)

    def _eval(self, arr: np.ndarray) -> np.ndarray:
        """Unguarded kernel values on a float array of times known to be >= 0."""
        if self.family == "exponential":
            return self.alpha * np.exp(-self.beta * arr)
        return np.interp(arr, self._grid, self._values, right=0.0)

    def partial_integral(self, s):
        """Integral of the kernel over [0, s]; nondecreasing with limit l1_norm."""
        out = self._partial(_as_nonnegative_times(s))
        return out if out.ndim else float(out)

    def _partial(self, arr: np.ndarray) -> np.ndarray:
        """Unguarded partial integrals on a float array of times known to be >= 0."""
        if self.family == "exponential":
            return (self.alpha / self.beta) * (1.0 - np.exp(-self.beta * arr))
        v, h = self._values, self.step
        if len(v) == 1:
            return np.zeros_like(arr)
        support = h * (len(v) - 1)
        clipped = np.minimum(arr, support)
        idx = np.minimum((clipped / h).astype(int), len(v) - 2)
        d = clipped - idx * h
        slope = (v[idx + 1] - v[idx]) / h
        inside = self._node_cum[idx] + v[idx] * d + 0.5 * slope * d * d
        # the full integral from the support end on; rounding just before the
        # end must not overshoot it (a last value of 0 leaves the curve flat there)
        total = self._node_cum[-1]
        return np.where(arr < support, np.minimum(inside, total), total)

    # -- cached table arrays (not dataclass fields: asdict and eq ignore them)

    @cached_property
    def _values(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    @cached_property
    def _grid(self) -> np.ndarray:
        return self.step * np.arange(len(self.values))

    @cached_property
    def _node_cum(self) -> np.ndarray:
        """Exact integral of the piecewise-linear interpolant up to each node."""
        v, h = self._values, self.step
        return np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * h)])

    # -- summary quantities -------------------------------------------------

    @cached_property
    def l1_norm(self) -> float:
        if self.family == "exponential":
            return self.alpha / self.beta
        v = np.asarray(self.values)
        return float(np.trapezoid(v, dx=self.step)) if len(v) > 1 else 0.0

    @cached_property
    def sup_norm(self) -> float:
        if self.family == "exponential":
            return self.alpha
        return float(max(self.values))

    @cached_property
    def is_nonincreasing(self) -> bool:
        if self.family == "exponential":
            return True
        return bool(np.all(np.diff(self.values) <= 0.0))

    def require_stable(self) -> None:
        if self.l1_norm >= 1.0:
            raise StabilityError(
                f"kernel L1 mass {self.l1_norm:.6g} >= 1 (needs < 1 for stability)"
            )


@dataclass(frozen=True)
class ConvolutionLadder:
    """Sampled iterated convolutions phi_1..phi_n on a uniform grid plus their
    sum, with the L1 mass omitted by the truncation reported as tail_bound."""

    kernel: Kernel
    step: float
    n_max: int
    grid: np.ndarray
    levels: np.ndarray      # shape (n_max, len(grid)); levels[0] is the kernel
    resolvent: np.ndarray
    tail_bound: float

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def level_at(self, n: int, t):
        if not 1 <= n <= self.n_max:
            raise ValueError(f"level must be in 1..{self.n_max}, got {n}")
        return np.interp(t, self.grid, self.levels[n - 1])

    def level_l1(self, n: int) -> float:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"level must be in 1..{self.n_max}, got {n}")
        return float(np.trapezoid(self.levels[n - 1], dx=self.step))

    def resolvent_at(self, t):
        return np.interp(t, self.grid, self.resolvent)

    def resolvent_l1(self) -> float:
        """Grid integral of the resolvent; converges to l1 / (1 - l1) as the
        horizon and n_max grow and the step shrinks."""
        return float(np.trapezoid(self.resolvent, dx=self.step))


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest odd * 2^a >= n
            best = min(best, odd << ((n - 1) // odd).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def build_ladder(kernel: Kernel, step: float, horizon: float, n_max: int = 40) -> ConvolutionLadder:
    """Build phi_1..phi_{n_max} by iterated discrete convolution (trapezoid rule).

    Each level's convolution sum is one real FFT product: O(N log N) per
    level. Only phi's support takes part: ``n_phi`` is its last nonzero node
    plus one (a table is exactly 0 past its last node, an exponential once it
    underflows), and the sum is causal, so output node i only reads phi at
    nodes <= i and dropping phi's exact zeros changes no term. The linear
    convolution of ``phi[:n_phi]`` with a level then has length
    ``n_nodes + n_phi - 1``, and a transform at least that long never wraps
    into the kept first ``n_nodes`` outputs. The length is the smallest
    2^a 3^b 5^c at or above that bound, which numpy's FFT factors fast.
    Levels carry about 1e-16 absolute rounding against the direct sum, so a
    node where that sum is exactly 0 may read -1e-17 here.

    Requires the kernel's L1 mass to be < 1; the geometric decay of the level
    masses then bounds the truncated resolvent tail by
    ``l1 ** (n_max + 1) / (1 - l1)``.
    """
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"grid step must be finite and > 0, got {step}")
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    kernel.require_stable()

    spans = float(horizon) / float(step)   # a Python float: inf on overflow, no warning
    if not np.isfinite(spans):
        raise ValueError(f"grid step {step} is too fine for horizon {horizon}: horizon / step overflows")
    n_nodes = int(np.ceil(spans)) + 1
    grid = step * np.arange(n_nodes)
    phi = kernel._eval(grid)

    levels = np.empty((n_max, n_nodes))
    levels[0] = phi
    nonzero = np.flatnonzero(phi)
    n_phi = int(nonzero[-1]) + 1 if len(nonzero) else 1
    nfft = _fft_length(n_nodes + n_phi - 1)
    phi_hat = np.fft.rfft(phi[:n_phi], nfft)
    # the transforms write into reused buffers: fewer allocations, same bits
    spectrum, product = np.empty(len(phi_hat), dtype=complex), np.empty(nfft)
    for n in range(1, n_max):
        prev = levels[n - 1]
        conv = np.fft.irfft(phi_hat * np.fft.rfft(prev, nfft, out=spectrum), nfft, out=product)
        # trapezoid end-point correction for the convolution integral
        levels[n] = step * (conv[:n_nodes] - 0.5 * (phi * prev[0] + phi[0] * prev))

    l1 = kernel.l1_norm
    tail = l1 ** (n_max + 1) / (1.0 - l1)
    return ConvolutionLadder(
        kernel=kernel,
        step=float(step),
        n_max=int(n_max),
        grid=grid,
        levels=levels,
        resolvent=levels.sum(axis=0),
        tail_bound=float(tail),
    )
