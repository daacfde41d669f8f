"""Finite point configurations on a time-mark rectangle, unit-rate Poisson
sampling of them, atom insertion, and subset enumeration."""
from __future__ import annotations

import contextlib
import csv
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .mc import RngKey, rng_from_key

# 2**22 subsets is the largest enumeration the exact reconstruction and
# difference operators will attempt before refusing. The budget counts every
# atom: the reconstruction's table spans only the 2**live masks of the atoms
# some subset can accept, but when all are live the worst case is unchanged.
DEFAULT_ATOM_BUDGET = 22


class TimeCollisionError(ValueError):
    """Two atoms share a time coordinate (a measure-zero, degenerate input)."""


class AtomBudgetExceeded(RuntimeError):
    def __init__(self, n_atoms: int, budget: int):
        super().__init__(f"{n_atoms} atoms exceed the enumeration budget of {budget}")
        self.n_atoms = n_atoms
        self.budget = budget


@dataclass(frozen=True, order=True)
class Point:
    """One atom (t, theta) of the planar measure: both finite reals >= 0, else
    ValueError (TypeError for a non-number), checked by the cheap math.isfinite."""

    t: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"atom time must be finite and >= 0, got {self.t}")
        if not (math.isfinite(self.theta) and self.theta >= 0.0):
            raise ValueError(f"atom mark must be finite and >= 0, got {self.theta}")


@dataclass(frozen=True)
class Window:
    """Observation rectangle [0, T] x [0, M]."""

    T: float
    M: float

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon T must be finite and > 0, got {self.T}")
        if not (np.isfinite(self.M) and self.M > 0.0):
            raise ValueError(f"mark ceiling M must be finite and > 0, got {self.M}")

    @property
    def area(self) -> float:
        return self.T * self.M

    def contains(self, p: Point) -> bool:
        return 0.0 <= p.t <= self.T and 0.0 <= p.theta <= self.M


@dataclass(frozen=True)
class Configuration:
    """Atoms on a window, sorted by strictly increasing time."""

    window: Window
    atoms: tuple[Point, ...]

    def __post_init__(self):
        prev = -1.0
        for p in self.atoms:
            if not self.window.contains(p):
                raise ValueError(f"atom {p} outside window {self.window}")
            if p.t == prev:
                raise TimeCollisionError(f"duplicate atom time {p.t}")
            if p.t < prev:
                raise ValueError("atoms must be sorted by increasing time")
            prev = p.t

    @classmethod
    def empty(cls, window: Window) -> "Configuration":
        return cls(window=window, atoms=())

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.atoms)

    @cached_property
    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.atoms], dtype=float)

    @cached_property
    def marks(self) -> np.ndarray:
        return np.array([p.theta for p in self.atoms], dtype=float)

    def restrict(self, window: Window) -> "Configuration":
        """Atoms of this configuration that fall inside the given window."""
        kept = tuple(p for p in self.atoms if window.contains(p))
        return Configuration(window=window, atoms=kept)


def sample_poisson(
    window: Window,
    rng_key: RngKey | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> Configuration:
    """Unit-intensity Poisson sample on the window: Poisson(T*M) atoms, i.i.d.
    uniform on the rectangle, sorted by time.

    Deterministic given rng_key. Time ties (measure zero in theory, merely
    astronomically rare in floats) are resolved by resampling the tied atoms.
    """
    if rng is None:
        if rng_key is None:
            raise ValueError("need rng_key or rng")
        rng = rng_from_key(rng_key)
    times, marks = _poisson_arrays(window, rng)
    atoms = tuple(map(Point, times.tolist(), marks.tolist()))
    return Configuration(window=window, atoms=atoms)


def _poisson_arrays(window: Window, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The draws of `sample_poisson` as arrays (times, marks), time sorted
    with no ties, before any Point is built: callers that only read the
    arrays skip the Points and the window checks, which the draws pass."""
    n = int(rng.poisson(window.area))
    times = rng.uniform(0.0, window.T, size=n)
    marks = rng.uniform(0.0, window.M, size=n)
    order = np.argsort(times, kind="stable")
    times, marks = times[order], marks[order]
    while n > 1:
        tied = np.flatnonzero(np.diff(times) == 0.0)
        if tied.size == 0:
            break
        times[tied + 1] = rng.uniform(0.0, window.T, size=tied.size)
        order = np.argsort(times, kind="stable")
        times, marks = times[order], marks[order]
    return times, marks


def add_points(config: Configuration, extra: Iterable[Point]) -> Configuration:
    """Insert atoms into a configuration, keeping time order.

    An atom identical to an existing one is dropped (adding a point twice is
    the same as adding it once); a time shared with a *different* mark is a
    degenerate input and raises.
    """
    by_time = {p.t: p.theta for p in config.atoms}
    for p in extra:
        if not config.window.contains(p):
            raise ValueError(f"atom {p} outside window {config.window}")
        if p.t in by_time:
            if by_time[p.t] == p.theta:
                continue
            raise TimeCollisionError(
                f"time {p.t} already carries mark {by_time[p.t]}, got {p.theta}"
            )
        by_time[p.t] = p.theta
    atoms = tuple(Point(t, th) for t, th in sorted(by_time.items()))
    return Configuration(window=config.window, atoms=atoms)


def write_csv(config: Configuration, path, rng_key: RngKey | None = None) -> None:
    comment = None if rng_key is None else f"rng_key={rng_key[0]},{rng_key[1]}"
    _write_rows(path, ["t", "theta"], ((p.t, p.theta) for p in config.atoms), comment)


def _write_rows(path, header, rows, comment: str | None = None):
    """Write header and rows as CSV to path (stdout if None) and return path:
    floats as %.17g, which reads back exactly, None as an empty field, the
    rest by str. A comment goes first, as a '# ' line."""
    target = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with target as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [f"{v:.17g}" if isinstance(v, float) else "" if v is None else str(v) for v in row]
            for row in rows
        )
    return path


def _read_pairs(path, header: str) -> list[tuple[float, float]]:
    """The number pairs of a CSV file under the given two-column header,
    skipping '#' comments and blank lines. A malformed line raises ValueError
    naming the file and the line."""
    pairs = None
    with open(path, newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                continue
            try:
                row = next(csv.reader([line]), [])
                if pairs is None:
                    if [h.strip() for h in row[:2]] != header.split(","):
                        break
                    pairs = []
                elif row:
                    pairs.append((float(row[0]), float(row[1])))
            except (csv.Error, IndexError, ValueError):
                raise ValueError(f"{path}, line {lineno}: malformed row {line.strip()!r}") from None
    if pairs is None:
        raise ValueError(f"{path}: expected CSV header {header!r}")
    return pairs


def read_csv(path, window: Window) -> Configuration:
    atoms = [Point(t, theta) for t, theta in _read_pairs(path, "t,theta")]
    atoms.sort(key=lambda p: p.t)
    return Configuration(window=window, atoms=tuple(atoms))
