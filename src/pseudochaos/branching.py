"""Chain-counting process: a nondecreasing integer-valued process that carries
the self-exciting intensity of a Hawkes process without being a counting
process.

A chain is a time-ordered tuple of atoms whose first mark sits below the
baseline and whose every later mark sits below the kernel evaluated at the gap
to its predecessor. Each atom contributes a jump equal to the number of chains
ending at it, so jumps of size two and more occur; atoms whose mark exceeds
both the baseline and the kernel sup are ignored entirely.

One table of chains by length and end atom (`_chain_table`) serves both
views: its sum over lengths is the jump at each atom (`chain_counts`), its
sum over atoms the number of chains of each length (`chain_length_totals`).
It grows one row per realized length, so its memory is O(n x longest chain).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configurations import Configuration, Window, _poisson_arrays, sample_poisson
from .hawkes import HawkesParams, _intensity
from .mc import MCEstimate, RngKey, rng_from_key


def _require_uncensored_window(params: HawkesParams) -> None:
    needed = max(params.mu, params.kernel.sup_norm)
    if params.window.M < needed:
        raise ValueError(
            f"mark ceiling M={params.window.M} must be >= max(mu, kernel sup) = "
            f"{needed}, otherwise admissible chain links are censored"
        )


class ChainCountOverflow(ValueError):
    """The chains of a configuration may pass the int64 range of the table."""

    def __init__(self, atom: int, t: float, chains: int):
        super().__init__(
            f"{chains} chains end before atom {atom} (t={t}), and the chains through it "
            "may pass the int64 range of the chain table"
        )
        self.atom = atom


# n atoms hold at most 2**n - 1 chains, so a table of at most this many atoms
# cannot pass int64 and needs no running total
_UNCHECKED_ATOMS = 62


def _chain_table(params: HawkesParams, times: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """Chains by length and end atom of the time-sorted atoms (times, marks): entry
    [l, i] counts the chains of l + 1 atoms ending at atom i, for every realized length.

    Dynamic program in time order: an atom starts a chain when its mark is at
    most the baseline, and extends every chain ending at a strictly earlier
    atom whose gap the kernel still covers, one atom longer. So the chains
    ending at atom i number at most one more than those ending before it. On
    more than _UNCHECKED_ATOMS atoms an exact running total of the table
    checks, before each atom, that its column and every sum of the table stay
    within int64; ChainCountOverflow names the first atom it cannot clear.
    """
    _require_uncensored_window(params)
    table = np.zeros((4, len(times)), dtype=np.int64)
    table[0] = marks <= params.mu
    depth = int(table[0].any())
    checked = len(times) > _UNCHECKED_ATOMS
    total = int(table[0, :1].sum())   # chains ending before atom i
    for i in range(1, len(times)):
        if checked and total >= 1 << 62:
            raise ChainCountOverflow(i, float(times[i]), total)
        links = marks[i] <= params.kernel._eval(times[i] - times[:i])
        table[1:depth + 1, i] = table[:depth, :i] @ links
        if checked:
            total += int(table[:, i].sum())
        if table[depth, i]:
            depth += 1
            if depth == len(table):
                table = np.concatenate([table, np.zeros_like(table)])
    return table[:depth]


def chain_counts(params: HawkesParams, source: Configuration) -> np.ndarray:
    """Number of chains (of any length) ending at each atom."""
    return _chain_table(params, source.times, source.marks).sum(axis=0)


def chain_length_totals(params: HawkesParams, source: Configuration) -> np.ndarray:
    """Totals of chains by exact length up to the longest realized chain;
    partitions chain_counts."""
    return _chain_table(params, source.times, source.marks).sum(axis=1)


@dataclass(frozen=True)
class BranchingPath:
    params: HawkesParams
    source: Configuration
    counts: tuple[int, ...]   # chains ending at each atom; the jump size there

    @cached_property
    def jump_times(self) -> np.ndarray:
        return self.source.times[np.asarray(self.counts) > 0]

    @cached_property
    def jump_sizes(self) -> np.ndarray:
        c = np.asarray(self.counts)
        return c[c > 0]

    @property
    def total(self) -> int:
        """Value at the horizon."""
        return int(sum(self.counts))

    def value(self, t: float) -> int:
        c = np.asarray(self.counts)
        return int(c[self.source.times <= t].sum())

    def intensity(self, t: float) -> float:
        """mu plus the kernel-weighted chain counts of atoms strictly before t >= 0."""
        if t < 0.0:
            raise ValueError(f"time must be >= 0, got {t}")
        times = self.source.times
        cut = int(np.searchsorted(times, t, side="left"))
        row = self.params.kernel._eval(t - times[:cut]).tolist() if cut else ()
        return float(_intensity(self.params.mu, row, self.counts))

    @cached_property
    def compensator(self) -> float:
        """Exact integral of the intensity over [0, T] via kernel primitives."""
        T, mu = self.params.window.T, self.params.mu
        tail = self.params.kernel._partial(T - self.source.times)
        return mu * T + float((np.asarray(self.counts) * tail).sum())

    @property
    def residual(self) -> float:
        return self.total - self.compensator

    @cached_property
    def jump_histogram(self) -> Counter:
        return Counter(int(s) for s in self.jump_sizes)


def branching_path(params: HawkesParams, source: Configuration) -> BranchingPath:
    counts = chain_counts(params, source)
    return BranchingPath(params=params, source=source, counts=tuple(int(c) for c in counts))


@dataclass(frozen=True)
class ResidualReport:
    residual: MCEstimate       # E[X_T - integral of intensity]; martingale says 0
    total_mean: MCEstimate     # E[X_T]; shares the Hawkes mean
    compensator_mean: MCEstimate


def _chain_paths(params: HawkesParams, seed: int, start: int, stop: int) -> dict:
    """The chain process on the configurations of keys (seed, p) for p in
    [start, stop): per-path arrays of the horizon value, the compensator, the
    atom count and the atoms ignored for a mark above max(mu, kernel sup),
    plus one (p, t, size) row per jump."""
    _require_uncensored_window(params)
    threshold = max(params.mu, params.kernel.sup_norm)
    n = stop - start
    out = {key: np.empty(n) for key in ("totals", "comps", "atoms", "ignored")}
    rows = []
    for i, p in enumerate(range(start, stop)):
        source = sample_poisson(params.window, (seed, p))
        path = branching_path(params, source)
        out["totals"][i] = path.total
        out["comps"][i] = path.compensator
        out["atoms"][i] = len(source)
        out["ignored"][i] = (source.marks > threshold).sum()
        rows.extend((p, float(t), int(size)) for t, size in zip(path.jump_times, path.jump_sizes))
    out["rows"] = rows
    return out


def _residual_report(paths: dict, seed: int) -> ResidualReport:
    """The residual report of _chain_paths' per-path arrays."""
    totals, comps = paths["totals"], paths["comps"]
    return ResidualReport(
        residual=MCEstimate.from_samples(totals - comps, seed=seed),
        total_mean=MCEstimate.from_samples(totals, seed=seed),
        compensator_mean=MCEstimate.from_samples(comps, seed=seed),
    )


def martingale_residual(params: HawkesParams, n_paths: int, rng_key: RngKey) -> ResidualReport:
    seed, base_index = rng_key
    return _residual_report(_chain_paths(params, seed, base_index, base_index + n_paths), seed)


def conditional_residual(
    params: HawkesParams,
    n_prefixes: int,
    n_continuations: int,
    rng_key: RngKey,
) -> MCEstimate:
    """One-step conditional martingale check: freeze the configuration up to
    half the horizon s = T/2, resample the future, and average the forward
    residual X_T - X_s - integral_s^T of the intensity. Estimates are
    per-prefix means, so the standard error is taken over independent
    prefixes."""
    for name, value in (("n_prefixes", n_prefixes), ("n_continuations", n_continuations)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    _require_uncensored_window(params)
    seed, base_index = rng_key
    T, M = params.window.T, params.window.M
    s = 0.5 * T
    kernel, mu = params.kernel, params.mu
    prefix_means = np.empty(n_prefixes)
    for p in range(n_prefixes):
        rng = rng_from_key((seed, base_index + p))
        prefix_t, prefix_th = _poisson_arrays(Window(T=s, M=M), rng)
        vals = np.empty(n_continuations)
        for c in range(n_continuations):
            future_t, future_th = _poisson_arrays(Window(T=T - s, M=M), rng)
            times = np.concatenate([prefix_t, future_t + s])
            counts = _chain_table(params, times, np.concatenate([prefix_th, future_th])).sum(axis=0)
            forward_jump = counts[times > s].sum()
            lower = np.maximum(s - times, 0.0)
            forward_comp = mu * (T - s) + float(
                (counts * (kernel._partial(T - times) - kernel._partial(lower))).sum()
            )
            vals[c] = forward_jump - forward_comp
        prefix_means[p] = vals.mean()
    return MCEstimate.from_samples(prefix_means, seed=seed)


@dataclass(frozen=True)
class JumpHistogram:
    counts: dict[int, int]      # pooled jump sizes across paths
    n_paths: int
    n_jumps: int
    frac_ge2: float             # fraction of jumps of size >= 2
    frac_ge2_se: float          # cluster (per-path) delta-method standard error
    ignored_fraction: float     # atoms with mark above max(mu, kernel sup)


def _jump_sizes(paths: dict) -> tuple[np.ndarray, float]:
    """The size of each of _chain_paths' jump rows, in row order, and the
    fraction of them that are >= 2 (0.0 with no jump)."""
    sizes = np.array([size for _, _, size in paths["rows"]], dtype=np.int64)
    return sizes, (float((sizes >= 2).mean()) if sizes.size else 0.0)


def _jump_histogram(paths: dict, base_index: int) -> JumpHistogram:
    """The jump histogram of _chain_paths' output for the paths from base_index on."""
    n_paths = len(paths["totals"])
    sizes, frac = _jump_sizes(paths)
    owner = np.array([p for p, _, _ in paths["rows"]], dtype=np.int64) - base_index
    big = np.bincount(owner, weights=sizes >= 2, minlength=n_paths)
    tot = np.bincount(owner, minlength=n_paths).astype(float)
    n_jumps = int(tot.sum())
    if n_paths > 1 and n_jumps:
        resid = big - frac * tot
        se = float(np.std(resid, ddof=1) / np.sqrt(n_paths) / tot.mean())
    else:
        se = 0.0
    n_atoms, n_ignored = int(paths["atoms"].sum()), int(paths["ignored"].sum())
    return JumpHistogram(
        counts=dict(sorted(Counter(sizes.tolist()).items())),
        n_paths=n_paths,
        n_jumps=n_jumps,
        frac_ge2=frac,
        frac_ge2_se=se,
        ignored_fraction=(n_ignored / n_atoms) if n_atoms else 0.0,
    )


def jump_size_histogram(params: HawkesParams, n_paths: int, rng_key: RngKey) -> JumpHistogram:
    seed, base_index = rng_key
    return _jump_histogram(_chain_paths(params, seed, base_index, base_index + n_paths), base_index)
