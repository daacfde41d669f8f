"""Expansion of the window-truncated event count over the uncompensated point
measure: closed-form coefficients for linear Hawkes, a brute-force coefficient
oracle, exact pathwise reconstruction, the alternating-sum characterization of
expandability, and the Monte Carlo estimator of compensated-chaos coefficients.

The order-k coefficient at points x_1..x_k (time sorted, x_(k) latest) is

    c_k = sum over S of {x_(1)..x_(k-1)} of (-1)^(k-1-|S|) 1{theta_(k) <= lambda_(t_(k)) on S},

with the intensity solved on the fixed sub-configuration S alone. Summing
c_k over all size-k subsets of a configuration's atoms for every k rebuilds
the event count exactly, atom for atom.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .configurations import (
    DEFAULT_ATOM_BUDGET,
    AtomBudgetExceeded,
    Configuration,
    Point,
    TimeCollisionError,
    Window,
)
from .hawkes import HawkesCount, HawkesParams, _intensity, _lag_rows, _packed_sweep
from .malliavin import Functional, _masked_differences, iterated_difference
from .mc import MCEstimate, RngKey, _map_paths, rng_from_key

# paths are sampled per chunk of this size so the batch evaluator can
# vectorize; the chunk grid is part of the deterministic sampling layout
_CHUNK = 512
# masks per np.bincount call in the subset table's size histogram: a block's
# accepted sizes, cast to intp, take at most 512 KiB
_HIST_BLOCK = 1 << 16
# masks the subset tables of one group of rows in `_packed_coefficient_tables`
# hold at once: the table of one all-live configuration at the default budget
_TABLE_MASKS = 1 << (DEFAULT_ATOM_BUDGET - 1)


def _validate_points(window: Window | None, points: Sequence[Point]) -> list[Point]:
    pts = sorted(points, key=lambda p: p.t)
    if not pts:
        raise ValueError(f"need at least one point, got points={list(points)}")
    for p in pts:
        if window is not None and not window.contains(p):
            raise ValueError(f"point {p} outside window {window}")
    for a, b in zip(pts, pts[1:]):
        if a.t == b.t:
            raise TimeCollisionError(f"duplicate point time {a.t}")
    return pts


def hawkes_coefficient(
    params: HawkesParams,
    points: Sequence[Point],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> int:
    """Closed-form expansion coefficient of the Hawkes event count.

    Symmetric in the points (they are time sorted internally); always an
    integer, and in {0, 1} for a single point. It is the last row of the
    subset table (`_size_histograms`): with h[s] the number of size-s subsets
    of the earlier points on which the latest is accepted,
    c_k = sum_s (-1)^(k-1-s) h[s]. Rounded addition of nonnegative terms is
    monotone, so a point's intensity on any subset is at most top, the fold of
    mu and the lags of every live earlier point. A point whose mark exceeds
    top is dead, accepted on no subset, and then c_k = 0: if it is the
    latest, every indicator is 0, and otherwise the subsets with and without
    it pair off with opposite signs. So the table stops at the first dead
    point. A latest point with mark at most mu is accepted on every subset,
    so h is the binomial row of its live predecessors and c_k is 1 if there
    are none, else 0. Cost O(2^k).
    """
    pts = _validate_points(params.window, points)
    k = len(pts)
    if k - 1 > budget:
        raise AtomBudgetExceeded(k - 1, budget)
    last = pts[-1]
    if k == 1:
        return int(last.theta <= params.mu)
    times = np.array([p.t for p in pts])
    marks = np.array([p.theta for p in pts])
    for live, h in _size_histograms(params, times, marks):
        if h is _DEAD:
            return 0
    if h is _ALWAYS:
        return int(live == 0)
    return sum((-1) ** (live - s) * count for s, count in enumerate(h.tolist()))


def coefficient_oracle(
    F: Functional,
    window: Window,
    points: Sequence[Point],
    budget: int = DEFAULT_ATOM_BUDGET,
) -> float:
    """Brute-force coefficient of any functional: the iterated difference at
    the empty configuration (under the window-emptying measure the coefficient
    expectation collapses to this single deterministic subset sum)."""
    _validate_points(window, points)
    return iterated_difference(F, Configuration.empty(window), points, budget=budget)


@dataclass(frozen=True)
class ReconstructionReport:
    source: Configuration
    per_size: tuple[int, ...]   # sum of c_k over size-k atom subsets, k = 1..n
    total: int
    event_count: int            # atoms the subset table's fold accepts: solve_path's, bit for bit
    exact_match: bool


# what `_size_histograms` yields in place of a histogram for a dead atom and
# for an always-accepted one
_DEAD, _ALWAYS = "dead", "always"


@functools.cache
def _signed_binomial_table(k: int) -> np.ndarray:
    """The read-only (k + 1, k + 1) array W with W[s, a] = (-1)^(a-s)
    C(k-s, a-s) for s <= a, else 0: the weight of a size-s submask in the sum
    over size-a masks of k atoms. A histogram h of those submasks has
    |(h @ W)[a]| <= C(k, a) 2^a < 4^k, so W is int64 for k < 32, where that
    product is exact, and holds Python ints beyond."""
    table = np.zeros((k + 1, k + 1), dtype=np.int64 if k < 32 else object)
    for s in range(k + 1):
        table[s, s:] = [(-1) ** b * math.comb(k - s, b) for b in range(k - s + 1)]
    table.flags.writeable = False
    return table


def _size_histograms(params: HawkesParams, times: np.ndarray, marks: np.ndarray):
    """For each atom i in time order, yield (k, h): k counts the live atoms
    before it, and h[s] the number of size-s subsets of those k atoms on whose
    sub-configuration atom i is accepted, or one of two markers.

    Kernel terms are nonnegative and rounded addition is monotone, so on every
    subset atom i's intensity lies in [mu, top], where top folds mu and the
    lags of all live earlier atoms (`_intensity`'s all-accepted form). So atom
    i falls in one of three cases:
    - dead (h is _DEAD), if its mark exceeds top: it is accepted on no subset.
      Its indicator would add an exact 0.0 wherever a later fold met it, so it
      gets no bit, and every subset that holds it has coefficient 0;
    - always accepted (h is _ALWAYS), if its mark is at most mu: h would be
      the binomial row C(k, s), and its indicator is the scalar True;
    - undecided, otherwise: its intensities over the 2**k masks of the live
      earlier atoms are built by doubling. A mask with top bit q is m + 2**q
      with m < 2**q, so lam[m + 2**q] = lam[m] + phi(t_i - t_j) * ind_j[m],
      where j is the q-th live atom and ind_j its indicator over its own masks.
    Each step is `_intensity`'s one-term form, which writes lam[m + 2**q]
    straight from lam[m], so every mask still gets mu plus its accepted
    atoms' terms in ascending time order, and every indicator decision is
    bitwise identical to solve_path's. On the full mask the fold is top
    itself, and solve_path's fold differs from it only by the exact 0.0 terms
    of its rejected atoms, so the live atoms are exactly the atoms solve_path
    accepts. h is counted in blocks of _HIST_BLOCK masks, so np.bincount's
    cast of the accepted sizes to intp never spans the table. Cost O(2^live)
    in all.
    """
    mu = float(params.mu)
    live, inds = [], []   # the live atoms and their indicators, in time order
    lam = sizes = np.empty(0)
    counted = 0           # sizes holds the popcounts below 2**counted
    for i, (row, mark) in enumerate(zip(_lag_rows(params.kernel, times), marks.tolist())):
        k = len(live)
        lags = [row[j] for j in live]
        top = _intensity(mu, lags)
        if mark > top:
            yield k, _DEAD
            continue
        live.append(i)
        if mark <= mu:
            inds.append(True)
            yield k, _ALWAYS
            continue
        if not len(lam):
            # one allocation for every later atom, which sees at most the
            # atoms in between as new live ones; pages are committed only as
            # they are written, and a table regrown per atom made the all-live
            # worst case slower
            lam = np.empty(1 << (k + len(times) - 1 - i))
            sizes = np.zeros(len(lam), dtype=np.uint8)   # popcount of every mask
        for q in range(counted, k):
            np.add(sizes[: 1 << q], 1, out=sizes[1 << q : 2 << q])
        counted = k
        lam[0] = mu
        for q, (lag, ind) in enumerate(zip(lags, inds)):
            _intensity(lam[: 1 << q], (lag,), (ind,), out=lam[1 << q : 2 << q])
        n = 1 << k
        ind = mark <= lam[:n]
        inds.append(ind)
        h = np.bincount(sizes[: min(n, _HIST_BLOCK)][ind[:_HIST_BLOCK]], minlength=k + 1)
        for lo in range(_HIST_BLOCK, n, _HIST_BLOCK):
            h += np.bincount(sizes[lo : lo + _HIST_BLOCK][ind[lo : lo + _HIST_BLOCK]], minlength=k + 1)
        yield k, h


def _coefficient_table(
    params: HawkesParams, times: np.ndarray, marks: np.ndarray
) -> tuple[list[int], int]:
    """Sum of c_k over all size-k subsets for every k = 1..n (list index
    k - 1), in O(2^live), and the number of live atoms, which is the path's
    event count (see `_size_histograms`), for the n atoms of the time-sorted
    arrays times and marks.

    A subset that holds a dead atom has coefficient 0 (see
    `hawkes_coefficient`), so only subsets of live atoms count. The
    coefficient of mask + {i} is the alternating sum of atom i's acceptance
    indicator over the submasks of mask, so with k live atoms before atom i
    an accepted size-s submask counts once in each of its C(k-s, a-s) size-a
    supersets, with sign (-1)^(a-s): atom i adds
    sum_s (-1)^(a-s) C(k-s, a-s) h[s] to the size-(a+1) sum, the product of h
    with `_signed_binomial_table(k)`. An always-accepted atom has
    h[s] = C(k, s), and since C(k, s) C(k-s, a-s) = C(k, a) C(a, s) its sum is
    C(k, a) (1 - 1)^a: it adds exactly 1 to the size-1 sum and nothing else.
    Every product and sum is exact.
    """
    per_size = [0] * len(times)
    events = 0
    for k, h in _size_histograms(params, times, marks):
        if h is _DEAD:
            continue
        events += 1
        if h is _ALWAYS:
            per_size[0] += 1
            continue
        for a, term in enumerate((h @ _signed_binomial_table(k)).tolist()):
            per_size[a] += term
    return per_size, events


def _packed_coefficient_tables(
    params: HawkesParams, times: np.ndarray, marks: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_coefficient_table` of every row of a padded batch: row r holds the
    counts[r] time-sorted atoms times[r, :counts[r]], marks[r, :counts[r]],
    all inside params.window.
    Returns (per_size, events) in the given row order: per_size, int64 of
    shape (rows, width), whose entry [r, a] is row r's sum of c_k over its
    size-(a + 1) atom subsets, and events, each row's event count.

    One `_packed_sweep` over the rows, most atoms first, finds the live atoms,
    the ones solve_path accepts. The tables are then built by live level
    across the batch: a row's q-th live atom has q live predecessors, so
    levels q = 0, 1, ... in turn meet every dependency. At level q the rows
    whose q-th live atom is undecided (mark above mu) take one kernel call for
    their q lags; `_intensity`'s one-term doubling fills their intensities
    over the 2**q masks of the predecessors; one np.bincount over (row, mask
    size) gives each row's histogram h, and h @ `_signed_binomial_table(q)`
    its per-size sums. An always-accepted atom adds 1 to the size-1 sum and
    builds no table; it is accepted on every mask. Each row keeps its
    indicators in one table row, level q's in columns [2**q, 2**(q+1)),
    which are the columns its level-q doubling step writes. Lags, sums and
    indicators are those of `_size_histograms`, bit for bit.

    The rows with a table go in groups, by last undecided level, highest
    first, so that a group's tables hold at most _TABLE_MASKS masks (a row
    whose last undecided level is above log2(_TABLE_MASKS), possible only over
    the default budget, is a group of its own)."""
    n_rows, width = times.shape
    by_count = np.argsort(-counts, kind="stable")
    times, marks, counts = times[by_count], marks[by_count], counts[by_count]
    live = _packed_sweep(params, times, marks[None], counts)[:, 0, :].T
    events = live.sum(axis=1)
    # each row's live atoms, packed to the left in time order
    rows_of, cols = np.nonzero(live)
    level = np.arange(len(rows_of)) - np.repeat(np.cumsum(events) - events, events)
    n_levels = int(events.max(initial=0))
    live_t, live_th = np.zeros((2, n_rows, n_levels))
    live_t[rows_of, level], live_th[rows_of, level] = times[rows_of, cols], marks[rows_of, cols]
    mu = float(params.mu)
    undecided = (live_th > mu) & (np.arange(n_levels) < events[:, None])

    per_size = np.zeros((n_rows, width), dtype=np.int64)
    per_size[:, :1] = (events - undecided.sum(axis=1))[:, None]
    # each row's last undecided level, -1 if it has none
    last = np.where(undecided, np.arange(n_levels), -1).max(axis=1, initial=-1)
    tabled = np.argsort(-last, kind="stable")[: np.count_nonzero(last >= 0)]
    highest = int(last.max(initial=0))
    sizes = np.zeros(1 << highest, dtype=np.uint8)   # popcount of every mask
    for q in range(highest):
        np.add(sizes[: 1 << q], 1, out=sizes[1 << q : 2 << q])
    lo = 0
    while lo < len(tabled):
        top = int(last[tabled[lo]])
        group = tabled[lo : lo + max(_TABLE_MASKS >> top, 1)]
        lo += len(group)
        table = np.empty((len(group), 1 << top), dtype=bool)
        for q in range(top + 1):
            n = 1 << q
            # rows whose last undecided level is q or above: a prefix of the group
            held = group[: np.count_nonzero(last[group] >= q)]
            sel = np.flatnonzero(undecided[held, q])
            if q < top:
                table[np.flatnonzero(~undecided[held, q]), n : 2 * n] = True
            if not sel.size:
                continue
            rows = held[sel]
            lam = np.empty((len(rows), n))
            lam[:, 0] = mu
            if q:
                lags = params.kernel._eval(np.maximum(live_t[rows, q, None] - live_t[rows, :q], 0.0))
                # a copy only if some rows of the group sit this level out
                prev = table[:, :n] if len(sel) == len(table) else table[sel, :n]
                for p in range(q):
                    m = 1 << p
                    _intensity(lam[:, :m], (lags[:, p, None],), (prev[:, m : 2 * m],), out=lam[:, m : 2 * m])
                del prev
            ind = live_th[rows, q, None] <= lam
            del lam
            if q < top:
                table[sel, n : 2 * n] = ind
            per_size[rows, : q + 1] += _size_counts(ind, sizes[:n], q) @ _signed_binomial_table(q)
            del ind   # before the next level's intensities are allocated
    unsort = np.argsort(by_count)
    return per_size[unsort], events[unsort]


def _size_counts(ind: np.ndarray, sizes: np.ndarray, k: int) -> np.ndarray:
    """h[r, s], the number of masks m with ind[r, m] and sizes[m] == s, for
    s = 0..k: one np.bincount over the keys r * (k + 1) + sizes[m], in column
    blocks of about _HIST_BLOCK entries, so its cast of the keys to intp never
    spans the table."""
    n_rows, n = ind.shape
    offsets = np.arange(0, n_rows * (k + 1), k + 1)[:, None]
    h = np.zeros(n_rows * (k + 1), dtype=np.int64)
    step = max(_HIST_BLOCK // n_rows, 1)
    for lo in range(0, n, step):
        keys = offsets + sizes[lo : lo + step]
        h += np.bincount(keys[ind[:, lo : lo + step]], minlength=len(h))
    return h.reshape(n_rows, k + 1)


def reconstruct(
    params: HawkesParams,
    source: Configuration,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> ReconstructionReport:
    """Evaluate the full expansion on a configuration and compare it with the
    path's event count, which the same pass folds: its live atoms are the
    atoms the path solver accepts, bit for bit."""
    n = len(source)
    if n > budget:
        raise AtomBudgetExceeded(n, budget)
    per_size, event_count = _coefficient_table(params, source.times, source.marks)
    total = sum(per_size)
    return ReconstructionReport(
        source=source,
        per_size=tuple(per_size),
        total=total,
        event_count=event_count,
        exact_match=(total == event_count),
    )


@dataclass(frozen=True)
class CharacterizationReport:
    """Alternating-sum test of expandability over the uncompensated measure:
    the signed, scaled integrals of expected iterated differences must add up
    to E[F]."""

    terms: tuple[MCEstimate, ...]   # order j = 1..j_max, signed and scaled
    cumulative: MCEstimate          # per-path sum of all terms
    reference: MCEstimate           # plain estimate of E[F] on the same paths
    residual: MCEstimate            # per-path cumulative minus reference
    truncation_budget: float        # allowance for the omitted tail of the series

    @property
    def j_max(self) -> int:
        return len(self.terms)


def _characterization_chunk(
    F: Functional,
    window: Window,
    j_max: int,
    points_per_path: int,
    seed: int,
    start: int,
    stop: int,
    points: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict:
    """The m = stop - start paths of one chunk, from the key (seed, start // _CHUNK):
    "diffs", shape (j_max, m), whose row j - 1 is D^j F at the first j of j_max
    points, averaged over points_per_path uniform draws of them (or at the given
    points, time-sorted arrays (times, marks)), and F's samples "ref", shape (m,).
    Every draw is made first; `_masked_differences` then evaluates one row per
    path and point draw."""
    m = stop - start
    T, M = window.T, window.M
    rng = rng_from_key((seed, start // _CHUNK))

    counts = rng.poisson(window.area, size=m)
    w_base = int(counts.max()) if m else 0
    base_t = rng.uniform(0.0, T, size=(m, w_base))
    base_th = rng.uniform(0.0, M, size=(m, w_base))
    q = points_per_path
    if points is None:
        pts_t = rng.uniform(0.0, T, size=(m, q, j_max))
        pts_th = rng.uniform(0.0, M, size=(m, q, j_max))
    else:
        pts_t, pts_th = (np.broadcast_to(a, (m, q, j_max)) for a in points)
    diffs, ref = _masked_differences(
        F,
        *(np.repeat(a, q, axis=0) for a in (base_t, base_th, counts)),
        pts_t.reshape(m * q, j_max),
        pts_th.reshape(m * q, j_max),
    )
    return {"diffs": diffs.reshape(j_max, m, q).mean(axis=2), "ref": ref.reshape(m, q)[:, 0]}


def _require_characterization_args(j_max: int, n_paths: int, points_per_path: int, budget: int) -> None:
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    if points_per_path < 1:
        raise ValueError(f"points_per_path must be >= 1, got {points_per_path}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if j_max > budget:
        raise AtomBudgetExceeded(j_max, budget)


def _characterization_report(paths: dict, window: Window, seed: int) -> CharacterizationReport:
    """The report of _characterization_chunk's difference and reference
    samples: term j is diffs[j - 1] scaled by (-1)^(j+1) area^j / j!."""
    area, ref_paths = window.area, paths["ref"]
    term_paths = np.array([
        ((-1.0) ** (j + 1)) * area**j / math.factorial(j) * d
        for j, d in enumerate(paths["diffs"], start=1)
    ])
    terms = tuple(MCEstimate.from_samples(samples, seed=seed) for samples in term_paths)
    cumulative_paths = term_paths.sum(axis=0)
    last = terms[-1]
    return CharacterizationReport(
        terms=terms,
        cumulative=MCEstimate.from_samples(cumulative_paths, seed=seed),
        reference=MCEstimate.from_samples(ref_paths, seed=seed),
        residual=MCEstimate.from_samples(cumulative_paths - ref_paths, seed=seed),
        truncation_budget=float(abs(last.mean) + 3.0 * (last.se or 0.0)),
    )


def characterization_check(
    F: Functional,
    window: Window,
    j_max: int,
    n_paths: int,
    rng_key: RngKey,
    points_per_path: int = 1,
    budget: int = DEFAULT_ATOM_BUDGET,
) -> CharacterizationReport:
    """Estimate each term (-1)^(j+1)/j! * integral of E[D^j F] over the window
    power by drawing j uniform points and an independent configuration, and
    compare the cumulative sum against E[F] estimated on the same paths.

    Paths are drawn in chunks of _CHUNK, chunk c from the key
    (seed, base_index + c). Each chunk evaluates F under all 2**j_max masks
    of its inserted points with `_masked_differences`, in blocks of masks
    per `eval_packed` call, so memory does not grow with j_max. Term j is the
    signed sum over the masks below 2**j, each with sign (-1)^(j - popcount),
    added in mask order. j_max counts the inserted points, so it may not
    exceed budget.

    Point draws nested in j share configuration evaluations; standard errors
    are computed over per-path averages, so multiple point draws per path stay
    statistically honest. Time ties among sampled atoms are measure zero and
    are not re-sampled here.
    """
    _require_characterization_args(j_max, n_paths, points_per_path, budget)
    seed, base_index = rng_key
    start = base_index * _CHUNK   # chunk c starts at (base_index + c) * _CHUNK
    loop = functools.partial(_characterization_chunk, F, window, j_max, points_per_path)
    paths = _map_paths(loop, seed, start, start + n_paths, chunk=_CHUNK)
    return _characterization_report(paths, window, seed)


def chaotic_coefficient_mc(
    params: HawkesParams,
    j: int,
    points: Sequence[Point],
    n_paths: int,
    rng_key: RngKey,
) -> MCEstimate:
    """Monte Carlo estimate of the compensated-chaos coefficient E[D^j H_T] at
    fixed points: unlike the uncompensated coefficients there is no closed
    form. The samples are the characterization's order-j differences with its
    points fixed: chunk c of _CHUNK paths draws from the key (seed, base_index + c),
    and time ties (measure zero) are not redrawn. Points beyond the horizon or
    mark ceiling are legal; H_T ignores them, which is the point of the t > T example."""
    if j != len(points):
        raise ValueError(f"expected {j} points, got {len(points)}")
    pts = _validate_points(None, points)
    _require_characterization_args(j, n_paths, 1, DEFAULT_ATOM_BUDGET)
    seed, base_index = rng_key
    start = base_index * _CHUNK
    fixed = (np.array([p.t for p in pts]), np.array([p.theta for p in pts]))
    loop = functools.partial(
        _characterization_chunk, HawkesCount(params), params.window, j, 1, points=fixed
    )
    paths = _map_paths(loop, seed, start, start + n_paths, chunk=_CHUNK)
    return MCEstimate.from_samples(paths["diffs"][-1], seed=seed)
