"""The stacked (masks, rows, width) form of `eval_packed` against one 2-D
call per mask set, its counts under any row order, and the characterization
check against outputs pinned before it evaluated all masks of a chunk in one
stacked sweep."""
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pseudochaos import (
    AtomBudgetExceeded,
    CallableFunctional,
    Configuration,
    ConstantFunctional,
    HawkesCount,
    HawkesParams,
    Kernel,
    Point,
    RectangleCount,
    Window,
    characterization_check,
)
from pseudochaos.hawkes import _sweep

KERNELS = {
    "exp": Kernel.exponential(0.5, 1.0),
    "table": Kernel.from_table(0.01, (0.5 * np.exp(-0.01 * np.arange(801))).tolist()),
    "zero": Kernel.zero(),
}
WINDOW = Window(T=3.0, M=2.0)
PINS = json.loads((Path(__file__).parent / "data" / "characterization_pins.json").read_text())


def random_stack(rng, n_rows, width, n_masks, params=None):
    """A padded batch and a stack of n_masks mark sets over it.

    Rows hold 0..width atoms (n_valid), some past T or above M, some exactly
    at T or M. The padding beyond n_valid keeps its sorted times, often
    inside the window, and finite marks, so only n_valid excludes it. About
    one mark in five is +inf. With params given, half of the rows carry
    knife-edge marks: each equals the intensity at its atom when every atom
    is accepted. Mask set 0 keeps every mark; each other one also drops
    about half of them (mark +inf)."""
    n_valid = rng.integers(0, width + 1, size=n_rows)
    n_valid[0] = 0
    times = np.sort(rng.uniform(0.0, 1.1 * WINDOW.T, size=(n_rows, width)), axis=1)
    for r in np.flatnonzero(rng.random(n_rows) < 0.3):
        last = np.searchsorted(times[r], WINDOW.T) - 1   # the latest time inside
        if last >= 0:
            times[r, last] = WINDOW.T
    marks = rng.uniform(0.0, 1.2 * WINDOW.M, size=(n_rows, width))
    marks[rng.random(marks.shape) < 0.1] = WINDOW.M
    for r, n in enumerate(n_valid.tolist()):
        if params is not None and r % 2:
            lams, _ = _sweep(params.mu, params.kernel, times[r, :n], np.zeros(n))
            marks[r, :n] = lams
    marks[rng.random(marks.shape) < 0.2] = np.inf
    stack = np.where(rng.random((n_masks, n_rows, width)) < 0.5, np.inf, marks)
    stack[0] = marks
    return times, stack, n_valid


def kept_configuration(times, marks, n):
    """The atoms a padded row holds: the first n with a finite mark, on an
    envelope window that contains them all."""
    atoms = tuple(Point(t, th) for t, th in zip(times[:n].tolist(), marks[:n].tolist())
                  if np.isfinite(th))
    env = Window(T=float(times.max()) + 1.0, M=max([p.theta for p in atoms], default=0.0) + 1.0)
    return Configuration(env, atoms)


@pytest.mark.parametrize("kernel", KERNELS)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 8),
       width=st.integers(1, 10), n_masks=st.integers(1, 64),
       mu=st.sampled_from([1.0, WINDOW.M]))   # at mu = M a mark of exactly M is accepted
def test_stacked_hawkes_sweep_equals_one_call_per_mask(kernel, seed, n_rows, width, n_masks, mu):
    params = HawkesParams(mu=mu, kernel=KERNELS[kernel], window=WINDOW)
    F = HawkesCount(params)
    times, stack, n_valid = random_stack(np.random.default_rng(seed), n_rows, width, n_masks, params)
    got = F.eval_packed(times, stack, n_valid)
    assert got.shape == (n_masks, n_rows)
    per_mask = np.stack([F.eval_packed(times, marks, n_valid) for marks in stack])
    assert got.tobytes() == per_mask.tobytes()
    solved = [[F(kept_configuration(times[r], marks[r], n_valid[r])) for r in range(n_rows)]
              for marks in stack]
    assert got.tolist() == solved


@pytest.mark.parametrize("kernel", KERNELS)
def test_hawkes_sweep_counts_do_not_depend_on_row_order(kernel):
    """Column i is swept up to the last row that holds atom i: rows sorted by
    n_valid (most first) make that a tight prefix, and rows in ascending or
    shuffled order give the same per-row counts, bit for bit."""
    F = HawkesCount(HawkesParams(mu=1.0, kernel=KERNELS[kernel], window=WINDOW))
    rng = np.random.default_rng(28)
    for _ in range(5):
        times, stack, n_valid = random_stack(rng, 12, 9, 8, F.params)
        n_valid[-1] = 9    # a row that holds every column; row 0 holds none
        by_count = np.argsort(-n_valid, kind="stable")
        want_stack = F.eval_packed(times, stack, n_valid)
        want = F.eval_packed(times, stack[0], n_valid)
        for rows in (by_count, by_count[::-1], rng.permutation(12)):
            got_stack = F.eval_packed(times[rows], stack[:, rows], n_valid[rows])
            assert got_stack.tobytes() == want_stack[:, rows].tobytes()
            got = F.eval_packed(times[rows], stack[0][rows], n_valid[rows])
            assert got.tobytes() == want[rows].tobytes()


@pytest.mark.parametrize(
    "F",
    [
        CallableFunctional(lambda cfg: sum(p.theta for p in cfg.atoms), WINDOW),
        RectangleCount(WINDOW),
        ConstantFunctional(3.0, WINDOW),
    ],
    ids=["fallback", "rectangle", "constant"],
)
@pytest.mark.parametrize("n_masks", [1, 2, 16, 64])
def test_stacked_marks_equal_one_call_per_mask(F, n_masks):
    rng = np.random.default_rng(n_masks)
    for _ in range(5):
        times, stack, n_valid = random_stack(rng, 6, 7, n_masks)
        got = F.eval_packed(times, stack, n_valid)
        assert got.shape == (n_masks, 6)
        per_mask = np.stack([F.eval_packed(times, marks, n_valid) for marks in stack])
        assert got.tobytes() == per_mask.tobytes()
        solved = [[F(kept_configuration(times[r], marks[r], n_valid[r])) for r in range(6)]
                  for marks in stack]
        assert got.tolist() == solved


@pytest.mark.parametrize("case", PINS)
def test_characterization_matches_pinned_outputs(case):
    """700 paths cross the 512-path chunk; the pins were taken from the
    evaluator that made one eval_packed call per mask."""
    kernel, j_max, q = case.split("-")
    params = HawkesParams(mu=1.0, kernel=KERNELS[kernel], window=WINDOW)
    report = characterization_check(
        HawkesCount(params), WINDOW, int(j_max[1:]), 700, (45, 0), points_per_path=int(q[1:])
    )
    pin = PINS[case]
    assert [[t.mean, t.se] for t in report.terms] == pin["terms"]
    assert [report.residual.mean, report.residual.se] == pin["residual"]
    assert report.truncation_budget == pin["budget"]


def test_characterization_refuses_j_max_over_the_budget(params_small):
    F = HawkesCount(params_small)
    with pytest.raises(AtomBudgetExceeded, match="budget of 3"):
        characterization_check(F, params_small.window, 4, 10, (46, 0), budget=3)
    with pytest.raises(AtomBudgetExceeded, match="budget of 22"):
        characterization_check(F, params_small.window, 2**40, 10, (46, 0))
    assert characterization_check(F, params_small.window, 3, 10, (46, 0), budget=3).j_max == 3


def test_characterization_memory_does_not_grow_with_the_mask_count(params_small):
    """Masks go through eval_packed in fixed blocks: 2**8 masks hold no more
    marks at once than 2**4 (the rows widen by the four extra points)."""
    F = HawkesCount(params_small)

    def peak(j_max):
        tracemalloc.start()
        characterization_check(F, params_small.window, j_max, 200, (47, 0), points_per_path=2)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    assert peak(8) < 1.5 * peak(4)
