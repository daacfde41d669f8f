"""Workload definitions and seeded input generation for the pseudochaos benchmark.

Every workload runs the same nine operations; the per-workload table below
sets each operation's inputs, batch size and share of the measuring time, so
the focus operations of a workload get most of the run while the others are
still measured (every end-to-end metric is reported on every workload).

All inputs are pure functions of ``(workload seed, operation, call index)``
and are generated with the benchmark's own numpy generator; the package only
receives the generated values.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

# The desk window of the CLI defaults, the audit window of acceptance
# criterion 1, the IPP window of criterion 6 and the characterization window
# of criterion 5.
DESK = (5.0, 4.0)
AUDIT = (3.0, 2.0)
IPP = (2.0, 2.0)
CHAR = (2.0, 4.0)
# Sampling window for the enumeration-limit configurations: about 24 atoms
# per unit Poisson sample, so 16..22 atoms are common sizes.
EXPAND_WINDOW = (6.0, 4.0)
# Reconstruction sizes: about 2**(n_top - n) configurations of each size n, so
# each size takes a similar share of the call. The desk sizes bracket the 20
# atoms the CLI's `reconstruct` meets on the desk window; the limit sizes run
# up to the 22-atom enumeration budget. Fixed sizes keep the subset
# throughput and the peak memory steady; unconditioned samples would let the
# rare largest configuration of a run dominate both.
DESK_SIZES = ((20, 1), (18, 4), (16, 16))
LIMIT_SIZES = ((22, 1), (20, 4), (18, 16), (16, 64))
MU = 1.0
EXP_ALPHA, EXP_BETA = 0.5, 1.0
TABLE_STEP, TABLE_SUPPORT = 0.01, 8.0

# Coefficient queries take k uniformly from 1..k_max with k_max odd, in
# turn: query q of a run has k = 1 + q mod k_max, so each size has its share
# of the queries to within one. Drawn at random, the share of each size
# moves from seed to seed, and the percentiles with it. With an even number
# of sizes the median query sits on the boundary between two latency classes
# that differ about twofold (each point doubles the subsets), so p50 would
# flip between them; with an odd count it falls inside the middle class, and
# p99 inside the top one.
COEFF_MIN_QUERIES = 1000     # p99 then has at least ten samples beyond it
ORACLE_EVERY = 10            # every 10th query is checked against the oracle

OPS = ("sim", "exact", "chain", "audit", "ipp", "char", "ladder", "expand", "coeff")
# the ops whose time goes to long numpy passes: the packed characterization
# evaluator and the subset tables
ARRAY_PACE = {"char": "array", "expand": "array"}
_OP_ID = {name: i for i, name in enumerate(OPS)}


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str                  # "exp" | "table"
    out_dir: bool                # run_experiment writes artifacts, as `simulate --out`
    ladder: tuple                # (step, horizon, n_max)
    expand_window: tuple         # (T, M) of the configurations given to reconstruct
    expand_sizes: tuple          # ((n_atoms, configurations per call), ...)
    batch: dict                  # op -> paths, ladder builds or queries per call (expand: 1 size mix)
    share: dict                  # op -> share of the measuring time
    coeff_k_max: int             # coefficient queries take k from 1..coeff_k_max in turn
    coeff_min: int = COEFF_MIN_QUERIES   # timed coefficient queries per untraced run
    # op -> the speed.py loop that rescales its times; ops not named here use
    # "python", and None leaves an op's times as measured
    pace: dict = field(default_factory=lambda: dict(ARRAY_PACE))


WORKLOADS = {
    w.name: w
    for w in (
        # what users run: the CLI desk defaults, artifacts written as by --out
        Workload(
            name="desk_exp",
            kernel="exp",
            out_dir=True,
            ladder=(0.01, 5.0, 40),
            expand_window=DESK,
            expand_sizes=DESK_SIZES,
            batch={"sim": 100, "exact": 100, "chain": 100, "audit": 100, "ipp": 200,
                   "char": 256, "ladder": 10, "expand": 1, "coeff": 100},
            share={"sim": 1, "exact": 1, "chain": 1, "audit": 1, "ipp": 1, "char": 1,
                   "ladder": 1, "expand": 2, "coeff": 1.5},
            # the CLI's `coeff --random` default k <= 4, made odd
            coeff_k_max=5,
        ),
        # the same law through a tabulated kernel, no artifacts, the fine ladder
        Workload(
            name="desk_table",
            kernel="table",
            out_dir=False,
            ladder=(0.002, 40.0, 40),
            expand_window=DESK,
            expand_sizes=DESK_SIZES,
            batch={"sim": 50, "exact": 50, "chain": 50, "audit": 50, "ipp": 100,
                   "char": 128, "ladder": 1, "expand": 1, "coeff": 50},
            share={"sim": 1, "exact": 1, "chain": 1, "audit": 1, "ipp": 1, "char": 1,
                   "ladder": 1, "expand": 2, "coeff": 1.5},
            coeff_k_max=5,
            # The fine ladder is 40 long convolutions. Its raw time moved by
            # a few percent between runs where the loops' moved by 20%, so
            # rescaling it by either loop would only add that loop's noise.
            pace={**ARRAY_PACE, "ladder": None},
        ),
        # exact expansion at the enumeration limit and coefficient latency
        Workload(
            name="expansion",
            kernel="exp",
            out_dir=False,
            ladder=(0.01, 5.0, 40),
            expand_window=EXPAND_WINDOW,
            expand_sizes=LIMIT_SIZES,
            batch={"sim": 100, "exact": 100, "chain": 100, "audit": 100, "ipp": 200,
                   "char": 256, "ladder": 10, "expand": 1, "coeff": 27},
            share={"sim": 1, "exact": 1, "chain": 1, "audit": 1, "ipp": 1, "char": 1,
                   "ladder": 1, "expand": 4, "coeff": 9},
            # the 1..8 of the coefficient survey, made odd
            coeff_k_max=9,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """A seconds-long version of a workload for the benchmark's own tests:
    small batches, a coarse ladder and small expansion sizes."""
    return replace(
        w,
        ladder=(0.01, min(w.ladder[1], 10.0), w.ladder[2]),
        expand_sizes=((8, 1), (6, 4)),
        batch={op: 1 if op in ("ladder", "expand") else (512 if op == "char" else 10)
               for op in OPS},
        coeff_min=20,
    )


def _rng(seed: int, op: str, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), _OP_ID[op], int(index))))


def _experiment_seed(seed: int, op: str, index: int) -> int:
    """Seed of the run_experiment spec of one call; paths are keyed (seed, p)."""
    return int(_rng(seed, op, index).integers(0, 2**31 - 1))


def _sorted_atoms(rng, n: int, T: float, M: float):
    while True:
        t = np.sort(rng.uniform(0.0, T, size=n))
        if n < 2 or np.all(np.diff(t) > 0.0):
            return tuple(zip(t.tolist(), rng.uniform(0.0, M, size=n).tolist()))


def _expand_inputs(w: Workload, seed: int, index: int):
    """Atom lists for one call of `reconstruct` calls: for each (n, count) of
    expand_sizes, `count` unit Poisson samples on the workload's expansion
    window conditioned on holding n atoms (n uniform atoms, time sorted)."""
    rng = _rng(seed, "expand", index)
    return [_sorted_atoms(rng, n, *w.expand_window) for n, c in w.expand_sizes for _ in range(c)]


def _ladder_inputs(w: Workload, seed: int, index: int) -> float:
    """Kernel amplitude factor in (0.9, 1] for one call's ladders, so no two
    timed ladder builds share their input."""
    return 1.0 - 0.1 * float(_rng(seed, "ladder", index).uniform())


def _coeff_inputs(w: Workload, seed: int, index: int):
    """Point lists for one batch of coefficient queries on the desk window."""
    rng = _rng(seed, "coeff", index)
    batch = w.batch["coeff"]
    return [_sorted_atoms(rng, 1 + (index * batch + j) % w.coeff_k_max, *DESK)
            for j in range(batch)]


def inputs(w: Workload, seed: int, op: str, index: int):
    """Everything call `index` of operation `op` receives, as plain numbers:
    a run_experiment seed, a kernel amplitude factor, or atom lists."""
    if op == "expand":
        return _expand_inputs(w, seed, index)
    if op == "coeff":
        return _coeff_inputs(w, seed, index)
    if op == "ladder":
        return _ladder_inputs(w, seed, index)
    return _experiment_seed(seed, op, index)


def table_values() -> np.ndarray:
    """0.5 e^{-t} sampled at step 0.01 on [0, 8]: 801 nodes, nonincreasing."""
    grid = TABLE_STEP * np.arange(int(round(TABLE_SUPPORT / TABLE_STEP)) + 1)
    return EXP_ALPHA * np.exp(-EXP_BETA * grid)
