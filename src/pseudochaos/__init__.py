"""Expansion of self-exciting counting processes over the raw planar Poisson
measure: closed-form coefficients, exact pathwise reconstruction, and the
chain-counting process that shares the Hawkes intensity equation."""

from .branching import (
    BranchingPath,
    ChainCountOverflow,
    branching_path,
    chain_counts,
    chain_length_totals,
    conditional_residual,
    jump_size_histogram,
    martingale_residual,
)
from .configurations import (
    AtomBudgetExceeded,
    Configuration,
    Point,
    TimeCollisionError,
    Window,
    add_points,
    sample_poisson,
)
from .expansion import (
    CharacterizationReport,
    ReconstructionReport,
    characterization_check,
    chaotic_coefficient_mc,
    coefficient_oracle,
    hawkes_coefficient,
    reconstruct,
)
from .harness import (
    AnalyticMean,
    ExperimentSpec,
    expected_count_analytic,
    reconstruction_audit,
    run_experiment,
    selfcheck,
)
from .hawkes import (
    HawkesCount,
    HawkesParams,
    HawkesPath,
    intensity_on_configuration,
    simulate,
    solve_path,
)
from .kernels import ConvolutionLadder, Kernel, StabilityError, build_ladder
from .malliavin import (
    CallableFunctional,
    ConstantFunctional,
    EmptyWindowWeight,
    Functional,
    RectangleCount,
    empty_window_expectation,
    ipp_check_order1,
    iterated_difference,
)
from .mc import MCEstimate, rng_from_key

__all__ = [name for name in dir() if not name.startswith("_")]
