"""Thermodynamic formalism for finite set-valued dynamics.

Correspondences on a finite state space, their topological pressure,
invariant measures and kernels, equilibrium states for both notions
of entropy, and grid models of interval systems.
"""

from .errors import (
    ConvergenceFailure,
    CorrpressError,
    DegenerateCell,
    DuplicateEdge,
    EmptySuccessor,
    IndexOutOfRange,
    InputError,
    InvalidDecomposition,
    InvalidPath,
    MinusInfinitePressure,
    MisalignedBreakpoints,
    ModeUnsupported,
    NonUniqueDominantClass,
    NotAFunctionOnBlock,
    NotBijective,
    NotInvariant,
    NotInvariantOnBlock,
    NotMarkov,
    NotStationary,
    NotSurjective,
    OutOfDomain,
    ScalingDiverged,
    ShapeMismatch,
    SolverError,
    TooLarge,
)
from .relations import (
    Decomposition,
    FiniteCorrespondence,
    Potential,
    birkhoff_sum,
    decomposition_validate,
    from_map,
    inverse_correspondence,
    validate_correspondence,
)
from .pressure import (
    SpectralResult,
    decomposition_pressure,
    path_pressure_sequence,
    spectral_pressure,
)
from .kernels import (
    Partition,
    PathDistribution,
    TransitionKernel,
    chain_distribution,
    entropy_rate,
    kernel_entropy,
    kernel_from_pair,
    pair_from_kernel,
    partition_entropy,
    pullback,
    pushforward,
    stationary_measures,
    uniform_measure,
    validate_measure,
)
from .polytope import (
    HatLift,
    InvarianceCheck,
    extremal_decomposition,
    hat_lift,
    invariant_polytope_extremes,
    is_invariant,
)
from .variational import (
    AbstractEntropyResult,
    EquilibriumPair,
    MeasurePressureResult,
    SolverConfig,
    TangentSet,
    abstract_kernel_entropy,
    abstract_measure_pressure,
    directional_derivative,
    equilibrium_check,
    gibbs_equilibrium,
    measure_pressure,
    tangent_functionals,
)
from .intervals import (
    GridRelation,
    IntervalCorrespondence,
    MarkovModel,
    PiecewiseLinearMap,
    example_branches,
    example_report,
    grid_discretize,
    markov_model,
    pl_eval,
)

__version__ = "0.1.0"
