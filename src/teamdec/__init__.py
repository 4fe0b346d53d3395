"""Finite decentralized team decision problems.

Modeling of sequential teams on finite spaces, information-structure
classification, strategic (joint-outcome) measures with membership
characterizations, static reduction by change of measure, optimal and
person-by-person solvers, convexity certification, and a gallery of
named example problems.
"""

__version__ = "0.1.0"

from .constants import tolerances
from .convexity import (
    CellWitness,
    ConvexityVerdict,
    GridConvexityReport,
    VerdictKind,
    certify_team_convexity,
    conditional_cost,
    grid_convexity_test,
    policy_midpoint_test,
    replay_cell_witness,
)
from .errors import (
    AbsoluteContinuityFailure,
    AnalysisError,
    CapExceeded,
    DimensionMismatch,
    GroundMismatch,
    MalformedAnnotation,
    NonDeterministicMeasurement,
    NonMember,
    NonNumericActions,
    NotClassical,
    StaticRequired,
    TeamError,
    ValidationError,
)
from .gallery import (
    decoupled_example,
    example1,
    signaling,
    square_wave,
    witsenhausen,
)
from .infostruct import (
    ISClass,
    Partition,
    SubsystemAnnotation,
    affects,
    classify,
    information_nested,
    is_stochastically_decoupled,
    join,
    meet,
    nested_along_order,
    precedence_graph,
    sigma_field_of,
    test_conditional_independence,
)
from .model import (
    CostTable,
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    RandomizedProfile,
    TeamProblem,
    Violation,
    expected_cost,
    expected_cost_batch,
    induced_joint,
    validate,
)
from .quadrature import (
    CERTIFY_SPEC,
    QuadratureSpec,
    StaticLQTeam,
    TwoStageGaussianTeam,
    discretize,
    gauss_hermite,
    snap_profile,
)
from .reduction import (
    StaticReduction,
    default_references,
    static_reduce,
    verify_equivalence,
)
from .solvers import (
    KrainakResult,
    PbpResult,
    SolveResult,
    StationarityReport,
    best_response,
    brute_force,
    check_krainak_inequality,
    check_stationarity,
    pbp_iterate,
    response_table,
)
from .strategic import (
    FailureRecord,
    HistoryProfile,
    MembershipVerdict,
    NonconvexityWitness,
    StrategicMeasure,
    ThresholdPolicy,
    aggregate_policy,
    check_membership_LA,
    check_membership_LM,
    check_membership_LR,
    enumerate_LA,
    find_nonconvexity_witness,
    induce_LA,
    induce_LR,
    induce_history_profile,
    mix,
    realize_kernel_as_function,
    realize_midpoint_classical,
    uniform_realization_mixture,
)
