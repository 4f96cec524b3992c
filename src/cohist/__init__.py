"""Finite-dimensional consistent-histories toolkit.

Builds single-time frameworks (projective decompositions), families of
histories over tensor-product history spaces, checks the consistency
condition via the decoherence functional, assigns history probabilities,
and packages measurement, preparation, POVM, and locality analyses.
"""

from .errors import (
    ArgumentError,
    CohistError,
    CompletenessError,
    DimError,
    FactorizationError,
    FlavorError,
    GridMismatchError,
    IncompatibleFrameworksError,
    InconsistentFamilyError,
    NonFiniteError,
    NormalizationError,
    NotProjectorError,
    OrthogonalityError,
    ParseError,
    ValidationError,
    WeightError,
    ZeroConditionError,
)
from .operators import (
    AXES,
    CONSISTENCY_FLOOR,
    TOL_ALG,
    TOL_CONSISTENCY,
    TOL_NORM,
    TOL_PROB,
    Ket,
    Operator,
    basis_ket,
    commutator,
    commutes,
    dyad,
    embed,
    interval_projector,
    partial_trace,
    singlet,
    spin_ket,
    spin_projectors,
    tensor,
)
from .framework import (
    Event,
    ProjectiveDecomposition,
    basis_pd,
    common_refinement,
    compatible,
    event_probability,
    interval_pd,
    lift_pd,
    make_pd,
    refines,
    spin_pd,
    tensor_pd,
    trivial_pd,
)
from .histories import (
    History,
    HistoryFamily,
    TimeGrid,
    family_compatible,
    family_of,
    fixed_initial_family,
    product_family,
    raw_family,
    unitary_family,
)
from .dynamics import (
    ConsistencyReport,
    Dynamics,
    born_weight,
    chain_operator,
    conditional_probability,
    decoherence_functional,
    event_weight,
    probability,
    sample_counts,
    sample_history,
)
from .models import (
    ContextualAnalysis,
    ContextualPreparation,
    LocalityExperiment,
    LocalityReport,
    MeasurementAnalysis,
    MeasurementModel,
    PovmElementSet,
    PreparationAnalysis,
    SingletCorrelation,
    build_measurement,
    complete_unitary,
    contextual_analysis,
    contextual_preparation,
    einstein_locality_check,
    measurement_analysis,
    povm_from_ancilla,
    preparation_analysis,
    singlet_correlation,
)

__version__ = "0.1.0"
