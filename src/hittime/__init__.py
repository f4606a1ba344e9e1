"""Hitting probabilities, mean hitting times and return times for
irreducible positive trace-preserving maps, with the classical Markov-chain
special case and an independent series oracle for cross-validation."""

from .classical import (
    MarkovChain,
    SubsetHitting,
    build_chain,
    classical_mhtf,
    classical_mhtf_distribution,
    classical_mhtf_subset,
    kac_return_time,
)
from .errors import (
    DimensionError,
    HittimeError,
    NonConvergenceError,
    NumericError,
    OrthogonalityError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .hitting import (
    ArrivalSubspace,
    FirstStep,
    HittingSolution,
    OrthogonalMhtf,
    condition_first_step,
    hitting_probability,
    mean_hitting_time_direct,
    mhtf_general,
    mhtf_orthogonal,
    solve_hitting,
    subspace_from_indices,
    subspace_from_vectors,
)
from .linalg import (
    DEFAULT_TOL,
    PsdCheck,
    Tolerance,
    fixed_space,
    frobenius,
    hermitize,
    is_psd,
    spectral_radius,
    unvec,
    vec,
)
from .maps import (
    CERTIFIED_IRREDUCIBLE,
    INCONCLUSIVE,
    NOT_IRREDUCIBLE,
    CpCheck,
    DensityMatrix,
    IrreducibilityCertificate,
    PositivitySample,
    SuperOperator,
    TraceCheck,
    apply,
    as_density,
    check_complete_positivity,
    check_trace_preserving,
    choi_matrix,
    density,
    from_kraus,
    from_raw,
    from_stochastic,
    invariant_state,
    positivity_sample,
    pure_density,
    validate_column_stochastic,
)
from .oracle import MonteCarloEstimate, classical_monte_carlo, tau_series

__version__ = "0.1.0"
