"""Exact Cech cohomology and bundle moduli data on two-chart total spaces
of line bundles over the projective line."""

from .ring import (
    LaurentPoly,
    RingSig,
    SignatureError,
    NonUnitSubstitution,
    SeriesDomainError,
    exp_trunc,
)
from .spaces import (
    ChartMap,
    CompositionError,
    GradingVector,
    TwoChartSpace,
    grading_lattice,
    hirzebruch_verify,
    make_standard_space,
    validate_transition,
)
from .bundles import (
    IncompatibleTransition,
    TransitionBundle,
    direct_sum,
    dual,
    end_bundle,
    extension_bundle,
    flat_index,
    line_bundle,
    pullback_bundle,
    restrict_to_line,
    tangent_bundle,
    tensor,
)
from .cech import (
    BoxError,
    CechClass,
    CechEngine,
    CellLimitError,
    DegreeBox,
    Exact,
    H1Result,
    NonFiniteSlice,
    ReduceResult,
    StableInBox,
    SymbolicParameterError,
    WitnessFound,
    coboundary_generators,
    h1,
    is_coboundary,
    make_class,
    monomial_class,
    reduce_class,
    verify_witness,
)
from .moduli import (
    ExtensionVerdict,
    ModuliDimReport,
    NonUnitDeterminant,
    SplittingType,
    extension_verdict,
    first_neighborhood_dim,
    generic_moduli_dim,
    splitting_type,
)
from .deform import (
    AffinenessReport,
    DeformationFamily,
    NonInvertiblePerturbation,
    affineness_probe,
    build_family,
)
from .exprs import ExprSyntaxError, UnknownVariableError, parse_expr, parse_poly, print_expr
from .claims import ClaimRecord, run_claim_suite

__all__ = [name for name in dir() if not name.startswith("_")]
