"""Finite gauge theory machinery from spectral data.

The package builds finite real spectral triples, verifies their axioms,
computes one-forms, gauge groups, perturbation semigroups and inner
fluctuations, localizes everything over the finite base cut out by the
commutative subalgebra attached to the real structure, and carries the
same bookkeeping to rational-parameter torus and sphere deformations.
Every verification routine returns a report of named checks with
residuals, tolerances and scope labels.
"""

from .linalg import (
    TOL_CONSTRUCT,
    TOL_DERIVED,
    AntiLinearOp,
    RealSpan,
    Subspace,
    adjoint,
    commutator,
    frobenius,
    generated_algebra,
    nullspace,
    op_norm,
)
from .staralg import (
    AlgebraError,
    FiniteStarAlgebra,
    NonCommutative,
    NotClosed,
    ProjectionFamily,
    block_diagonal_algebra,
    center,
    diagonal_algebra,
    full_matrix_algebra,
    generating_set,
    minimal_projections,
    random_unitary,
    skew_hermitian_basis,
)
from .reporting import (
    SCHEMA_TAG,
    SCOPE_CONTINUITY,
    SCOPE_EXACT,
    SCOPE_FINITE,
    SCOPE_RATIONAL,
    CheckRecord,
    Report,
    rows_to_csv,
)
from .spectral import (
    OneForm,
    RealSpectralTriple,
    SpectralInputError,
    c_d_algebra,
    check_axioms,
    compute_aj,
    conjugate_triple,
    one_form_space,
    transpose_permutation,
    verify_aj_properties,
)
from .models import (
    TRIPLE_SCHEMA_TAG,
    BadHopping,
    BadModelSpec,
    build_finite_ym,
    build_hs_model,
    build_orbifold_algebra,
    load_model,
    model_from_string,
    triple_from_config,
)
from .gauge import (
    GaugeElement,
    GaugeLieAlgebra,
    MembershipViolated,
    NotUnitary,
    Perturbation,
    covariance_residual,
    doubled_fluctuation,
    fluctuate,
    from_unitary,
    gauge_field,
    gauge_lie_algebra,
    gauge_matrix,
    gauge_span,
    gauge_transform_field,
    pert_product,
    random_perturbation,
)
from .localize import (
    FiberDecomposition,
    conjugation_bound,
    fiber_gauge_action,
    group_bundle_dims,
    localize,
    norm_is_sup,
    omega_bundle,
)
from .torus import (
    SYMBOLIC,
    BadParameters,
    ModeMismatch,
    NotOnTorus,
    PhaseMode,
    PhaseScalar,
    TorusElement,
    central_monomials,
    clock_shift,
    rational_mode,
    torus_generator,
    torus_one,
    torus_rep,
    trace_state,
)
from .spheres import (
    SphereElement,
    invariant_monomial,
    sphere_alpha,
    sphere_beta,
    sphere_one,
    sphere_x,
)
from .parsing import ParseError, parse_sphere, parse_torus
from .toric import (
    BasePoint3,
    BasePoint4,
    continuity_report,
    fiber_norm3,
    fiber_norm4,
    invariant_subalgebra,
    norm_profile,
    s3_eval,
    s3_fiber_dimension,
    s4_eval,
    s4_fiber_dimension,
    stratum3,
    stratum4,
    stratum_scan,
)

__version__ = "0.1.0"
