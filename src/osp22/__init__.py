"""Grassmann calculus, the free-particle solution basis, a truncated Hilbert
superspace, the atypical osp(2/2) representation, and its supercoherent
states, each backed by independent numerical cross-checks."""

from .grassmann import (
    AlgebraMismatchError,
    GrassmannAlgebra,
    GrassmannElement,
    default_algebra,
    random_element,
)
from .basis import (
    QuadratureSpec,
    apply_ladder,
    apply_symmetry_op,
    chi_evaluator,
    eval_chi,
    eval_chi_derivatives,
    hermite_he_scale,
    ladder_coefficient,
    quad_inner,
    schrodinger_residual,
)
from .superspace import (
    DimensionMismatchError,
    SuperVector,
    random_supervector,
    super_inner_integral,
    superadjoint_defect,
)
from .representation import (
    COMMUTATOR_TABLE,
    GENERATOR_NAMES,
    HERMITIAN_BASE,
    SUPERADJOINTS,
    SuperOperator,
    build_generator,
    hamiltonian_defects,
    operator_exp,
    structure_defects,
    vacuum_defects,
)
from .coherent import (
    CalibrationError,
    CoherentParams,
    TruncationError,
    berezin_symbol,
    berezin_symbols,
    calibrate_convention,
    closed_form,
    crosscheck,
    displacement_operator,
    disk_parameter,
    expansion_coefficients,
    expected_symbol,
    series_state,
    trajectory,
    trajectory_closed_form,
)

__version__ = "0.1.0"
