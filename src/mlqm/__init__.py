"""Minimal-length quantum mechanics of two non-Hermitian models.

The deformed commutator [x, p] = i*hbar*(1 + beta*p^2) gives a minimal
position uncertainty hbar*sqrt(beta).  This package implements the
displaced harmonic oscillator (with an imaginary linear term) and the
Swanson model in that setting: closed-form spectra and eigenfunctions via a
point canonical transformation to a sec^2 potential, metric operators
restoring Hermiticity, and independent numerical eigensolvers plus
weighted-inner-product checks that verify all of it.
"""

from .algebra import (
    DeformationParams,
    GridFunction,
    MomentumGrid,
    UncertaintyReport,
    apply_momentum,
    apply_position,
    commutator_residual,
    uncertainty_check,
)
from .eigensolver import (
    SpectrumResult,
    build_p_space_matrix,
    classify_spectrum,
    p_space_operator,
    solve_p_space,
    solve_q_space,
    solve_q_space_branch,
)
from .errors import (
    ComplexSpectrumError,
    ConstraintViolatedError,
    DegenerateMeasureError,
    DegenerateModelError,
    DivergenceError,
    DomainError,
    EllipticityError,
    InvalidGridError,
    MlqmError,
    NonConvergenceError,
    NumericError,
    ResolutionError,
    UnsupportedRegimeError,
)
from .inner import QuadratureSpec, eta_inner
from .jacobi import jacobi_batch, jacobi_eval
from .models import (
    DerivedSpectralParams,
    DisplacedOscillatorParams,
    GupFamily,
    SwansonParams,
    Wavefunction,
    displaced_coefficients,
    displaced_energy,
    displaced_metric,
    displaced_transform,
    displaced_wavefunction,
    generic_metric,
    swanson_beta_c,
    swanson_coefficients,
    swanson_energy,
    swanson_metric,
    swanson_reality_margin,
    swanson_transform,
    swanson_wavefunction,
)
from .pct import (
    CoefficientSet,
    EnergyMap,
    TransformedProblem,
    build_potential,
    transform,
)
from .verify import (
    TOLERANCES,
    ResidualReport,
    adjoint_under_weight,
    gamma_independence,
    gram_matrix,
    hermiticity_defect,
    ode_residual,
    projected_hermiticity_defect,
    pseudo_hermiticity_residual,
)

__version__ = "0.1.0"
