"""Minimal-length quantum mechanics of two non-Hermitian models.

The deformed commutator [x, p] = i*hbar*(1 + beta*p^2) gives a minimal
position uncertainty hbar*sqrt(beta).  This package implements the
displaced harmonic oscillator (with an imaginary linear term) and the
Swanson model in that setting: closed-form spectra and eigenfunctions via a
point canonical transformation to a sec^2 potential, metric operators
restoring Hermiticity, and independent numerical eigensolvers plus
weighted-inner-product checks that verify all of it.

The names below resolve lazily (PEP 562): ``import mlqm`` loads no submodule
and no numpy, and the first use of a name imports the submodule that
defines it.
"""

import importlib

#: submodule -> the public names the package exports from it
_EXPORTS = {
    "algebra": (
        "DeformationParams", "MomentumGrid", "commutator_residual",
    ),
    "eigensolver": (
        "SpectrumResult", "build_p_space_matrix", "solve_p_space", "solve_q_space", "solve_q_space_branch",
    ),
    "errors": ("ConfigurationError", "MlqmError", "NumericError"),
    "inner": ("eta_inner",),
    "jacobi": ("jacobi_eval",),
    "models": (
        "DisplacedOscillatorParams", "GupFamily", "SwansonParams", "Wavefunction",
        "displaced_coefficients", "displaced_energy", "displaced_metric", "displaced_transform",
        "displaced_wavefunction", "swanson_beta_c", "swanson_coefficients", "swanson_energy",
        "swanson_metric", "swanson_reality_margin", "swanson_transform", "swanson_wavefunction",
    ),
    "pct": ("CoefficientSet", "EnergyMap", "TransformedProblem", "build_potential", "transform"),
    "verify": (
        "TOLERANCES", "ResidualReport", "gamma_independence", "gram_matrix", "metric_identity_residual",
        "ode_residual", "pseudo_hermiticity_residual",
    ),
}
#: public name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
