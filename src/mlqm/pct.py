"""Point canonical transformation of -f(p) d^2/dp^2 + g(p) d/dp + h(p).

The change of variable q = int dp/sqrt(f) together with the similarity
factor rho(p) = exp(int chi), chi = (f' + 2g)/(4f), turns the operator into
a standard Schrodinger form -d^2/dq^2 + V(q) with

    V = (4 g^2 + 3 f'^2 + 8 g f') / (16 f) - f''/4 - g'/2 + h

evaluated at p(q).  f and g are polynomials, so their derivatives are exact;
the q-map is the closed form on ``DeformationParams``, exact for
f = (1 + beta p^2)^2.  The similarity factor rho enters only the metric,
which the models build from their closed-form log rho.  Whether a level is
real or half of a conjugate pair is decided by one rule, ``_snapped_sqrt``,
which the closed forms and the numeric solves share.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .algebra import DeformationParams
from .errors import ConfigurationError, NumericError

#: The rounding of a discriminant, relative to the scale of its terms: 16 ulp.
_ROUNDING = 16 * np.finfo(float).eps


def _snapped_sqrt(disc: float, scale: float, snap: float = _ROUNDING) -> float | complex:
    """sqrt(disc), a float when real and the principal complex root when not; a disc within snap * scale of 0 is 0.

    That is the rounding of disc: at a reality threshold the root is double, and its rounding would
    otherwise pick between a real ladder and conjugate pairs.
    """
    if abs(disc) <= snap * scale:
        return 0.0
    return float(np.sqrt(disc)) if disc > 0 else complex(np.sqrt(complex(disc)))


def _larger_root(a: float, b: float, c: float, snap: float = _ROUNDING) -> float | complex:
    """The root of a x^2 + b x + c of larger real part, in the form that does not cancel, by ``_snapped_sqrt``."""
    root = _snapped_sqrt(b * b - 4.0 * a * c, b * b + 4.0 * abs(a * c), snap)
    z = np.complex128(root)  # one formula for either kind of root
    x = (z - b) / (2.0 * a) if b <= 0 else -2.0 * c / (b + z)
    return complex(x) if isinstance(root, complex) else float(x.real)


@dataclass(frozen=True)
class EnergyMap:
    """Affine relation eps = scale * E + offset between ODE and physical eigenvalues."""

    scale: float
    offset: float

    def __post_init__(self):
        if self.scale == 0:
            raise ConfigurationError("energy map must be invertible (scale != 0)")

    def energy(self, epsilon):
        return (epsilon - self.offset) / self.scale


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of -f psi'' + g psi' + h psi = eps psi: polynomials f and g, with exact derivatives, and any h."""

    f: Polynomial
    g: Polynomial
    h: Callable

    def __post_init__(self):
        if not (isinstance(self.f, Polynomial) and isinstance(self.g, Polynomial)):
            raise ConfigurationError("f and g must be numpy.polynomial.Polynomial objects")
        if not np.all(self.f(np.linspace(-10.0, 10.0, 101)) > 0):  # also refuses NaN
            raise NumericError("f(p) must be strictly positive on the working domain")


@dataclass(frozen=True)
class TransformedProblem:
    """Schrodinger form of a coefficient set: the q-domain and the potential."""

    q_min: float
    q_max: float
    potential: Callable


def build_potential(coeffs: CoefficientSet, deformation: DeformationParams) -> Callable:
    """Pointwise evaluator of V(q) at p(q), the q-map of ``deformation``; refuses q outside |q| < q_half."""
    q_half = deformation.q_half

    def V(q):
        q = np.asarray(q, dtype=float)
        if np.any(np.abs(q) >= q_half):
            raise ConfigurationError(f"q outside ({-q_half}, {q_half})")
        p = np.asarray(deformation.p_of_q(q), dtype=float)
        f, f1, f2 = coeffs.f(p), coeffs.f.deriv()(p), coeffs.f.deriv(2)(p)
        g, g1, h = coeffs.g(p), coeffs.g.deriv()(p), coeffs.h(p)
        return (4 * g**2 + 3 * f1**2 + 8 * g * f1) / (16 * f) - f2 / 4 - g1 / 2 + h

    return V


def transform(coeffs: CoefficientSet, deformation: DeformationParams) -> TransformedProblem:
    """PCT pipeline: the q-box |q| < q_half of ``deformation`` and the potential evaluator."""
    q_half = deformation.q_half
    return TransformedProblem(q_min=-q_half, q_max=q_half, potential=build_potential(coeffs, deformation))
