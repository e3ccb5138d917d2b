"""Point canonical transformation of -f(p) d^2/dp^2 + g(p) d/dp + h(p).

The change of variable q = int dp/sqrt(f) together with the similarity
factor rho(p) = exp(int chi), chi = (f' + 2g)/(4f), turns the operator into
a standard Schrodinger form -d^2/dq^2 + V(q) with

    V = (4 g^2 + 3 f'^2 + 8 g f') / (16 f) - f''/4 - g'/2 + h

evaluated at p(q).  Model builders supply analytic derivatives (validated on
construction); the q-map is the closed form on ``DeformationParams``, exact
for f = (1 + beta p^2)^2.  The similarity factor rho enters only the metric,
which the models build from their closed-form log rho.  Whether a level is
real or half of a conjugate pair is decided by one rule, ``_snapped_sqrt``,
which the closed forms and the numeric solves share.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import DeformationParams
from .errors import DomainError, EllipticityError

#: Interval of the points at which CoefficientSet validates itself.
_VALIDATION_RANGE = (-10.0, 10.0)
#: Where in it those 100 points lie: the Weyl sequence k/phi mod 1 of the golden ratio phi, evenly spread.
_VALIDATION_FRACTIONS = (np.arange(1, 101) * 0.6180339887498949) % 1.0
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
            raise ValueError("energy map must be invertible (scale != 0)")

    def energy(self, epsilon):
        return (epsilon - self.offset) / self.scale


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of -f psi'' + g psi' + h psi = eps psi with analytic derivatives.

    The supplied derivatives are cross-checked against centered finite
    differences of their base functions at construction; inconsistent
    hand-derived derivatives are a silent source of wrong potentials
    otherwise.
    """

    f: Callable
    df: Callable
    d2f: Callable
    g: Callable
    dg: Callable
    h: Callable

    def __post_init__(self):
        lo, hi = _VALIDATION_RANGE
        p = lo + (hi - lo) * _VALIDATION_FRACTIONS
        fvals = np.asarray(self.f(p), dtype=float)
        if not np.all(fvals > 0):  # also refuses NaN
            raise EllipticityError("f(p) must be strictly positive on the working domain")
        step = 1e-5 * (1.0 + np.abs(p))
        for base, deriv, label in ((self.f, self.df, "f'"), (self.g, self.dg, "g'"), (self.df, self.d2f, "f''")):
            fd = (np.asarray(base(p + step)) - np.asarray(base(p - step))) / (2 * step)
            an = np.asarray(deriv(p), dtype=float)
            scale = np.maximum(np.abs(an), 1e-3 * (np.abs(an).max() + 1e-30))
            rel = np.abs(fd - an) / scale
            if not rel.max() <= 1e-6:
                raise ValueError(f"supplied {label} disagrees with finite differences (max rel {rel.max():.2e})")


@dataclass(frozen=True)
class TransformedProblem:
    """Schrodinger form of a coefficient set: the q-domain and the potential."""

    q_min: float
    q_max: float
    potential: Callable


def build_potential(coeffs: CoefficientSet, deformation: DeformationParams) -> Callable:
    """Pointwise evaluator of V(q) at p(q), the q-map of ``deformation``; raises DomainError outside |q| < q_half."""
    q_half = deformation.q_half

    def V(q):
        q = np.asarray(q, dtype=float)
        if np.any(np.abs(q) >= q_half):
            raise DomainError(f"q outside ({-q_half}, {q_half})")
        p = np.asarray(deformation.p_of_q(q), dtype=float)
        f, df, d2f = coeffs.f(p), coeffs.df(p), coeffs.d2f(p)
        g, dg, h = coeffs.g(p), coeffs.dg(p), coeffs.h(p)
        return (4 * g**2 + 3 * df**2 + 8 * g * df) / (16 * f) - d2f / 4 - dg / 2 + h

    return V


def transform(coeffs: CoefficientSet, deformation: DeformationParams) -> TransformedProblem:
    """PCT pipeline: the q-box |q| < q_half of ``deformation`` and the potential evaluator."""
    q_half = deformation.q_half
    return TransformedProblem(q_min=-q_half, q_max=q_half, potential=build_potential(coeffs, deformation))
