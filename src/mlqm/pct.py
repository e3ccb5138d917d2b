"""Point canonical transformation of -f(p) d^2/dp^2 + g(p) d/dp + h(p).

The change of variable q = int dp/sqrt(f) together with the similarity
factor rho(p) = exp(int chi), chi = (f' + 2g)/(4f), turns the operator into
a standard Schrodinger form -d^2/dq^2 + V(q) with

    V = (4 g^2 + 3 f'^2 + 8 g f') / (16 f) - f''/4 - g'/2 + h

evaluated at p(q).  Model builders supply analytic derivatives (validated on
construction) and the closed-form q-map; the similarity factor rho enters
only the metric, which the models build from their closed-form log rho.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EllipticityError

#: Interval of the random points at which CoefficientSet validates itself.
_VALIDATION_RANGE = (-10.0, 10.0)


@dataclass(frozen=True)
class EnergyMap:
    """Affine relation eps = scale * E + offset between ODE and physical eigenvalues."""

    scale: float
    offset: float

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("energy map must be invertible (scale != 0)")

    def epsilon(self, energy):
        return self.scale * energy + self.offset

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
    energy_map: EnergyMap

    def __post_init__(self):
        rng = np.random.default_rng(12345)
        p = rng.uniform(*_VALIDATION_RANGE, size=100)
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

    def chi(self, p):
        """Similarity-factor integrand (f' + 2g)/(4f)."""
        p = np.asarray(p, dtype=float)
        return (self.df(p) + 2.0 * self.g(p)) / (4.0 * self.f(p))


@dataclass(frozen=True)
class QMap:
    """q(p), its inverse, and the q-domain endpoints."""

    q_of_p: Callable
    p_of_q: Callable
    q_min: float
    q_max: float


@dataclass(frozen=True)
class TransformedProblem:
    """Schrodinger form of a coefficient set: the q-domain, the potential and p(q)."""

    q_min: float
    q_max: float
    potential: Callable
    p_of_q: Callable


def build_potential(coeffs: CoefficientSet, q_map: QMap) -> Callable:
    """Pointwise evaluator of V(q); raises DomainError outside (q_min, q_max)."""

    def V(q):
        q = np.asarray(q, dtype=float)
        if np.any(q <= q_map.q_min) or np.any(q >= q_map.q_max):
            raise DomainError(f"q outside ({q_map.q_min}, {q_map.q_max})")
        p = np.asarray(q_map.p_of_q(q), dtype=float)
        f, df, d2f = coeffs.f(p), coeffs.df(p), coeffs.d2f(p)
        g, dg, h = coeffs.g(p), coeffs.dg(p), coeffs.h(p)
        return (4 * g**2 + 3 * df**2 + 8 * g * df) / (16 * f) - d2f / 4 - dg / 2 + h

    return V


def transform(coeffs: CoefficientSet, q_map: QMap) -> TransformedProblem:
    """PCT pipeline: the domain and p(q) of the closed-form ``q_map`` and the potential evaluator."""
    return TransformedProblem(
        q_min=q_map.q_min,
        q_max=q_map.q_max,
        potential=build_potential(coeffs, q_map),
        p_of_q=q_map.p_of_q,
    )
