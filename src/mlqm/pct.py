"""Point canonical transformation of -f(p) d^2/dp^2 + g(p) d/dp + h(p).

The change of variable q = int dp/sqrt(f) together with the similarity
factor rho(p) = exp(int chi), chi = (f' + 2g)/(4f), turns the operator into
a standard Schrodinger form -d^2/dq^2 + V(q) with

    V = (4 g^2 + 3 f'^2 + 8 g f') / (16 f) - f''/4 - g'/2 + h

evaluated at p(q).  Model builders supply analytic derivatives (validated on
construction); quadrature covers the generic case, closed-form hints
override it for the models in this package.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EllipticityError, UnsupportedRegimeError

_QUAD_ABS_TOL = 1e-12
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


def build_q_map(coeffs: CoefficientSet, hint: Optional[QMap] = None) -> QMap:
    """Monotone map q(p) = int_0^p dt/sqrt(f(t)) and its inverse.

    A closed-form hint is returned as given; without one, q is computed by
    adaptive quadrature and inverted by bracketing.
    """
    if hint is not None:
        return hint
    # imported here: every model passes a hint, and scipy.optimize adds ~0.25 s of import
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def integrand(t):
        ft = coeffs.f(t)
        if ft <= 0:
            raise EllipticityError(f"f({t}) <= 0")
        return 1.0 / np.sqrt(ft)

    def q_scalar(p):
        val, _ = quad(integrand, 0.0, p, epsabs=_QUAD_ABS_TOL, limit=200)
        return val

    q_of_p = np.vectorize(q_scalar, otypes=[float])

    def endpoint(sign):
        val, _ = quad(integrand, 0.0, sign * np.inf, epsabs=_QUAD_ABS_TOL, limit=200)
        return val

    try:
        q_max = endpoint(+1)
        q_min = endpoint(-1)
    except Exception:  # integral diverges: half-line maps to the full line
        q_min, q_max = -np.inf, np.inf

    def p_scalar(qval):
        if not (q_min < qval < q_max):
            raise DomainError(f"q={qval} outside ({q_min}, {q_max})")
        lo, hi = -1.0, 1.0
        while q_scalar(lo) > qval:
            lo *= 2.0
        while q_scalar(hi) < qval:
            hi *= 2.0
        return brentq(lambda p: q_scalar(p) - qval, lo, hi, xtol=1e-13)

    p_of_q = np.vectorize(p_scalar, otypes=[float])
    return QMap(q_of_p, p_of_q, q_min, q_max)


def build_rho(coeffs: CoefficientSet, log_rho_hint: Optional[Callable] = None):
    """Similarity pair (chi, rho) with rho(p) = exp(int_0^p chi)."""
    chi = coeffs.chi
    if log_rho_hint is not None:
        rho = lambda p: np.exp(log_rho_hint(np.asarray(p, dtype=float)))
        return chi, rho
    from scipy.integrate import quad

    def log_rho_scalar(p):
        val, _ = quad(lambda t: float(chi(t)), 0.0, p, epsabs=_QUAD_ABS_TOL, limit=200)
        return val

    log_rho = np.vectorize(log_rho_scalar, otypes=[float])
    return chi, lambda p: np.exp(log_rho(p))


@dataclass(frozen=True)
class TransformedProblem:
    """Schrodinger form of a coefficient set: domain, potential, maps, similarity."""

    q_min: float
    q_max: float
    potential: Callable
    q_of_p: Callable
    p_of_q: Callable
    rho: Callable
    chi: Callable


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


def transform(
    coeffs: CoefficientSet,
    q_hint: Optional[QMap] = None,
    log_rho_hint: Optional[Callable] = None,
) -> TransformedProblem:
    """Full PCT pipeline: q-map, similarity factor, and potential evaluator."""
    q_map = build_q_map(coeffs, q_hint)
    chi, rho = build_rho(coeffs, log_rho_hint)
    potential = build_potential(coeffs, q_map)
    return TransformedProblem(
        q_min=q_map.q_min,
        q_max=q_map.q_max,
        potential=potential,
        q_of_p=q_map.q_of_p,
        p_of_q=q_map.p_of_q,
        rho=rho,
        chi=chi,
    )


def secant_squared_levels(nu: float, beta: float):
    """Bound-state levels eps_n = (A + n sqrt(beta))^2 of -d^2/dq^2 + nu*sec^2(sqrt(beta) q).

    A = (sqrt(beta) + sqrt(beta + 4 nu))/2.  Any additive offset carried by
    the full potential is the caller's responsibility.  nu <= -beta/4 makes
    A complex (fall-to-center regime) and is rejected.
    """
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if nu <= -beta / 4.0:
        raise UnsupportedRegimeError(f"nu={nu} <= -beta/4={-beta/4}: no real bound-state ladder")
    sqb = np.sqrt(beta)
    a_const = 0.5 * (sqb + np.sqrt(beta + 4.0 * nu))

    def levels(n):
        n = np.asarray(n)
        return (a_const + n * sqb) ** 2

    return levels
