"""The two concrete models: displaced harmonic oscillator and Swanson model.

Both Hamiltonians reduce in momentum space to -f psi'' + g psi' + h psi =
eps psi with f = w^2, g = -2w(kappa p + ell) and
h = a p^2 - 2 ell (gamma + sigma) p + c w, where w = 1 + beta p^2 and
kappa = beta + gamma + sigma.  One GupFamily
holds those numbers and derives everything else once: the point canonical
transformation to a sec^2 potential on a finite box, the beta (B + n)^2
ladder of the wall exponent B, the metric that restores Hermiticity, and the Jacobi
eigenfunctions.  Each params class maps itself onto the family and keeps
its published closed-form energies and reality threshold, the oracles every
derived quantity and solver is checked against.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import Polynomial

from . import pct
from .algebra import DeformationParams
from .errors import ConfigurationError
from .jacobi import jacobi_eval
from .pct import CoefficientSet, EnergyMap, TransformedProblem, _larger_root, _snapped_sqrt


@dataclass(frozen=True)
class DisplacedOscillatorParams:
    """Harmonic oscillator of mass mu and frequency omega plus the term i*lam*x."""

    deformation: DeformationParams
    mu: float = 1.0
    omega: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not self.mu > 0:
            raise ConfigurationError(f"mu must be positive, got {self.mu}")
        if not self.omega > 0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")

    @property
    def lam_tilde(self) -> float:
        """Reduced coupling lam/(mu*hbar*omega^2) appearing throughout."""
        d = self.deformation
        return self.lam / (self.mu * d.hbar * self.omega**2)

    def family(self) -> "GupFamily":
        """sigma = 0 and ell = lam_tilde: the linear term only tilts g and h."""
        d = self.deformation
        hbar, gamma = d.hbar, d.gamma
        return GupFamily(
            deformation=d,
            sigma=0.0,
            ell=self.lam_tilde,
            a=1.0 / (hbar**2 * self.mu**2 * self.omega**2) - gamma * (d.beta + gamma),
            c=0.0,
            energy_map=EnergyMap(scale=2.0 / (hbar**2 * self.mu * self.omega**2), offset=gamma),
        )

    def energy(self, n: int) -> float:
        """Closed-form E_n; real for every n, beta >= 0 and lam."""
        if n < 0:
            raise ConfigurationError(f"level index must be non-negative, got {n}")
        d = self.deformation
        hbar, beta = d.hbar, d.beta
        mu, omega, lam = self.mu, self.omega, self.lam
        t = beta * hbar * omega * mu / 2.0
        return hbar * omega * (t * (n * n + n + 0.5) + (n + 0.5) * np.sqrt(1.0 + t * t)) + lam**2 / (
            2.0 * mu * omega**2
        )

    def beta_c(self) -> None:
        """No reality threshold: the displaced spectrum is real for every beta."""
        return None


@dataclass(frozen=True)
class SwansonParams:
    """Quadratic non-Hermitian model omega*ad*a + lam*a^2 + delta*ad^2 + omega/2."""

    deformation: DeformationParams
    m: float = 1.0
    omega: float = 1.0
    lam: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not self.m > 0:
            raise ConfigurationError(f"m must be positive, got {self.m}")
        if not self.omega > 0:
            raise ConfigurationError(f"omega must be positive, got {self.omega}")
        drive = self.omega - self.lam - self.delta
        if drive == 0:
            raise ConfigurationError("omega - lam - delta = 0 makes the momentum-space reduction singular")
        if drive < 0:
            raise ConfigurationError(
                f"omega - lam - delta = {drive} < 0 flips the energy-map orientation; not supported"
            )

    @property
    def drive(self) -> float:
        return self.omega - self.lam - self.delta

    @property
    def c1(self) -> float:
        """Asymmetry coefficient (delta-lam)/(hbar*m*omega*(omega-lam-delta))."""
        return (self.delta - self.lam) / (self.deformation.hbar * self.m * self.omega * self.drive)

    def family(self) -> "GupFamily":
        """sigma = c1 and ell = 0.

        hbar and m enter only as the product hbar m, the square of the momentum
        scale sqrt(hbar m omega), so E_n depends on them only through hbar m beta.
        """
        d = self.deformation
        hbar_m, gamma = d.hbar * self.m, d.gamma
        omega, drive, c1 = self.omega, self.drive, self.c1
        return GupFamily(
            deformation=d,
            sigma=c1,
            ell=0.0,
            a=(omega + self.lam + self.delta) / (hbar_m**2 * omega**2 * drive) - 2.0 * gamma * c1 - gamma**2,
            c=-(c1 + 1.0 / (hbar_m * drive) + gamma),
            energy_map=EnergyMap(scale=2.0 / (hbar_m * omega * drive), offset=-1.0 / (hbar_m * drive)),
        )

    @property
    def _t(self) -> float:
        """t = hbar m omega beta (omega - lam - delta)/2, the coefficient of n^2 in E_n."""
        d = self.deformation
        return d.hbar * self.m * self.omega * d.beta * self.drive / 2.0

    def energy(self, n: int) -> float | complex:
        """Closed-form E_n in units of omega (no hbar): a float, or past the reality threshold complex with Im > 0.

        A ``swanson_reality_margin`` within its rounding of zero, on the scale (omega - t)^2 + 4|lam delta|, is 0.
        """
        if n < 0:
            raise ConfigurationError(f"level index must be non-negative, got {n}")
        t = self._t
        root = _snapped_sqrt(swanson_reality_margin(self), (self.omega - t) ** 2 + 4.0 * abs(self.lam * self.delta))
        return t * (n * n + n + 0.5) + (n + 0.5) * root

    def beta_c(self) -> Optional[float]:
        """Critical deformation beta_c = 2(omega - 2 sqrt(lam*delta))/(m*hbar*omega*(omega-lam-delta)).

        Returns None when lam*delta < 0 (the spectrum stays real for every beta,
        so there is no transition).  Raises when omega - 2 sqrt(lam*delta) <= 0,
        where the constraint cannot be met at any beta >= 0.
        """
        prod = self.lam * self.delta
        if prod < 0:
            return None
        head = self.omega - 2.0 * np.sqrt(prod)
        if head <= 0:
            raise ConfigurationError(
                f"omega - 2*sqrt(lam*delta) = {head} <= 0: reality fails for every beta"
            )
        return 2.0 * head / (self.m * self.deformation.hbar * self.omega * self.drive)


def swanson_reality_margin(params: SwansonParams) -> float:
    """Left side of the reality constraint (omega - t)^2 - 4 lam delta; >= 0 iff the spectrum is real."""
    return (params.omega - params._t) ** 2 - 4.0 * params.lam * params.delta


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Wavefunction:
    """Closed-form eigenfunction N * exp(a1*q(p)) * (1+beta*p^2)^a2 * P_n^(alpha,alpha)(z(p)).

    Here q(p) is the q-map of ``DeformationParams`` and z = sqrt(beta) p/sqrt(1+beta*p^2).  The metric's weight
    eta mu (1+beta*p^2) |psi|^2 dq is N^2 (1-z^2)^alpha P_n(z)^2 dz/sqrt(beta), so ``norm`` N = beta^(1/4)/sqrt(h_n),
    with h_n Szego's (Orthogonal Polynomials, 4.3), makes the eta-norm 1.  ``jet`` gives the analytic first and
    second derivatives with the values, as the ODE-residual check requires.
    """

    n: int
    beta: float
    a1: float
    a2: float
    alpha: float
    epsilon: float = np.nan

    def __post_init__(self):
        if self.n < 0:
            raise ConfigurationError(f"level index must be non-negative, got {self.n}")
        if self.beta <= 0:
            raise ConfigurationError("closed-form eigenfunctions require beta > 0")

    @property
    def norm(self) -> float:
        """N = beta^(1/4)/sqrt(h_n), h_n = 2^(2a+1) Gamma(n+a+1)^2/((2n+2a+1) n! Gamma(n+2a+1)) at a = alpha."""
        n, a = self.n, self.alpha
        log_h = (2 * a + 1) * math.log(2) + 2 * math.lgamma(n + a + 1) - math.lgamma(n + 1) - math.lgamma(n + 2 * a + 1)
        return self.beta**0.25 * math.sqrt(2 * n + 2 * a + 1) * math.exp(-0.5 * log_h)

    def jet(self, p):
        """(psi, psi', psi'') at p from one pass: the chain rule through the envelope and z(p), with
        d/dz P_n^(a,a) = (n + 2a + 1)/2 P_(n-1)^(a+1,a+1) for the Jacobi factor."""
        n, a, beta = self.n, self.alpha, self.beta
        p = np.asarray(p, dtype=float)
        w = 1.0 + beta * p**2
        log_env = self.a1 * DeformationParams(beta=beta).q_of_p(p) + self.a2 * np.log(w)
        dlog = (self.a1 + 2.0 * self.a2 * beta * p) / w
        d2log = (2.0 * self.a2 * beta * w - (self.a1 + 2.0 * self.a2 * beta * p) * 2.0 * beta * p) / w**2
        env = self.norm * np.exp(log_env)
        sqb = np.sqrt(beta)
        z, dz, d2z = sqb * p / np.sqrt(w), sqb * w ** (-1.5), -3.0 * beta * sqb * p * w ** (-2.5)
        pn = jacobi_eval(n, a, z)
        dpn = 0.5 * (n + 2 * a + 1) * jacobi_eval(n - 1, a + 1, z) if n >= 1 else np.zeros_like(z)
        d2pn = 0.25 * (n + 2 * a + 1) * (n + 2 * a + 2) * jacobi_eval(n - 2, a + 2, z) if n >= 2 else np.zeros_like(z)
        return (env * pn, env * (dlog * pn + dz * dpn),
                env * ((dlog**2 + d2log) * pn + (2.0 * dlog * dz + d2z) * dpn + dz**2 * d2pn))

    def __call__(self, p):
        return self.jet(p)[0]


# --------------------------------------------------------------------------
# the shared quadratic-GUP family
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GupFamily:
    """-f psi'' + g psi' + h psi = eps psi with f = w^2, g = -2w(kappa p + ell), h = a p^2 + b p + c w.

    Here w = 1 + beta p^2, kappa = beta + gamma + sigma and
    b = -2 ell (kappa - beta), the one linear term that keeps the potential
    a pure sec^2.  sigma is the power-law part of the metric and ell its
    arctan part; both vanish exactly when the model is Hermitian.
    """

    deformation: DeformationParams
    sigma: float
    ell: float
    a: float
    c: float
    energy_map: EnergyMap

    @property
    def kappa(self) -> float:
        d = self.deformation
        return d.beta + d.gamma + self.sigma

    def coefficients(self) -> CoefficientSet:
        """Momentum-space ODE coefficients: f and g as polynomials, h as a closure."""
        beta, kappa, ell = self.deformation.beta, self.kappa, self.ell
        a, c = self.a, self.c
        b = -2.0 * ell * (self.deformation.gamma + self.sigma)  # kappa - beta, without the rounding
        w = Polynomial([1.0, 0.0, beta])

        def h(p):
            return a * p**2 + b * p + c * (1.0 + beta * p**2)

        return CoefficientSet(f=w**2, g=-2.0 * w * Polynomial([ell, kappa]), h=h)

    def log_rho(self) -> Callable:
        """log rho = -(gamma + sigma)/(2 beta) * log(1 + beta p^2) - ell * q(p), q the q-map."""
        d = self.deformation
        beta, gamma = d.beta, d.gamma
        sigma, ell = self.sigma, self.ell

        def log_rho(p):
            p = np.asarray(p, dtype=float)
            # at beta = 0 (gamma = 0 there) the power law takes its limit
            power = -0.5 * sigma * p**2 if beta == 0 else -((gamma + sigma) / (2.0 * beta)) * np.log1p(beta * p**2)
            return power - ell * d.q_of_p(p)

        return log_rho

    @property
    def nu(self) -> float:
        """Strength nu = (kappa (kappa - beta) + a + beta c)/beta of the sec^2 potential; beta <= 0 has no ladder."""
        d = self.deformation
        if d.beta <= 0:
            raise ConfigurationError("spectral ladder parameters require beta > 0")
        return ((d.gamma + self.sigma) * self.kappa + self.a + d.beta * self.c) / d.beta

    @property
    def offset(self) -> float:
        """Additive potential offset ell^2 + kappa - beta + c - nu."""
        return self.ell**2 - self.nu + (self.deformation.gamma + self.sigma + self.c)

    @property
    def wall_exponent(self) -> float | complex:
        """B, the larger root of B^2 - B - nu/beta: the exponent the q-box solve reads from the potential.

        Past the reality threshold 1 + 4 nu/beta < 0 and B is complex (principal branch).
        """
        return _larger_root(1.0, -1.0, -self.nu / self.deformation.beta)

    def transform(self) -> TransformedProblem:
        """Schrodinger form using the closed-form q-map."""
        return pct.transform(self.coefficients(), self.deformation)

    def epsilon_levels(self) -> Callable:
        """n -> eps_n = beta (B + n)^2 + offset: the sec^2 ladder plus the potential offset.

        The one refusal of a complex B (nu < -beta/4: past the reality threshold, or a fall to centre).
        """
        big_b, offset = self.wall_exponent, self.offset
        if isinstance(big_b, complex):
            raise ConfigurationError(
                "beta is at or past the reality threshold; bound-state eigenfunctions are not real-parameter Jacobi forms"
            )
        return lambda n: self.deformation.beta * (big_b + np.asarray(n)) ** 2 + offset

    def log_metric(self) -> Callable:
        """log eta = -(gamma/beta) * log(1 + beta p^2) - 2 log rho, the metric under which H is pseudo-Hermitian."""
        d = self.deformation
        if d.beta <= 0:
            raise ConfigurationError("the metric requires beta > 0")
        beta, gamma, log_rho = d.beta, d.gamma, self.log_rho()

        def log_eta(p):
            p = np.asarray(p, dtype=float)
            return -(gamma / beta) * np.log1p(beta * p**2) - 2.0 * log_rho(p)

        return log_eta

    def metric(self) -> Callable:
        """Metric eta(p) = exp(log eta(p)); see ``log_metric``."""
        log_eta = self.log_metric()
        return lambda p: np.exp(log_eta(p))

    def wavefunction(self, n: int) -> Wavefunction:
        """Metric-normalized eigenfunction with a1 = -ell and alpha = B - 1/2, B the wall exponent.

        The canonical form rho(p) * phi_n(q(p)) has a2 = -(gamma + sigma)/(2 beta) - B/2.
        Its eps_n comes first, so past the reality threshold ``epsilon_levels`` refuses it.
        """
        epsilon = float(self.epsilon_levels()(n))
        beta, big_b = self.deformation.beta, self.wall_exponent
        return Wavefunction(
            n=n,
            beta=beta,
            a1=-self.ell,
            a2=-(self.deformation.gamma + self.sigma) / (2.0 * beta) - big_b / 2.0,
            alpha=big_b - 0.5,
            epsilon=epsilon,
        )


# --------------------------------------------------------------------------
# model-level functions; each takes either params class
# --------------------------------------------------------------------------

def coefficients(params) -> CoefficientSet:
    """Momentum-space ODE coefficients of the model."""
    return params.family().coefficients()


def transform(params) -> TransformedProblem:
    """Schrodinger form of the model using the closed-form q-map."""
    return params.family().transform()


def metric(params) -> Callable:
    """Closed-form metric of the model."""
    return params.family().metric()


def energy(n: int, params) -> complex:
    """Published closed-form E_n of the model."""
    return params.energy(n)


def wavefunction(n: int, params) -> Wavefunction:
    """Canonical eigenfunction rho(p) * phi_n(q(p)), metric-normalized; see ``GupFamily.wavefunction``."""
    return params.family().wavefunction(n)


def swanson_beta_c(params: SwansonParams) -> Optional[float]:
    """Critical deformation of the Swanson model; see ``SwansonParams.beta_c``."""
    return params.beta_c()


# Per-model names, kept for callers; both models share one implementation.
displaced_coefficients = swanson_coefficients = coefficients
displaced_transform = swanson_transform = transform
displaced_metric = swanson_metric = metric
displaced_energy = swanson_energy = energy
displaced_wavefunction = swanson_wavefunction = wavefunction

