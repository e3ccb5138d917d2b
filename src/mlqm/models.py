"""The two concrete models: displaced harmonic oscillator and Swanson model.

Both Hamiltonians reduce in momentum space to -f psi'' + g psi' + h psi =
eps psi with f = w^2, g = -2w(kappa p + ell) and
h = a p^2 - 2 ell (gamma + sigma) p + c w, where w = 1 + beta p^2 and
kappa = beta + gamma + sigma.  One GupFamily
holds those numbers and derives everything else once: the point canonical
transformation to a sec^2 potential on a finite box, the (A + n sqrt(beta))^2
ladder, the metric that restores Hermiticity, and the Jacobi
eigenfunctions.  Each params class maps itself onto the family and keeps
its published closed-form energies and reality threshold, the oracles every
derived quantity and solver is checked against.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import pct
from .algebra import DeformationParams
from .errors import (
    ComplexSpectrumError,
    ConstraintViolatedError,
    DegenerateModelError,
    DivergenceError,
    DomainError,
    UnsupportedRegimeError,
)
from .inner import eta_inner
from .jacobi import jacobi_eval
from .pct import CoefficientSet, EnergyMap, QMap, TransformedProblem


@dataclass(frozen=True)
class DisplacedOscillatorParams:
    """Harmonic oscillator of mass mu and frequency omega plus the term i*lam*x."""

    deformation: DeformationParams
    mu: float = 1.0
    omega: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if not self.mu > 0:
            raise DomainError(f"mu must be positive, got {self.mu}")
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")

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
            raise DomainError(f"level index must be non-negative, got {n}")
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
            raise DomainError(f"m must be positive, got {self.m}")
        if not self.omega > 0:
            raise DomainError(f"omega must be positive, got {self.omega}")
        drive = self.omega - self.lam - self.delta
        if drive == 0:
            raise DegenerateModelError("omega - lam - delta = 0 makes the momentum-space reduction singular")
        if drive < 0:
            raise UnsupportedRegimeError(
                f"omega - lam - delta = {drive} < 0 flips the energy-map orientation; not supported"
            )

    @property
    def drive(self) -> float:
        return self.omega - self.lam - self.delta

    @property
    def c1(self) -> float:
        """Asymmetry coefficient (delta-lam)/(hbar*omega*(omega-lam-delta))."""
        return (self.delta - self.lam) / (self.deformation.hbar * self.omega * self.drive)

    def family(self) -> "GupFamily":
        """sigma = c1 and ell = 0.

        The mass enters only through the affine eps<->E map; f, g, h are
        m-free because the ladder operators carry the whole 1/(2m) prefactor.
        """
        d = self.deformation
        hbar, gamma = d.hbar, d.gamma
        omega, drive, c1 = self.omega, self.drive, self.c1
        return GupFamily(
            deformation=d,
            sigma=c1,
            ell=0.0,
            a=(omega + self.lam + self.delta) / (hbar**2 * omega**2 * drive) - 2.0 * gamma * c1 - gamma**2,
            c=-(c1 + 1.0 / (hbar * drive) + gamma),
            energy_map=EnergyMap(scale=2.0 / (hbar * self.m * omega * drive), offset=-1.0 / (hbar * self.m * drive)),
        )

    @property
    def _t(self) -> float:
        """t = hbar m omega beta (omega - lam - delta)/2, the coefficient of n^2 in E_n."""
        d = self.deformation
        return d.hbar * self.m * self.omega * d.beta * self.drive / 2.0

    def energy(self, n: int) -> complex:
        """Closed-form E_n; complex (conjugate-pair member) past the reality threshold.

        Returns a real float when the square-root argument is non-negative and a
        complex value (principal branch, positive imaginary part) otherwise.
        """
        if n < 0:
            raise DomainError(f"level index must be non-negative, got {n}")
        arg = swanson_reality_margin(self)
        quad = self._t * (n * n + n + 0.5)
        if arg >= 0:
            return quad + (n + 0.5) * np.sqrt(arg)
        return quad + (n + 0.5) * 1j * np.sqrt(-arg)

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
            raise ConstraintViolatedError(
                f"omega - 2*sqrt(lam*delta) = {head} <= 0: reality fails for every beta"
            )
        return 2.0 * head / (self.m * self.deformation.hbar * self.omega * self.drive)


def swanson_reality_margin(params: SwansonParams) -> float:
    """Left side of the reality constraint (omega - t)^2 - 4 lam delta; >= 0 iff the spectrum is real."""
    return (params.omega - params._t) ** 2 - 4.0 * params.lam * params.delta


@dataclass(frozen=True)
class DerivedSpectralParams:
    """Ladder constant A, sec^2 strength nu and additive offset.

    For parameters past the reality threshold ``a_const`` is complex
    (principal branch); below it it is real.
    """

    a_const: complex
    nu: float
    offset: float

    @property
    def is_real(self) -> bool:
        return abs(np.imag(self.a_const)) == 0.0


def gup_q_map_hint(deformation: DeformationParams) -> QMap:
    """Closed-form q-map for f = (1+beta*p^2)^2: the map of ``DeformationParams``."""
    d = deformation
    return QMap(q_of_p=d.q_of_p, p_of_q=d.p_of_q, q_min=-d.q_half, q_max=d.q_half)


# --------------------------------------------------------------------------
# eigenfunctions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Wavefunction:
    """Closed-form eigenfunction N * exp(a1*q(p)) * (1+beta*p^2)^a2 * P_n^(alpha,alpha)(z(p)).

    Here q(p) is the q-map of ``DeformationParams`` and the Jacobi argument
    is z = sqrt(beta) p/sqrt(1+beta*p^2), what the transformation pipeline
    produces.  First and second derivatives are analytic (chain rule
    plus the Jacobi parameter-shift derivative), as required by the
    ODE-residual check.
    """

    n: int
    beta: float
    a1: float
    a2: float
    alpha: float
    energy: complex = np.nan
    epsilon: float = np.nan
    norm: float = 1.0

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"level index must be non-negative, got {self.n}")
        if self.beta <= 0:
            raise DomainError("closed-form eigenfunctions require beta > 0")

    def _z(self, p, w):
        sqb = np.sqrt(self.beta)
        return sqb * p / np.sqrt(w), sqb * w ** (-1.5), -3.0 * self.beta * sqb * p * w ** (-2.5)

    def _jacobi(self, z):
        n, a = self.n, self.alpha
        pn = jacobi_eval(n, a, a, z)
        dpn = 0.5 * (n + 2 * a + 1) * jacobi_eval(n - 1, a + 1, a + 1, z) if n >= 1 else np.zeros_like(z)
        d2pn = (
            0.25 * (n + 2 * a + 1) * (n + 2 * a + 2) * jacobi_eval(n - 2, a + 2, a + 2, z)
            if n >= 2
            else np.zeros_like(z)
        )
        return pn, dpn, d2pn

    def _pieces(self, p):
        p = np.asarray(p, dtype=float)
        w = 1.0 + self.beta * p**2
        log_env = self.a1 * DeformationParams(beta=self.beta).q_of_p(p) + self.a2 * np.log(w)
        dlog = (self.a1 + 2.0 * self.a2 * self.beta * p) / w
        d2log = (2.0 * self.a2 * self.beta * w - (self.a1 + 2.0 * self.a2 * self.beta * p) * 2.0 * self.beta * p) / w**2
        env = self.norm * np.exp(log_env)
        z, dz, d2z = self._z(p, w)
        pn, dpn, d2pn = self._jacobi(z)
        return env, dlog, d2log, pn, dpn, d2pn, dz, d2z

    def __call__(self, p):
        env, _, _, pn, _, _, _, _ = self._pieces(p)
        return env * pn

    def derivative(self, p):
        env, dlog, _, pn, dpn, _, dz, _ = self._pieces(p)
        return env * (dlog * pn + dz * dpn)

    def second_derivative(self, p):
        env, dlog, d2log, pn, dpn, d2pn, dz, d2z = self._pieces(p)
        return env * ((dlog**2 + d2log) * pn + (2.0 * dlog * dz + d2z) * dpn + dz**2 * d2pn)


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
        """Momentum-space ODE coefficients with analytic derivatives."""
        beta, kappa, ell = self.deformation.beta, self.kappa, self.ell
        a, c = self.a, self.c
        b = -2.0 * ell * (self.deformation.gamma + self.sigma)  # kappa - beta, without the rounding

        def f(p):
            return (1.0 + beta * p**2) ** 2

        def df(p):
            return 4.0 * beta * p * (1.0 + beta * p**2)

        def d2f(p):
            return 4.0 * beta * (1.0 + 3.0 * beta * p**2)

        def g(p):
            return -2.0 * (1.0 + beta * p**2) * (kappa * p + ell)

        def dg(p):
            return -2.0 * kappa * (1.0 + 3.0 * beta * p**2) - 4.0 * beta * ell * p

        def h(p):
            return a * p**2 + b * p + c * (1.0 + beta * p**2)

        return CoefficientSet(f=f, df=df, d2f=d2f, g=g, dg=dg, h=h, energy_map=self.energy_map)

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

    def spectral(self) -> DerivedSpectralParams:
        """nu = (kappa (kappa - beta) + a + beta c)/beta, offset = ell^2 + kappa - beta + c - nu, and A.

        Past the reality threshold 1 + 4 nu/beta turns negative and A becomes
        complex (principal branch); callers that need real bound states must
        check ``is_real``.
        """
        d = self.deformation
        beta = d.beta
        if beta <= 0:
            raise DomainError("spectral ladder parameters require beta > 0")
        tilt = d.gamma + self.sigma  # kappa - beta
        nu = (tilt * self.kappa + self.a + beta * self.c) / beta
        offset = self.ell**2 - nu + (tilt + self.c)
        root = np.sqrt(complex(beta + 4.0 * nu))
        a_const = 0.5 * (np.sqrt(beta) + root)
        if root.imag == 0:
            a_const = a_const.real
        return DerivedSpectralParams(a_const=a_const, nu=nu, offset=offset)

    def transform(self) -> TransformedProblem:
        """Schrodinger form using the closed-form q-map."""
        return pct.transform(self.coefficients(), gup_q_map_hint(self.deformation))

    def epsilon_levels(self) -> Callable:
        """n -> eps_n = (A + n sqrt(beta))^2 + offset: the sec^2 ladder plus the potential offset.

        A complex A (nu < -beta/4, fall to centre) has no real bound-state ladder and is refused.
        """
        sp = self.spectral()
        if not sp.is_real:
            raise UnsupportedRegimeError(f"nu={sp.nu} < -beta/4: no real bound-state ladder")
        sqb = np.sqrt(self.deformation.beta)
        return lambda n: (sp.a_const + np.asarray(n) * sqb) ** 2 + sp.offset

    def metric(self) -> Callable:
        """Metric eta(p) = (1+beta*p^2)^(sigma/beta) * exp(2*ell*q(p)), q the q-map.

        Checked against the generic formula before it is returned.
        """
        d = self.deformation
        if d.beta <= 0:
            raise DomainError("the closed-form metric requires beta > 0")
        exponent, ell = self.sigma / d.beta, self.ell

        def eta(p):
            p = np.asarray(p, dtype=float)
            return (1.0 + d.beta * p**2) ** exponent * np.exp(2.0 * ell * d.q_of_p(p))

        _assert_generic_agreement(eta, d, self.log_rho())
        return eta

    def wavefunction(self, n: int, energy: complex) -> Wavefunction:
        """Unnormalized eigenfunction with a1 = -ell and alpha = B - 1/2, B = A/sqrt(beta).

        The canonical form rho(p) * phi_n(q(p)) has a2 = -(gamma + sigma)/(2 beta) - B/2.
        Only defined below the reality threshold.
        """
        beta = self.deformation.beta
        if beta <= 0:
            raise DomainError("closed-form eigenfunctions require beta > 0")
        sp = self.spectral()
        if not sp.is_real:
            raise ComplexSpectrumError(
                "beta is at or past the reality threshold; bound-state eigenfunctions are not real-parameter Jacobi forms"
            )
        big_b = float(np.real(sp.a_const)) / np.sqrt(beta)
        return Wavefunction(
            n=n,
            beta=beta,
            a1=-self.ell,
            a2=-(self.deformation.gamma + self.sigma) / (2.0 * beta) - big_b / 2.0,
            alpha=big_b - 0.5,
            energy=energy,
            epsilon=float(self.epsilon_levels()(n)),
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


def wavefunction(n: int, params, normalize: bool = True) -> Wavefunction:
    """Canonical eigenfunction rho(p) * phi_n(q(p)), metric-normalized by default."""
    family = params.family()
    wave = family.wavefunction(n, params.energy(n))
    if not normalize:
        return wave
    norm2 = eta_inner(wave, wave, family.metric(), params.deformation).real
    if not np.isfinite(norm2) or norm2 <= 0:
        raise DivergenceError(f"eigenfunction has no finite positive metric norm (got {norm2})")
    return dataclasses.replace(wave, norm=wave.norm / np.sqrt(norm2))


def swanson_beta_c(params: SwansonParams) -> Optional[float]:
    """Critical deformation of the Swanson model; see ``SwansonParams.beta_c``."""
    return params.beta_c()


# Per-model names, kept for callers; both models share one implementation.
displaced_coefficients = swanson_coefficients = coefficients
displaced_transform = swanson_transform = transform
displaced_metric = swanson_metric = metric
displaced_energy = swanson_energy = energy
displaced_wavefunction = swanson_wavefunction = wavefunction


# --------------------------------------------------------------------------
# generic metric path
# --------------------------------------------------------------------------

def generic_metric(deformation: DeformationParams, log_rho: Callable) -> Callable:
    """Generic metric (1+beta*p^2)^(-gamma/beta) * exp(-2 * Re int chi).

    ``log_rho`` is the (real) integral of chi; for both models it has a
    closed form, so this path is exact and serves as an independent check on
    the model-specific formulas.
    """
    beta, gamma = deformation.beta, deformation.gamma
    if beta <= 0:
        raise DomainError("the generic metric requires beta > 0")

    def eta(p):
        p = np.asarray(p, dtype=float)
        return (1.0 + beta * p**2) ** (-gamma / beta) * np.exp(-2.0 * np.real(log_rho(p)))

    return eta


def _assert_generic_agreement(metric: Callable, deformation: DeformationParams, log_rho: Callable):
    generic = generic_metric(deformation, log_rho)
    p = np.linspace(-7.0, 7.0, 11)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed metric gives a NaN rel, refused below
        a, b = metric(p), generic(p)
        rel = np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300))
    if not rel <= 1e-10:  # also refuses NaN, which compares False
        raise ConstraintViolatedError(f"closed-form metric disagrees with the generic formula (rel {rel:.2e})")
