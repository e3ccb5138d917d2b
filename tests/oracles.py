"""Independent references that only the tests use: adaptive quadrature of the PCT
integrals, the Hamiltonians composed literally from dense x and p matrices, and
the published (printed) eigenfunction."""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from mlqm.algebra import DeformationParams, MomentumGrid, first_derivative_matrix
from mlqm.models import DisplacedOscillatorParams, SwansonParams, Wavefunction

_QUAD_ABS_TOL = 1e-12


def _integral(fn, lo, hi):
    return quad(fn, lo, hi, epsabs=_QUAD_ABS_TOL, limit=200)[0]


def quadrature_q_map(coeffs):
    """q(p) = int_0^p dt/sqrt(f(t)) by adaptive quadrature, and the endpoints q(-inf), q(+inf)."""
    integrand = lambda t: 1.0 / np.sqrt(coeffs.f(t))
    q_of_p = np.vectorize(lambda p: _integral(integrand, 0.0, p), otypes=[float])
    return q_of_p, _integral(integrand, 0.0, -np.inf), _integral(integrand, 0.0, np.inf)


def quadrature_log_rho(coeffs, p):
    """log rho(p) = int_0^p chi by adaptive quadrature, chi = (f' + 2g)/(4f)."""
    return np.vectorize(lambda x: _integral(lambda t: float(coeffs.chi(t)), 0.0, x), otypes=[float])(p)


def position_kernel(params: DeformationParams, grid: MomentumGrid) -> np.ndarray:
    """Real matrix Y with x = i*Y, i.e. Y = hbar*[(1+beta*p^2) D1 + gamma*p]."""
    p = grid.points
    d1 = first_derivative_matrix(grid.n_points, grid.spacing)
    return params.hbar * ((1.0 + params.beta * p**2)[:, None] * d1 + np.diag(params.gamma * p))


def operator_hamiltonian(model, grid: MomentumGrid) -> np.ndarray:
    """Compose H literally from the position/momentum matrices on a symmetric grid.

    With x = i*Y and Y real, both model Hamiltonians assemble to real
    matrices: the displaced oscillator because i*lam*x = -lam*Y, the Swanson
    model because a and its adjoint become (P + omega*Y)/c and
    (P - omega*Y)/c.
    """
    assert grid.is_symmetric, "operator assembly requires a symmetric grid"
    p = grid.points
    y = position_kernel(model.deformation, grid)
    if isinstance(model, DisplacedOscillatorParams):
        return np.diag(p**2 / (2.0 * model.mu)) - 0.5 * model.mu * model.omega**2 * (y @ y) - model.lam * y
    assert isinstance(model, SwansonParams), f"unsupported model type {type(model).__name__}"
    c = np.sqrt(2.0 * model.m * model.deformation.hbar * model.omega)
    a = (np.diag(p) + model.omega * y) / c
    ad = (np.diag(p) - model.omega * y) / c
    return (
        model.omega * (ad @ a) + model.lam * (a @ a) + model.delta * (ad @ ad)
        + (model.omega / 2.0) * np.eye(grid.n_points)
    )


@dataclass(frozen=True)
class PrintedWavefunction(Wavefunction):
    """The published eigenfunction: Jacobi argument z = sqrt(beta) p/(1+beta*p^2)."""

    def _z(self, p, w):
        sqb = np.sqrt(self.beta)
        return sqb * p / w, sqb * (1.0 - self.beta * p**2) / w**2, 2.0 * sqb * self.beta * p * (
            self.beta * p**2 - 3.0
        ) / w**3


def printed_wavefunction(family, n, energy) -> PrintedWavefunction:
    """The published form of ``family.wavefunction(n, energy)``: the power of 1+beta*p^2 carries the full -B."""
    wave = family.wavefunction(n, energy)
    big_b = wave.alpha + 0.5
    return PrintedWavefunction(**{**vars(wave), "a2": wave.a2 - big_b / 2.0})
