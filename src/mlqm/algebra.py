"""The deformed algebra's parameters, and its commutator checked on a momentum grid.

The commutator is deformed to [x, p] = i*hbar*(1 + beta*p**2).  In momentum
representation x acts as i*hbar*[(1 + beta*p**2) d/dp + gamma*p] and p acts
by multiplication.  There are no grid operators: the uniform momentum grid
serves only the commutator residual and the 4th-order central-difference
matrices that ``eigensolver.build_p_space_matrix`` assembles.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class DeformationParams:
    """Parameters hbar, beta, gamma of the deformed algebra.

    beta >= 0 sets the deformation (beta = 0 is the exact undeformed limit);
    gamma is a representation/measure parameter and must vanish when beta
    does, since the measure exponent gamma/beta is otherwise undefined.
    """

    hbar: float = 1.0
    beta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("hbar", "beta", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.hbar > 0:
            raise ConfigurationError(f"hbar must be positive, got {self.hbar}")
        if self.beta < 0:
            raise ConfigurationError(f"beta must be non-negative, got {self.beta}")
        if self.beta == 0 and self.gamma != 0:
            raise ConfigurationError("gamma must be 0 when beta is 0 (measure exponent gamma/beta undefined)")

    @property
    def min_length(self) -> float:
        """Minimal position uncertainty hbar*sqrt(beta)."""
        return self.hbar * np.sqrt(self.beta)

    def measure_weight(self, p):
        """Weight (1 + beta*p^2)^(gamma/beta - 1) of the deformed scalar product."""
        p = np.asarray(p, dtype=float)
        if self.beta == 0:
            return np.ones_like(p)
        return (1.0 + self.beta * p**2) ** (self.gamma / self.beta - 1.0)

    @property
    def q_half(self) -> float:
        """Half-width pi/(2 sqrt(beta)) of the q-box; infinite at beta = 0."""
        return np.pi / (2.0 * np.sqrt(self.beta)) if self.beta > 0 else np.inf

    def q_of_p(self, p):
        """q = arctan(sqrt(beta) p)/sqrt(beta), so dq = dp/(1+beta*p^2): all of p onto |q| < q_half.

        The identity at beta = 0.
        """
        p = np.asarray(p, dtype=float)
        if self.beta == 0:
            return p
        sqb = np.sqrt(self.beta)
        return np.arctan(sqb * p) / sqb

    def p_of_q(self, q):
        """The inverse map p = tan(sqrt(beta) q)/sqrt(beta); the identity at beta = 0.

        Within q_half/2 of a wall it is p = sign(q)/(sqrt(beta) tan(sqrt(beta) (q_half - |q|))), in which
        q_half - |q| is exact, so the pole sits at the box edge and p keeps its digits up to it: the
        rounding of sqrt(beta) q inside tan would cost p a relative eps q_half/(q_half - |q|).
        """
        q = np.asarray(q, dtype=float)
        if self.beta == 0:
            return q
        sqb = np.sqrt(self.beta)
        gap = self.q_half - np.abs(q)
        with np.errstate(divide="ignore"):  # p is infinite at the wall itself
            return np.where(gap < 0.5 * self.q_half, np.sign(q) / np.tan(sqb * gap), np.tan(sqb * q)) / sqb


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid on [p_min, p_max] with n_points samples."""

    p_min: float
    p_max: float
    n_points: int

    def __post_init__(self):
        if not self.p_min < self.p_max:
            raise ConfigurationError(f"need p_min < p_max, got [{self.p_min}, {self.p_max}]")
        if self.n_points < 3:
            raise ConfigurationError(f"need n_points >= 3, got {self.n_points}")

    @classmethod
    def symmetric(cls, p_max: float, n_points: int) -> "MomentumGrid":
        return cls(-p_max, p_max, n_points)

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n_points - 1)

    @property
    def is_symmetric(self) -> bool:
        return abs(self.p_min + self.p_max) <= 1e-12 * max(abs(self.p_min), abs(self.p_max))

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_points)


# 4th-order central stencils of d/dp and d^2/dp^2 on offsets -2 ... 2.
_D1_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_CENTRAL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _banded(n: int, stencil: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of a 5-point central stencil, out-of-range samples dropped."""
    m = np.zeros((n, n))
    idx = np.arange(n)
    for k, c in zip(range(-2, 3), stencil):
        mask = (idx + k >= 0) & (idx + k < n)
        m[idx[mask], idx[mask] + k] = c
    return m


def first_derivative_matrix(n: int, spacing: float) -> np.ndarray:
    """Dense 4th-order d/dp with Dirichlet closure (out-of-range samples dropped)."""
    return _banded(n, _D1_CENTRAL) / spacing


def second_derivative_matrix(n: int, spacing: float) -> np.ndarray:
    """Dense 4th-order d^2/dp^2 with Dirichlet closure."""
    return _banded(n, _D2_CENTRAL) / spacing**2


def commutator_residual(params: DeformationParams, grid: MomentumGrid, phi) -> float:
    """L2 norm of ([x,p] - i*hbar*(1+beta*p^2)) phi relative to |i*hbar*(1+beta*p^2) phi|, on the points 4 ... n-5.

    Measured against the commutator it checks, the value does not grow with
    hbar or beta.  x = i*hbar*[(1+beta*p^2) d/dp + gamma*p] takes d/dp from
    the central stencil, which reaches two points each side: x acts on the
    points 2 ... n-3, and x p phi - p x phi on 4 ... n-5.  The value is pure
    discretization error for smooth, decaying phi.
    """
    if grid.n_points < 9:
        raise ConfigurationError(f"need n_points >= 9 for an interior past both stencils, got {grid.n_points}")
    phi = np.asarray(phi, dtype=complex)
    p = grid.points
    inner = p[2:-2]
    c = _D1_CENTRAL

    def position(v):  # x v on the points 2 ... n-3
        dv = (c[0] * v[:-4] + c[1] * v[1:-3] + c[3] * v[3:-1] + c[4] * v[4:]) / grid.spacing
        return 1j * params.hbar * ((1.0 + params.beta * inner**2) * dv + params.gamma * inner * v[2:-2])

    commutator = (position(p * phi) - inner * position(phi))[2:-2]
    target = (1j * params.hbar * (1.0 + params.beta * p**2) * phi)[4:-4]
    return float(np.linalg.norm(commutator - target) / np.linalg.norm(target))
