"""Deformed position/momentum operators on momentum-space grids.

The commutator is deformed to [x, p] = i*hbar*(1 + beta*p**2).  In momentum
representation x acts as i*hbar*[(1 + beta*p**2) d/dp + gamma*p] and p acts
by multiplication.  Everything here works on uniformly sampled grid data;
derivatives are 4th-order finite differences (central in the interior,
one-sided at the edges).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidGridError


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
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.beta == 0 and self.gamma != 0:
            raise ValueError("gamma must be 0 when beta is 0 (measure exponent gamma/beta undefined)")

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
        """The inverse map p = tan(sqrt(beta) q)/sqrt(beta); the identity at beta = 0."""
        q = np.asarray(q, dtype=float)
        if self.beta == 0:
            return q
        sqb = np.sqrt(self.beta)
        return np.tan(sqb * q) / sqb


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid on [p_min, p_max] with n_points samples."""

    p_min: float
    p_max: float
    n_points: int

    def __post_init__(self):
        if not self.p_min < self.p_max:
            raise InvalidGridError(f"need p_min < p_max, got [{self.p_min}, {self.p_max}]")
        if self.n_points < 3:
            raise InvalidGridError(f"need n_points >= 3, got {self.n_points}")

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


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a wavefunction on a MomentumGrid."""

    grid: MomentumGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_points,):
            raise InvalidGridError(
                f"values shape {values.shape} does not match grid with {self.grid.n_points} points"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidGridError("GridFunction values must be finite")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: MomentumGrid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.points), dtype=complex))


# 4th-order first-derivative stencils: central plus one-sided edge closures.
_D1_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D1_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_D1_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
_D2_CENTRAL = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def differentiate(values: np.ndarray, spacing: float) -> np.ndarray:
    """4th-order first derivative of uniformly sampled data."""
    values = np.asarray(values)
    n = values.shape[0]
    if n < 5:
        raise InvalidGridError(f"need at least 5 points for the 4th-order stencil, got {n}")
    out = np.empty_like(values)
    c = _D1_CENTRAL
    out[2:-2] = (
        c[0] * values[:-4] + c[1] * values[1:-3] + c[3] * values[3:-1] + c[4] * values[4:]
    )
    out[0] = _D1_EDGE0 @ values[:5]
    out[1] = _D1_EDGE1 @ values[:5]
    out[-1] = -(_D1_EDGE0 @ values[-1:-6:-1])
    out[-2] = -(_D1_EDGE1 @ values[-1:-6:-1])
    return out / spacing


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


def apply_position(params: DeformationParams, phi: GridFunction) -> GridFunction:
    """Apply x = i*hbar*[(1+beta*p^2) d/dp + gamma*p] to grid samples."""
    if phi.grid.n_points < 5:
        raise InvalidGridError("apply_position needs n_points >= 5")
    p = phi.grid.points
    dphi = differentiate(phi.values, phi.grid.spacing)
    out = 1j * params.hbar * ((1.0 + params.beta * p**2) * dphi + params.gamma * p * phi.values)
    return GridFunction(phi.grid, out)


def apply_momentum(phi: GridFunction) -> GridFunction:
    """Apply p (multiplication by the grid coordinate)."""
    return GridFunction(phi.grid, phi.grid.points * phi.values)


def commutator_residual(params: DeformationParams, phi: GridFunction) -> float:
    """Discrete L2 norm of ([x,p] - i*hbar*(1+beta*p^2)) phi, relative to |phi|.

    Restricted to interior points so the one-sided edge stencils do not
    pollute the residual; the value is pure discretization error for smooth,
    decaying phi.
    """
    xp = apply_position(params, apply_momentum(phi))
    px = apply_momentum(apply_position(params, phi))
    p = phi.grid.points
    target = 1j * params.hbar * (1.0 + params.beta * p**2) * phi.values
    resid = xp.values - px.values - target
    sl = slice(4, -4)
    num = np.linalg.norm(resid[sl])
    den = np.linalg.norm(phi.values[sl])
    return float(num / den)

