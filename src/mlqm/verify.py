"""Falsifiable numerical checks of the structural claims.

Every check returns a ResidualReport whose pass flag is exactly
``value <= tolerance``; all tolerances live in one table.  Checks that must
EXCEED a floor (a genuinely non-Hermitian operator, a discriminating wrong
metric) are phrased as shortfall-below-floor with tolerance 0, so the same
invariant applies; their records also carry the measured value and the
floor.  The operator checks work band by band on the (5, N) numpy band
array of ``p_space_operator``, and the p-space modes come from the
theta-axis collocation solve, so no check loads SciPy.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .algebra import DeformationParams, GridFunction, MomentumGrid
from .eigensolver import BAND_OFFSETS, solve_p_space, theta_modes
from .errors import DegenerateMeasureError, ResolutionError
from .inner import QuadratureSpec, _leggauss, eta_inner
from .models import DisplacedOscillatorParams, SwansonParams
from .pct import CoefficientSet

#: Single source of truth for every residual budget in the suite.
TOLERANCES = {
    "commutator-residual": 1e-6,
    "pseudo-hermiticity": 1e-6,
    "hermiticity-defect": 0.0,  # shortfall below the 1e-2 floor
    "metric-discrimination": 0.0,  # shortfall below the 1e-2 floor
    "gram-identity": 1e-7,
    "gram-without-metric": 0.0,  # shortfall below the 1e-3 floor
    "ode-residual": 1e-8,
    "ode-fault-detection": 0.0,  # shortfall below the 1e-3 floor
    "gamma-independence": 1e-6,
}

HERMITICITY_DEFECT_FLOOR = 1e-2
METRIC_DISCRIMINATION_FLOOR = 1e-2
GRAM_WITHOUT_METRIC_FLOOR = 1e-3
ODE_FAULT_FLOOR = 1e-3

#: Low-lying modes spanning the subspace of the projected exceed-checks.
PROJECTION_MODES = 8
#: Share of a projection mode's measure-weighted squared norm beyond the box,
#: |p| > p_max, above which the box cuts the mode off and the projected checks
#: are refused.  Swanson bound states decay only polynomially in p; on
#: desk-scale boxes they leave about 1e-6 there.
_SPURIOUS_EDGE_RATIO = 1e-4
#: Gauss-Legendre nodes on each of the three theta intervals of that share.
_SHARE_NODES = 128
#: q-uniform sample count of the ODE residual.
ODE_SAMPLES = 1000


@dataclass(frozen=True)
class ResidualReport:
    """One named check: pass iff value <= tolerance."""

    name: str
    value: float
    tolerance: float
    context: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance

    def to_record(self, params: dict | None = None, grid: dict | None = None) -> dict:
        """JSON record; an exceed-check also carries the measured value and its floor, a skipped check its reason."""
        record = {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "params": dict(params or self.context.get("params", {})),
            "grid": dict(grid or self.context.get("grid", {})),
        }
        if "floor" in self.context:
            record.update(measured=self.context["measured"], floor=self.context["floor"])
        if "skipped" in self.context:
            record["skipped"] = self.context["skipped"]
        return record


def _exceed_report(name: str, measured: float, floor: float, context: dict) -> ResidualReport:
    """Phrase 'measured must exceed floor' as shortfall <= 0; a NaN measurement stays NaN and fails."""
    ctx = dict(context)
    ctx.update({"measured": float(measured), "floor": float(floor)})
    shortfall = floor - float(measured)
    value = 0.0 if shortfall <= 0 else shortfall
    return ResidualReport(name=name, value=value, tolerance=TOLERANCES[name], context=ctx)


def _shifted(x: np.ndarray, k: int) -> np.ndarray:
    """x[i + k] at each index i of the first axis, zero where i + k falls off the grid."""
    out = np.zeros_like(x)
    n = len(x)
    if k >= 0:
        out[: n - k] = x[k:]
    else:
        out[-k:] = x[: n + k]
    return out


def _apply(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x for a band array H and a vector or a matrix x of columns."""
    return sum((row if x.ndim == 1 else row[:, None]) * _shifted(x, k) for row, k in zip(bands, BAND_OFFSETS))


def _similar(bands: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The bands of E H E^-1, E = diag(e)."""
    return np.stack([row * e * _shifted(1.0 / e, k) for row, k in zip(bands, BAND_OFFSETS)])


def _measure(params: DeformationParams, grid: MomentumGrid) -> np.ndarray:
    w = params.measure_weight(grid.points)
    if np.any(w == 0):
        raise DegenerateMeasureError("measure weight vanishes at a grid node")
    return w


def adjoint_under_weight(hmat: np.ndarray, params: DeformationParams, grid: MomentumGrid) -> np.ndarray:
    """Adjoint with respect to the deformed measure, W^-1 (conj H)^T W, of a band array H.

    W is the diagonal of measure weights at the nodes; the uniform trapezoid
    spacing factor cancels between W and its inverse.  Element (i, i + k) of
    the adjoint is (1/w[i]) conj H[i + k, i] w[i + k], so the result is again
    a band array.
    """
    w = _measure(params, grid)
    return np.stack([(1.0 / w) * _shifted(hmat[2 - k].conj(), k) * _shifted(w, k) for k in BAND_OFFSETS])


def hermiticity_defect(hmat: np.ndarray, params: DeformationParams, grid: MomentumGrid) -> float:
    """Raw relative Frobenius defect ||H_adj - H|| / ||H||."""
    hadj = adjoint_under_weight(hmat, params, grid)
    return float(np.linalg.norm(hadj - hmat) / np.linalg.norm(hmat))


def _tail_share(modes, params: DeformationParams, p_max: float) -> np.ndarray:
    """Share of each mode's measure-weighted squared norm at |p| > p_max, by Gauss-Legendre on theta.

    On theta = arctan(sqrt(beta) p) the measure (1 + beta p^2)^(gamma/beta - 1) dp
    is cos(theta)^(-2 gamma/beta) dtheta/sqrt(beta).
    """
    x, wq = _leggauss(_SHARE_NODES)
    edge = np.sqrt(params.beta) * params.q_of_p(p_max)

    def norm2(lo, hi):
        theta = lo + (hi - lo) * (x + 1.0) / 2.0
        density = np.abs(modes(theta)) ** 2 * (np.cos(theta) ** (-2.0 * params.gamma / params.beta))[:, None]
        return (hi - lo) / 2.0 * (wq @ density)

    tail = norm2(edge, np.pi / 2) + norm2(-np.pi / 2, -edge)
    return tail / (tail + norm2(-edge, edge))


def _low_mode_basis(coeffs: CoefficientSet, params: DeformationParams, grid: MomentumGrid,
                    n_modes: int = PROJECTION_MODES) -> np.ndarray:
    """The n_modes lowest theta-axis modes at the grid points, one column each.

    A mode with more than _SPURIOUS_EDGE_RATIO of its measure-weighted squared
    norm beyond the grid's |p| is cut off by the box, so ResolutionError asks
    for a larger box instead of returning it.
    """
    modes = theta_modes(coeffs, params, n_modes)
    inside = _tail_share(modes, params, grid.p_max) <= _SPURIOUS_EDGE_RATIO
    if not inside.all():  # a NaN share compares False, so it is refused too
        beyond = n_modes - int(np.count_nonzero(inside))
        raise ResolutionError(
            f"{beyond} of the {n_modes} lowest p-space modes hold more than {_SPURIOUS_EDGE_RATIO:g} of their "
            f"norm beyond |p| = {grid.p_max:g}; enlarge the grid"
        )
    return modes(np.sqrt(params.beta) * params.q_of_p(grid.points))


def _project(bands: np.ndarray, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    gram = basis.conj().T @ (w[:, None] * basis)
    return np.linalg.solve(gram, basis.conj().T @ (w[:, None] * _apply(bands, basis)))


def _projected_pair(hmat, other, coeffs: CoefficientSet, params: DeformationParams, grid: MomentumGrid):
    """``other`` and H_adj projected onto the low-mode subspace with the weighted Gram matrix."""
    w = _measure(params, grid)
    basis = _low_mode_basis(coeffs, params, grid)
    return _project(other, basis, w), _project(adjoint_under_weight(hmat, params, grid), basis, w)


def projected_hermiticity_defect(hmat: np.ndarray, coeffs: CoefficientSet, params: DeformationParams,
                                 grid: MomentumGrid) -> float:
    """Hermiticity defect restricted to the low-lying bound-state subspace.

    The raw Frobenius defect is dominated by the huge high-|p| entries of
    the discretized operator, which shrink as O(spacing) and dilute the
    physical non-Hermiticity; projecting H and its adjoint onto the lowest
    bound modes (weighted Gram) measures the defect where it matters.
    """
    hk, hk_adj = _projected_pair(hmat, hmat, coeffs, params, grid)
    return float(np.linalg.norm(hk - hk_adj) / np.linalg.norm(hk))


def hermiticity_defect_report(hmat: np.ndarray, coeffs: CoefficientSet, params: DeformationParams,
                              grid: MomentumGrid) -> ResidualReport:
    """Exceed-check: the operator must be genuinely non-Hermitian (defect > 1e-2)."""
    measured = projected_hermiticity_defect(hmat, coeffs, params, grid)
    return _exceed_report("hermiticity-defect", measured, HERMITICITY_DEFECT_FLOOR, {})


def pseudo_hermiticity_residual(hmat: np.ndarray, eta, params: DeformationParams, grid: MomentumGrid) -> ResidualReport:
    """Relative Frobenius residual of  E H E^-1 - H_adj  with E = diag(eta)."""
    e = np.asarray(eta(grid.points), dtype=float)
    hadj = adjoint_under_weight(hmat, params, grid)
    value = float(np.linalg.norm(_similar(hmat, e) - hadj) / np.linalg.norm(hmat))
    return ResidualReport(name="pseudo-hermiticity", value=value, tolerance=TOLERANCES["pseudo-hermiticity"])


def metric_discrimination_report(
    hmat: np.ndarray, coeffs: CoefficientSet, wrong_eta, params: DeformationParams, grid: MomentumGrid
) -> ResidualReport:
    """Exceed-check: a wrong metric must leave a visible residual (> 1e-2).

    Like the Hermiticity defect, the raw Frobenius residual of a wrong
    metric is diluted by discretization, so the comparison happens on the
    low-lying mode subspace.
    """
    e = np.asarray(wrong_eta(grid.points), dtype=float)
    lk, hk_adj = _projected_pair(hmat, _similar(hmat, e), coeffs, params, grid)
    measured = np.linalg.norm(lk - hk_adj) / np.linalg.norm(hk_adj)
    return _exceed_report("metric-discrimination", measured, METRIC_DISCRIMINATION_FLOOR, {})


def gram_matrix(states, eta, params: DeformationParams, spec: QuadratureSpec = QuadratureSpec()):
    """Gram matrix G[m,n] = <psi_m|psi_n>_eta and the ||G - I||_max report."""
    k = len(states)
    gram = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            val = eta_inner(states[i], states[j], eta, params, spec)
            gram[i, j] = val
            gram[j, i] = np.conj(val)
    value = float(np.max(np.abs(gram - np.eye(k))))
    report = ResidualReport(name="gram-identity", value=value, tolerance=TOLERANCES["gram-identity"])
    return gram, report


def gram_without_metric_report(states, params: DeformationParams,
                               spec: QuadratureSpec = QuadratureSpec()) -> ResidualReport:
    """Exceed-check: without eta some off-diagonal element must exceed 1e-3."""
    k = len(states)
    worst = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            worst = max(worst, abs(eta_inner(states[i], states[j], None, params, spec)))
    return _exceed_report("gram-without-metric", worst, GRAM_WITHOUT_METRIC_FLOOR, {})


def ode_residual(psi, coeffs: CoefficientSet, epsilon: float) -> ResidualReport:
    """Max-norm residual of -f psi'' + g psi' + h psi - eps psi on a q-uniform sample.

    ``psi`` must expose analytic ``derivative`` and ``second_derivative``
    (the closed-form eigenfunctions do); sampling is uniform in q so the
    whole box is probed without chasing p to infinity.
    """
    d = DeformationParams(beta=psi.beta)
    q = np.linspace(-0.999 * d.q_half, 0.999 * d.q_half, ODE_SAMPLES)
    p = d.p_of_q(q)
    vals = psi(p)
    resid = (
        -coeffs.f(p) * psi.second_derivative(p)
        + coeffs.g(p) * psi.derivative(p)
        + coeffs.h(p) * vals
        - epsilon * vals
    )
    value = float(np.max(np.abs(resid)) / np.max(np.abs(vals)))
    return ResidualReport(name="ode-residual", value=value, tolerance=TOLERANCES["ode-residual"])


def ode_fault_detection_report(psi, coeffs: CoefficientSet, epsilon: float) -> ResidualReport:
    """Exceed-check: shifting eps by 0.1 must push the residual above 1e-3."""
    shifted = ode_residual(psi, coeffs, epsilon + 0.1)
    return _exceed_report("ode-fault-detection", shifted.value, ODE_FAULT_FLOOR, {})


def gamma_independence(params, gamma_values, n_levels: int) -> ResidualReport:
    """Spread of numeric p-space E_n across gamma values, relative to |E_n|.

    The closed-form spectra contain no gamma; the p-space solver sees gamma
    through g and h, so agreement across gamma values is a genuine check,
    not a tautology.
    """
    if not isinstance(params, (DisplacedOscillatorParams, SwansonParams)):
        raise TypeError(f"unsupported model type {type(params).__name__}")
    energies = []
    for gamma in gamma_values:
        deformation = dataclasses.replace(params.deformation, gamma=gamma)
        coeffs = dataclasses.replace(params, deformation=deformation).family().coefficients()
        result = solve_p_space(coeffs, deformation, n_levels)
        energies.append(coeffs.energy_map.energy(result.real_parts))
    energies = np.array(energies)  # shape (n_gamma, n_levels)
    spread = energies.max(axis=0) - energies.min(axis=0)
    scale = np.maximum(1.0, np.abs(energies).max(axis=0))
    value = float(np.max(spread / scale))
    return ResidualReport(
        name="gamma-independence",
        value=value,
        tolerance=TOLERANCES["gamma-independence"],
        context={"gamma_values": list(map(float, gamma_values)), "collocation_points": result.resolution},
    )


def commutator_report(params: DeformationParams, phi: GridFunction) -> ResidualReport:
    """Wrap the algebra-level commutator residual as a standard report."""
    from .algebra import commutator_residual

    value = commutator_residual(params, phi)
    return ResidualReport(name="commutator-residual", value=value, tolerance=TOLERANCES["commutator-residual"])
