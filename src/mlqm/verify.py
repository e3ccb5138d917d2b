"""Falsifiable numerical checks of the structural claims.

Every check returns a ResidualReport whose pass flag is exactly
``value <= tolerance``; all tolerances live in one table.  Checks that must
EXCEED a floor (a genuinely non-Hermitian operator, a discriminating wrong
metric) are phrased as shortfall-below-floor with tolerance 0, so the same
invariant applies; their records also carry the measured value and the
floor.  ``scipy.sparse`` is imported in the checks that use it,
so ``verify --list``, which runs none, never loads SciPy.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .algebra import DeformationParams, GridFunction, MomentumGrid
from .eigensolver import _edge_guarded_modes, p_space_operator, solve_p_space
from .errors import DegenerateMeasureError
from .inner import QuadratureSpec, eta_inner
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
        """JSON record; an exceed-check also carries the measured value and its floor."""
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
        return record


def _exceed_report(name: str, measured: float, floor: float, context: dict) -> ResidualReport:
    """Phrase 'measured must exceed floor' as shortfall <= 0; a NaN measurement stays NaN and fails."""
    ctx = dict(context)
    ctx.update({"measured": float(measured), "floor": float(floor)})
    shortfall = floor - float(measured)
    value = 0.0 if shortfall <= 0 else shortfall
    return ResidualReport(name=name, value=value, tolerance=TOLERANCES[name], context=ctx)


def _frobenius(m) -> float:
    """Frobenius norm of a dense or sparse matrix."""
    from scipy.sparse import issparse, linalg as sparse_linalg
    return float(sparse_linalg.norm(m) if issparse(m) else np.linalg.norm(m))


def adjoint_under_weight(hmat, params: DeformationParams, grid: MomentumGrid):
    """Adjoint with respect to the deformed measure: W^-1 (conj H)^T W.

    W is the diagonal of measure weights at the nodes; the uniform trapezoid
    spacing factor cancels between W and its inverse.  A dense H gives a
    dense adjoint, a sparse H a sparse one with the same band structure.
    """
    from scipy.sparse import diags_array
    w = params.measure_weight(grid.points)
    if np.any(w == 0):
        raise DegenerateMeasureError("measure weight vanishes at a grid node")
    return diags_array(1.0 / w) @ hmat.conj().T @ diags_array(w)


def hermiticity_defect(hmat, params: DeformationParams, grid: MomentumGrid) -> float:
    """Raw relative Frobenius defect ||H_adj - H|| / ||H||."""
    hadj = adjoint_under_weight(hmat, params, grid)
    return _frobenius(hadj - hmat) / _frobenius(hmat)


def _low_mode_basis(hmat, n_modes: int, w: np.ndarray) -> np.ndarray:
    """The n_modes lowest eigenvectors, refused when one reaches the box edge in the w-weighted norm."""
    return _edge_guarded_modes(hmat, n_modes, w)[1]


def _project(op, basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    gram = basis.conj().T @ (w[:, None] * basis)
    return np.linalg.solve(gram, basis.conj().T @ (w[:, None] * (op @ basis)))


def projected_hermiticity_defect(hmat, params: DeformationParams, grid: MomentumGrid) -> float:
    """Hermiticity defect restricted to the low-lying bound-state subspace.

    The raw Frobenius defect is dominated by the huge high-|p| entries of
    the discretized operator, which shrink as O(spacing) and dilute the
    physical non-Hermiticity; projecting H and its adjoint onto the lowest
    bound modes (weighted Gram) measures the defect where it matters.
    """
    w = params.measure_weight(grid.points)
    if np.any(w == 0):
        raise DegenerateMeasureError("measure weight vanishes at a grid node")
    hadj = adjoint_under_weight(hmat, params, grid)
    basis = _low_mode_basis(hmat, PROJECTION_MODES, w)
    hk = _project(hmat, basis, w)
    hk_adj = _project(hadj, basis, w)
    return _frobenius(hk - hk_adj) / _frobenius(hk)


def hermiticity_defect_report(hmat, params: DeformationParams, grid: MomentumGrid) -> ResidualReport:
    """Exceed-check: the operator must be genuinely non-Hermitian (defect > 1e-2)."""
    measured = projected_hermiticity_defect(hmat, params, grid)
    return _exceed_report("hermiticity-defect", measured, HERMITICITY_DEFECT_FLOOR, {})


def pseudo_hermiticity_residual(hmat, eta, params: DeformationParams, grid: MomentumGrid) -> ResidualReport:
    """Relative Frobenius residual of  E H E^-1 - H_adj  with E = diag(eta)."""
    from scipy.sparse import diags_array
    e = np.asarray(eta(grid.points), dtype=float)
    hadj = adjoint_under_weight(hmat, params, grid)
    value = _frobenius(diags_array(e) @ hmat @ diags_array(1.0 / e) - hadj) / _frobenius(hmat)
    return ResidualReport(name="pseudo-hermiticity", value=value, tolerance=TOLERANCES["pseudo-hermiticity"])


def metric_discrimination_report(
    hmat, wrong_eta, params: DeformationParams, grid: MomentumGrid
) -> ResidualReport:
    """Exceed-check: a wrong metric must leave a visible residual (> 1e-2).

    Like the Hermiticity defect, the raw Frobenius residual of a wrong
    metric is diluted by discretization, so the comparison happens on the
    low-lying mode subspace.
    """
    from scipy.sparse import diags_array
    w = params.measure_weight(grid.points)
    e = np.asarray(wrong_eta(grid.points), dtype=float)
    hadj = adjoint_under_weight(hmat, params, grid)
    basis = _low_mode_basis(hmat, PROJECTION_MODES, w)
    lk = _project(diags_array(e) @ hmat @ diags_array(1.0 / e), basis, w)
    hk_adj = _project(hadj, basis, w)
    measured = _frobenius(lk - hk_adj) / _frobenius(hk_adj)
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
    beta = psi.beta
    sqb = np.sqrt(beta)
    q_half = np.pi / (2.0 * sqb)
    q = np.linspace(-0.999 * q_half, 0.999 * q_half, ODE_SAMPLES)
    p = np.tan(sqb * q) / sqb
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


def gamma_independence(
    params, gamma_values, n_levels: int, grid: MomentumGrid
) -> ResidualReport:
    """Spread of numeric p-space E_n across gamma values, relative to |E_n|.

    The closed-form spectra contain no gamma; the p-space solver sees gamma
    through g, h, and the measure, so agreement across gamma values is a
    genuine check, not a tautology.
    """
    if not isinstance(params, (DisplacedOscillatorParams, SwansonParams)):
        raise TypeError(f"unsupported model type {type(params).__name__}")
    energies = []
    for gamma in gamma_values:
        deformation = dataclasses.replace(params.deformation, gamma=gamma)
        coeffs = dataclasses.replace(params, deformation=deformation).family().coefficients()
        weight = deformation.measure_weight(grid.points)
        result = solve_p_space(p_space_operator(coeffs, grid), n_levels, weight=weight)
        energies.append(coeffs.energy_map.energy(result.real_parts))
    energies = np.array(energies)  # shape (n_gamma, n_levels)
    spread = energies.max(axis=0) - energies.min(axis=0)
    scale = np.maximum(1.0, np.abs(energies).max(axis=0))
    value = float(np.max(spread / scale))
    return ResidualReport(
        name="gamma-independence",
        value=value,
        tolerance=TOLERANCES["gamma-independence"],
        context={"gamma_values": list(map(float, gamma_values))},
    )


def commutator_report(params: DeformationParams, phi: GridFunction) -> ResidualReport:
    """Wrap the algebra-level commutator residual as a standard report."""
    from .algebra import commutator_residual

    value = commutator_residual(params, phi)
    return ResidualReport(name="commutator-residual", value=value, tolerance=TOLERANCES["commutator-residual"])
