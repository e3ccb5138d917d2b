"""Verification battery internals."""

import numpy as np
import pytest

from mlqm import (
    DeformationParams,
    DisplacedOscillatorParams,
    MomentumGrid,
    SwansonParams,
    TOLERANCES,
    adjoint_under_weight,
    displaced_metric,
    displaced_wavefunction,
    gamma_independence,
    gram_matrix,
    hermiticity_defect,
    ode_residual,
    p_space_operator,
    projected_hermiticity_defect,
    pseudo_hermiticity_residual,
    swanson_metric,
)
from mlqm.eigensolver import _dense
from mlqm.models import displaced_coefficients, swanson_coefficients
from mlqm.verify import (
    HERMITICITY_DEFECT_FLOOR,
    PROJECTION_MODES,
    ResidualReport,
    _low_mode_basis,
    _exceed_report,
    gram_without_metric_report,
    hermiticity_defect_report,
    metric_discrimination_report,
    ode_fault_detection_report,
)


def displaced_default(beta=0.1, gamma=0.0, lam=0.5):
    return DisplacedOscillatorParams(deformation=DeformationParams(1.0, beta, gamma), lam=lam)


def swanson_default(beta=0.5, lam=0.3, delta=0.1):
    return SwansonParams(deformation=DeformationParams(1.0, beta, 0.0), lam=lam, delta=delta)


class TestResidualReport:
    def test_pass_is_value_le_tolerance(self):
        assert ResidualReport("x", 1e-9, 1e-6).passed
        assert not ResidualReport("x", 1e-3, 1e-6).passed

    def test_to_record_shape(self):
        rec = ResidualReport("x", 0.5, 1.0).to_record(params={"beta": 0.1}, grid={"n": 10})
        assert rec == {
            "name": "x", "value": 0.5, "tolerance": 1.0, "pass": True,
            "params": {"beta": 0.1}, "grid": {"n": 10},
        }

    def test_nan_measurement_fails_exceed_check(self):
        # max(0, floor - nan) is 0, which would pass; the shortfall must stay NaN
        report = _exceed_report("hermiticity-defect", float("nan"), HERMITICITY_DEFECT_FLOOR, {})
        assert np.isnan(report.value) and not report.passed

    def test_tolerance_table_is_complete(self):
        for key in (
            "commutator-residual", "pseudo-hermiticity", "hermiticity-defect",
            "metric-discrimination", "gram-identity", "gram-without-metric",
            "ode-residual", "ode-fault-detection", "gamma-independence",
        ):
            assert key in TOLERANCES


def random_bands(rng, n):
    """A random complex (5, n) band array, zero where a band's column falls off the grid."""
    bands = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    for row, k in zip(bands, range(-2, 3)):
        row[: max(0, -k)] = 0.0
        row[n - max(0, k):] = 0.0
    return bands


class TestAdjoint:
    def test_involution(self):
        rng = np.random.default_rng(7)
        grid = MomentumGrid.symmetric(5.0, 64)
        d = DeformationParams(1.0, 0.3, 0.1)
        h = random_bands(rng, 64)
        hadj = adjoint_under_weight(h, d, grid)
        assert np.allclose(adjoint_under_weight(hadj, d, grid), h)

    def test_reduces_to_conjugate_transpose_at_beta_zero(self):
        rng = np.random.default_rng(8)
        grid = MomentumGrid.symmetric(5.0, 32)
        h = random_bands(rng, 32)
        assert np.allclose(_dense(adjoint_under_weight(h, DeformationParams(), grid)), _dense(h).conj().T)


class TestHermiticityDefect:
    def test_hermitian_limit_has_zero_defect(self):
        params = displaced_default(lam=0.0)
        grid = MomentumGrid.symmetric(20.0, 400)
        h = p_space_operator(displaced_coefficients(params), grid)
        assert hermiticity_defect(h, params.deformation, grid) < 1e-12

    def test_projected_defect_sees_the_non_hermiticity(self):
        params = displaced_default(lam=0.5)
        grid = MomentumGrid.symmetric(30.0, 900)
        coeffs = displaced_coefficients(params)
        h = p_space_operator(coeffs, grid)
        raw = hermiticity_defect(h, params.deformation, grid)
        projected = projected_hermiticity_defect(h, coeffs, params.deformation, grid)
        # the raw Frobenius norm dilutes the defect by the grid weight of the
        # huge kinetic entries; the subspace projection does not
        assert projected > 10.0 * raw
        assert projected > 0.1
        report = hermiticity_defect_report(h, coeffs, params.deformation, grid)
        assert report.passed  # shortfall below floor is zero


class TestPseudoHermiticity:
    def test_correct_metric_residual_is_tiny(self):
        params = displaced_default()
        grid = MomentumGrid.symmetric(30.0, 900)
        h = p_space_operator(displaced_coefficients(params), grid)
        report = pseudo_hermiticity_residual(h, displaced_metric(params), params.deformation, grid)
        assert report.value < 1e-8 and report.passed

    def test_swanson_metric_residual_is_tiny(self):
        params = swanson_default()
        grid = MomentumGrid.symmetric(30.0, 900)
        h = p_space_operator(swanson_coefficients(params), grid)
        report = pseudo_hermiticity_residual(h, swanson_metric(params), params.deformation, grid)
        assert report.value < 1e-8 and report.passed

    def test_wrong_metric_is_discriminated(self):
        params = displaced_default()
        grid = MomentumGrid.symmetric(30.0, 900)
        coeffs = displaced_coefficients(params)
        h = p_space_operator(coeffs, grid)
        # a Swanson-shaped metric is wrong for the displaced model
        wrong = lambda p: (1.0 + 0.1 * np.asarray(p, dtype=float) ** 2) ** (-1.0)
        report = metric_discrimination_report(h, coeffs, wrong, params.deformation, grid)
        assert report.passed
        assert report.context["measured"] > 0.1


class TestGram:
    def test_identity_with_metric(self):
        params = displaced_default()
        states = [displaced_wavefunction(n, params) for n in range(4)]
        gram, report = gram_matrix(states, displaced_metric(params), params.deformation)
        assert report.value < 1e-10 and report.passed
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    def test_off_diagonals_without_metric(self):
        params = displaced_default()
        states = [displaced_wavefunction(n, params) for n in range(4)]
        report = gram_without_metric_report(states, params.deformation)
        assert report.passed
        assert report.context["measured"] > 1e-3


class TestOdeChecks:
    def test_fault_detection(self):
        params = displaced_default()
        psi = displaced_wavefunction(0, params)
        coeffs = displaced_coefficients(params)
        assert ode_residual(psi, coeffs, psi.epsilon).value < 1e-10
        report = ode_fault_detection_report(psi, coeffs, psi.epsilon)
        assert report.passed
        assert report.context["measured"] > 1e-3


class TestGammaIndependence:
    def test_displaced_spread_is_below_tolerance(self):
        params = displaced_default()
        report = gamma_independence(params, (0.0, 0.05, 0.1), 4)
        assert report.value < 1e-6 and report.passed

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError, match="unsupported model type object"):
            gamma_independence(object(), (0.0,), 2)


@pytest.mark.parametrize(
    "params, coefficients, metric",
    [
        (displaced_default(), displaced_coefficients, displaced_metric),
        (swanson_default(beta=0.4, lam=0.28, delta=0.12), swanson_coefficients, swanson_metric),
    ],
    ids=["displaced", "swanson"],
)
def test_band_checks_match_the_dense_oracle(params, coefficients, metric):
    # the operator checks run band by band; the same algebra on the dense N x N
    # matrices, written out here, must give the same values and verdicts
    grid = MomentumGrid.symmetric(30.0, 1200)
    d = params.deformation
    coeffs = coefficients(params)
    bands = p_space_operator(coeffs, grid)
    dense = _dense(bands)
    w = d.measure_weight(grid.points)
    adj = (dense.conj().T * w[None, :]) / w[:, None]  # W^-1 H^T W
    assert np.allclose(_dense(adjoint_under_weight(bands, d, grid)), adj, rtol=1e-12, atol=0.0)

    wrong = lambda p: (1.0 + 0.1 * np.asarray(p, dtype=float) ** 2) ** (-1.0)
    e, e_wrong = metric(params)(grid.points), wrong(grid.points)
    basis = _low_mode_basis(coeffs, d, grid)
    assert basis.shape == (grid.n_points, PROJECTION_MODES)

    def project(m):
        gram = basis.conj().T @ (w[:, None] * basis)
        return np.linalg.solve(gram, basis.conj().T @ (w[:, None] * (m @ basis)))

    hk, hk_adj = project(dense), project(adj)
    lk = project((e_wrong[:, None] * dense) / e_wrong[None, :])
    want = [
        np.linalg.norm((e[:, None] * dense) / e[None, :] - adj) / np.linalg.norm(dense),
        np.linalg.norm(lk - hk_adj) / np.linalg.norm(hk_adj),
        np.linalg.norm(adj - dense) / np.linalg.norm(dense),
        np.linalg.norm(hk - hk_adj) / np.linalg.norm(hk),
    ]
    got = [
        pseudo_hermiticity_residual(bands, metric(params), d, grid).value,
        metric_discrimination_report(bands, coeffs, wrong, d, grid).context["measured"],
        hermiticity_defect(bands, d, grid),
        projected_hermiticity_defect(bands, coeffs, d, grid),
    ]
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
    assert hermiticity_defect_report(bands, coeffs, d, grid).passed
