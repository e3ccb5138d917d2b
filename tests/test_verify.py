"""Verification battery internals."""

import numpy as np
import pytest
from hypothesis import example, given, settings

from mlqm import (
    DeformationParams,
    DisplacedOscillatorParams,
    MomentumGrid,
    SwansonParams,
    TOLERANCES,
    displaced_metric,
    displaced_wavefunction,
    eta_inner,
    gamma_independence,
    gram_matrix,
    metric_identity_residual,
    ode_residual,
    pseudo_hermiticity_residual,
    swanson_metric,
)
from mlqm.models import displaced_coefficients, swanson_coefficients, wavefunction
from mlqm.verify import (
    HERMITICITY_DEFECT_FLOOR,
    ResidualReport,
    _exceed_report,
    closed_form_ladder,
    hermiticity_defect_report,
)
from oracles import _dense, adjoint_under_weight, fd_pseudo_hermiticity_residual, p_space_operator, similar
from test_models import family_points


def displaced_default(beta=0.1, gamma=0.0, lam=0.5):
    return DisplacedOscillatorParams(deformation=DeformationParams(1.0, beta, gamma), lam=lam)


def swanson_default(beta=0.5, lam=0.3, delta=0.1):
    return SwansonParams(deformation=DeformationParams(1.0, beta, 0.0), lam=lam, delta=delta)


def wrong_metric(p):
    """A Swanson-shaped metric, wrong for the displaced model's defaults."""
    return (1.0 + 0.1 * np.asarray(p, dtype=float) ** 2) ** (-1.0)


#: (params, the other model at the same beta and lambda, whose metric is the wrong one): the displaced
#: CLI defaults, and the benchmark's seed-1 Swanson draw, whose H is not Hermitian (lambda != delta)
DISCRIMINATION_POINTS = pytest.mark.parametrize("params, other", [
    (displaced_default(), swanson_default(beta=0.1, lam=0.5, delta=0.0)),
    (swanson_default(beta=0.452755, lam=0.262753, delta=0.124772), displaced_default(beta=0.452755, lam=0.262753)),
], ids=["displaced", "swanson"])


class TestResidualReport:
    def test_pass_is_value_le_tolerance(self):
        assert ResidualReport("x", 1e-9, 1e-6).passed
        assert not ResidualReport("x", 1e-3, 1e-6).passed

    def test_to_record_shape(self):
        rec = ResidualReport("x", 0.5, 1.0, {"grid": {"n": 10}}).to_record(params={"beta": 0.1})
        assert rec == {
            "name": "x", "value": 0.5, "tolerance": 1.0, "pass": True,
            "params": {"beta": 0.1}, "grid": {"n": 10},
        }

    def test_nan_measurement_fails_exceed_check(self):
        # max(0, floor - nan) is 0, which would pass; the shortfall must stay NaN
        report = _exceed_report("hermiticity-defect", float("nan"), HERMITICITY_DEFECT_FLOOR)
        assert np.isnan(report.value) and not report.passed

    def test_tolerance_table_is_complete(self):
        for key in (
            "commutator-residual", "pseudo-hermiticity", "hermiticity-defect",
            "gram-identity", "ode-residual", "gamma-independence", "spectrum-error",
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
        # lambda = 0 and Swanson lambda = delta are Hermitian: the identity holds at eta = 1
        hermitian = [displaced_default(lam=0.0), displaced_default(gamma=0.05, lam=0.0),
                     swanson_default(lam=0.2, delta=0.2)]
        for params in hermitian:
            assert metric_identity_residual(params.family().coefficients(), params.deformation) < 1e-9

    def test_defect_sees_the_non_hermiticity(self):
        params = displaced_default(lam=0.5)
        coeffs = displaced_coefficients(params)
        grid = MomentumGrid.symmetric(30.0, 900)
        h = p_space_operator(coeffs, grid)
        raw = np.linalg.norm(adjoint_under_weight(h, params.deformation, grid) - h) / np.linalg.norm(h)
        report = hermiticity_defect_report(coeffs, params.deformation)
        # the Frobenius defect of the discretized operator is diluted by its huge
        # high-|p| kinetic entries; the pointwise identity is not
        assert report.context["measured"] > 100.0 * raw
        assert report.context["measured"] > 0.1 and report.passed

    def test_nearly_hermitian_operator_is_below_the_floor(self):
        # lambda = 1e-3 barely tilts g: the defect reads 2e-3 to 3e-3, short of the 1e-2 floor
        for gamma in (0.0, 0.05):
            params = displaced_default(gamma=gamma, lam=1e-3)
            report = hermiticity_defect_report(displaced_coefficients(params), params.deformation)
            assert 1e-4 < report.context["measured"] < HERMITICITY_DEFECT_FLOOR and not report.passed


class TestPseudoHermiticity:
    def test_correct_metric_residual_is_tiny(self):
        params = displaced_default()
        report = pseudo_hermiticity_residual(displaced_coefficients(params), displaced_metric(params),
                                             params.deformation)
        assert report.value < 1e-8 and report.passed

    def test_swanson_metric_residual_is_tiny(self):
        params = swanson_default()
        report = pseudo_hermiticity_residual(swanson_coefficients(params), swanson_metric(params), params.deformation)
        assert report.value < 1e-8 and report.passed

    @DISCRIMINATION_POINTS
    def test_wrong_metric_is_discriminated(self, params, other):
        coeffs = params.family().coefficients()
        assert metric_identity_residual(coeffs, params.deformation, other.family().metric()) > 0.1

    def test_overflowing_metric_reads_nan_and_fails(self):
        params = displaced_default()
        huge = lambda p: np.exp(1e3 * np.asarray(p, dtype=float) ** 2)
        report = pseudo_hermiticity_residual(displaced_coefficients(params), huge, params.deformation)
        assert np.isnan(report.value) and not report.passed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family_points())
def test_identity_holds_for_the_metric_and_fails_for_a_perturbed_one(params):
    # both models, gamma in [0, beta]: the closed-form metric satisfies (f mu eta)' = -g mu eta,
    # and a metric off by a factor w^1e-4 or e^(1e-4 q) does not
    d = params.deformation
    coeffs = params.family().coefficients()
    eta = params.family().metric()
    assert metric_identity_residual(coeffs, d, eta) <= 1e-8
    off_power = lambda p: eta(p) * (1.0 + d.beta * np.asarray(p, dtype=float) ** 2) ** 1e-4
    off_arctan = lambda p: eta(p) * np.exp(1e-4 * d.q_of_p(p))
    assert metric_identity_residual(coeffs, d, off_power) > 1e-6
    assert metric_identity_residual(coeffs, d, off_arctan) > 1e-6


class TestGram:
    def test_identity_with_metric(self):
        params = displaced_default()
        states = [displaced_wavefunction(n, params) for n in range(4)]
        gram, report = gram_matrix(states, displaced_metric(params), params.deformation)
        assert report.value < 1e-10 and report.passed
        assert np.allclose(gram, np.eye(4), atol=1e-10)

    @DISCRIMINATION_POINTS
    def test_off_diagonals_without_metric(self, params, other):
        states = [wavefunction(n, params) for n in range(4)]
        plain = [abs(eta_inner(states[i], states[j], None, params.deformation))
                 for i in range(4) for j in range(i + 1, 4)]
        assert max(plain) > 1e-3


class TestOdeChecks:
    @DISCRIMINATION_POINTS
    def test_fault_detection(self, params, other):
        psi = wavefunction(0, params)
        coeffs = params.family().coefficients()
        assert ode_residual(psi, coeffs, psi.epsilon).value < 1e-10
        assert ode_residual(psi, coeffs, psi.epsilon + 0.1).value > 1e-3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(family_points())
@example(SwansonParams(DeformationParams(1.0, 0.1, 0.0), m=2.0, lam=0.5))  # the Swanson CLI defaults at m = 2
@example(SwansonParams(DeformationParams(1.0, 2.0, 0.0), lam=0.2, delta=0.2))  # exactly at beta_c = 2
def test_closed_form_ladder_holds(params):
    report = closed_form_ladder(params, params.family(), 8)
    assert report.passed and report.context["grid"] == {"levels": 8}


class TestGammaIndependence:
    def test_displaced_spread_is_below_tolerance(self):
        params = displaced_default()
        report = gamma_independence(params, (0.0, 0.05, 0.1), 4)
        assert report.value < 1e-6 and report.passed


@pytest.mark.parametrize(
    "params, coefficients, metric",
    [
        (displaced_default(), displaced_coefficients, displaced_metric),
        (swanson_default(beta=0.4, lam=0.28, delta=0.12), swanson_coefficients, swanson_metric),
    ],
    ids=["displaced", "swanson"],
)
def test_band_checks_match_the_dense_oracle(params, coefficients, metric):
    # the finite-difference reference works band by band; the same algebra on the
    # dense N x N matrices, written out here, must give the same values
    grid = MomentumGrid.symmetric(30.0, 1200)
    d = params.deformation
    coeffs = coefficients(params)
    bands = p_space_operator(coeffs, grid)
    dense = _dense(bands)
    w = d.measure_weight(grid.points)
    adj = (dense.conj().T * w[None, :]) / w[:, None]  # W^-1 H^T W
    assert np.allclose(_dense(adjoint_under_weight(bands, d, grid)), adj, rtol=1e-12, atol=0.0)
    for eta in (metric(params), wrong_metric):
        e = eta(grid.points)
        assert np.allclose(_dense(similar(bands, e)), (e[:, None] * dense) / e[None, :], rtol=1e-12, atol=0.0)
        want = np.linalg.norm((e[:, None] * dense) / e[None, :] - adj) / np.linalg.norm(dense)
        assert np.isclose(fd_pseudo_hermiticity_residual(coeffs, eta, d, grid), want, rtol=1e-9, atol=1e-12)


def test_fd_residual_converges_to_the_identity():
    # at the Swanson CLI defaults the finite-difference residual of E H E^-1 - H_adj is stencil
    # error alone: it falls as h^3 (2.9e-6, 3.6e-7, 4.5e-8), towards the identity residual
    # that metric_identity_residual evaluates with no grid
    params = SwansonParams(deformation=DeformationParams(1.0, 0.1, 0.0), lam=0.5, delta=0.0)
    coeffs, eta = swanson_coefficients(params), swanson_metric(params)
    fd = [fd_pseudo_hermiticity_residual(coeffs, eta, params.deformation, MomentumGrid.symmetric(30.0, n))
          for n in (1200, 2400, 4800)]
    assert fd[0] > 6.0 * fd[1] > 36.0 * fd[2]
    assert metric_identity_residual(coeffs, params.deformation, eta) < 1e-3 * fd[2]
