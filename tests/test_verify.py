"""Verification battery internals."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from numpy.polynomial import Polynomial

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
    HERMITICITY_DEFECT_FACTOR,
    ResidualReport,
    _exceed_report,
    battery,
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
        report = _exceed_report("hermiticity-defect", float("nan"), 1e-2)
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
            coeffs = params.family().coefficients()
            assert metric_identity_residual(coeffs, params.deformation) < 1e-9
            # the metric is 1 there too, so the identity cannot tell them apart and the record is skipped
            residual = metric_identity_residual(coeffs, params.deformation, params.family().log_metric())
            report = hermiticity_defect_report(coeffs, params.deformation, residual)
            assert report.passed and "no defect to detect" in report.context["skipped"]

    def test_defect_sees_the_non_hermiticity(self):
        params = displaced_default(lam=0.5)
        coeffs = displaced_coefficients(params)
        grid = MomentumGrid.symmetric(30.0, 900)
        h = p_space_operator(coeffs, grid)
        raw = np.linalg.norm(adjoint_under_weight(h, params.deformation, grid) - h) / np.linalg.norm(h)
        residual = metric_identity_residual(coeffs, params.deformation, params.family().log_metric())
        report = hermiticity_defect_report(coeffs, params.deformation, residual)
        # the Frobenius defect of the discretized operator is diluted by its huge
        # high-|p| kinetic entries; the pointwise identity is not
        assert report.context["measured"] > 100.0 * raw
        assert report.context["measured"] > 0.1 and report.passed

    def test_nearly_hermitian_operator_is_below_the_floor(self):
        # the floor is 100 times the identity's residual at the model's metric, 2.7-3.0e-11 here: lambda = 1e-3
        # tilts g well above it (defect 2.1-3.2e-3), while at lambda = 1e-10 (defect 2.3-3.4e-10) eta = 1 meets
        # the identity as closely as the metric does, so the record cannot discriminate them and is skipped
        for gamma in (0.0, 0.05):
            for lam in (1e-3, 1e-10):
                params = displaced_default(gamma=gamma, lam=lam)
                coeffs = displaced_coefficients(params)
                residual = metric_identity_residual(coeffs, params.deformation, params.family().log_metric())
                report = hermiticity_defect_report(coeffs, params.deformation, residual)
                assert report.passed and residual < 1e-10
                if lam == 1e-3:
                    assert report.context["measured"] > report.context["floor"] == HERMITICITY_DEFECT_FACTOR * residual
                else:
                    assert report.context["skipped"].startswith("eta = 1 meets the identity within 100 x")
                    assert metric_identity_residual(coeffs, params.deformation) <= HERMITICITY_DEFECT_FACTOR * residual

    def test_hermitian_operator_under_a_failing_metric_fails(self):
        # g made Hermitian (kappa = beta + gamma, ell = 0) with the model's metric kept: eta = 1 meets the identity
        # (defect ~3e-11), the kept metric fails it, and the floor reads the pseudo-hermiticity gate, 100 x 1e-6
        params = displaced_default(lam=0.5)
        beta = params.deformation.beta
        coeffs = dataclasses.replace(displaced_coefficients(params), g=-2.0 * beta * Polynomial([0.0, 1.0, 0.0, beta]))
        residual = metric_identity_residual(coeffs, params.deformation, params.family().log_metric())
        report = hermiticity_defect_report(coeffs, params.deformation, residual)
        assert residual > TOLERANCES["pseudo-hermiticity"] and not report.passed
        assert report.context["floor"] == HERMITICITY_DEFECT_FACTOR * TOLERANCES["pseudo-hermiticity"]
        assert report.context["measured"] < 1e-9
        nan_floor = hermiticity_defect_report(coeffs, params.deformation, float("nan"))
        assert nan_floor.context == report.context and not nan_floor.passed


class TestPseudoHermiticity:
    def test_correct_metric_residual_is_tiny(self):
        params = displaced_default()
        report = pseudo_hermiticity_residual(displaced_coefficients(params), params.family().log_metric(),
                                             params.deformation)
        assert report.value < 1e-8 and report.passed

    def test_swanson_metric_residual_is_tiny(self):
        params = swanson_default()
        report = pseudo_hermiticity_residual(swanson_coefficients(params), params.family().log_metric(),
                                             params.deformation)
        assert report.value < 1e-8 and report.passed

    @DISCRIMINATION_POINTS
    def test_wrong_metric_is_discriminated(self, params, other):
        coeffs = params.family().coefficients()
        assert metric_identity_residual(coeffs, params.deformation, other.family().log_metric()) > 0.1

    def test_overflowing_metric_is_judged_from_its_log(self):
        # exp(log eta) overflows to inf for both, yet the identity reads log eta itself: the right
        # metric times e^1000 passes, and the wrong metric e^(1000 p^2) fails with a finite residual
        params = displaced_default()
        coeffs, log_eta = displaced_coefficients(params), params.family().log_metric()
        scaled = pseudo_hermiticity_residual(coeffs, lambda p: log_eta(p) + 1e3, params.deformation)
        assert scaled.passed
        wrong = pseudo_hermiticity_residual(coeffs, lambda p: 1e3 * np.asarray(p, dtype=float) ** 2,
                                            params.deformation)
        assert np.isfinite(wrong.value) and not wrong.passed

    def test_identity_is_finite_where_eta_overflows(self):
        # at omega = 0.05 log eta reaches 1985 on the sample, so eta = exp(log eta) is inf there
        params = DisplacedOscillatorParams(DeformationParams(1.0, 0.1, 0.0), omega=0.05, lam=0.5)
        family, d = params.family(), params.deformation
        with np.errstate(over="ignore"):
            assert np.isinf(family.metric()(d.p_of_q(0.99 * d.q_half)))
        value = metric_identity_residual(family.coefficients(), params.deformation, family.log_metric())
        assert np.isfinite(value) and value <= 1e-6

    def test_nan_log_metric_reads_nan_and_fails(self):
        params = displaced_default()
        nan = lambda p: np.full(np.shape(p), np.nan)
        report = pseudo_hermiticity_residual(displaced_coefficients(params), nan, params.deformation)
        assert np.isnan(report.value) and not report.passed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family_points())
def test_identity_holds_for_the_metric_and_fails_for_a_perturbed_one(params):
    # both models, gamma in [0, beta]: the closed-form metric satisfies (f mu eta)' = -g mu eta,
    # and a metric off by a factor w^1e-4 or e^(1e-4 q) does not
    d = params.deformation
    coeffs = params.family().coefficients()
    log_eta = params.family().log_metric()
    assert metric_identity_residual(coeffs, d, log_eta) <= 1e-8
    off_power = lambda p: log_eta(p) + 1e-4 * np.log1p(d.beta * np.asarray(p, dtype=float) ** 2)
    off_arctan = lambda p: log_eta(p) + 1e-4 * d.q_of_p(p)
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

    def test_subnormal_tail_is_not_a_failure(self):
        # B = 489: psi falls below 1e-308 at the outer samples, where each term keeps no relative
        # precision; taken pointwise without the floor the residual read 7.0e-4 there
        params = DisplacedOscillatorParams(DeformationParams(0.86, 0.00321, 0.0), mu=1.04, omega=0.713, lam=0.3)
        psi = wavefunction(0, params)
        assert abs(psi(psi.beta**-0.5 * 1e3)) < 1e-300
        assert ode_residual(psi, params.family().coefficients(), psi.epsilon).value < 1e-12


@pytest.mark.parametrize("params", [displaced_default(), swanson_default()], ids=["displaced", "swanson"])
def test_battery_evaluates_each_state_once_per_check(monkeypatch, params):
    # the 4 states take 1, 2, 3 and 3 Jacobi recurrences per evaluation: 9 for the ODE residual's jets and
    # 18 for the Gram matrix's stacked phi and psi; pairwise products and separate derivative calls take 72
    import mlqm.models

    calls = []
    recurrence = mlqm.models.jacobi_eval
    monkeypatch.setattr(mlqm.models, "jacobi_eval", lambda *args: calls.append(args) or recurrence(*args))
    battery(params, 4)
    assert len(calls) <= 30


@pytest.mark.parametrize("beta", [1e4, 1e5, 1e6])
def test_battery_passes_at_large_beta(beta):
    # the metric identity's difference step once ignored the q-map's length 1/sqrt(beta), and the ODE
    # residual carried the units of eps: at beta = 1e6, pseudo-hermiticity read 2.43e-5 and ode-residual 1.4e-6
    reports = battery(displaced_default(beta=beta, lam=0.0), 4)
    assert [r.name for r in reports if not r.passed] == []


@pytest.mark.parametrize("beta", [1e3, 3e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("model", ["displaced-lambda-0", "displaced-lambda-0.5", "swanson"])
def test_battery_passes_on_the_large_beta_table(model, beta):
    # the hermiticity defect falls as 1/sqrt(beta) (displaced) or faster (Swanson, 5e-7 at beta = 1e6), and the
    # absolute 1e-2 floor failed 9 of these 15 points; against 100 x the metric's residual (<= 1.0e-9) all pass
    deformation = DeformationParams(1.0, beta, 0.0)
    params = {
        "displaced-lambda-0": DisplacedOscillatorParams(deformation, lam=0.0),
        "displaced-lambda-0.5": DisplacedOscillatorParams(deformation, lam=0.5),
        "swanson": SwansonParams(deformation, lam=0.5),
    }[model]
    reports = {r.name: r for r in battery(params, 4)}
    assert [name for name, r in reports.items() if not r.passed] == []
    if model != "displaced-lambda-0":
        assert "skipped" not in reports["hermiticity-defect"].context


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
    assert metric_identity_residual(coeffs, params.deformation, params.family().log_metric()) < 1e-3 * fd[2]
