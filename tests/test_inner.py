"""Deformed-measure Gauss-Legendre quadrature."""

import math

import numpy as np
import pytest

from mlqm import (
    DeformationParams,
    DomainError,
    NonConvergenceError,
    QuadratureSpec,
    eta_inner,
    measure_jacobian,
)
from mlqm.inner import _leggauss


def deformed_inner(phi, psi, params, spec=QuadratureSpec()):
    """The plain deformed-measure product: the metric product with eta identically 1."""
    return eta_inner(phi, psi, None, params, spec)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.node_count == 512

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_count": 15},
            {"node_count": 8},
            {"node_count": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


@pytest.mark.parametrize("n", [16, 512, 1024])
def test_gauss_legendre_nodes_match_numpy(n):
    x, w = _leggauss(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - x_ref).max() <= 1e-14
    assert np.abs(w - w_ref).max() <= 1e-14
    assert abs(w.sum() - 2.0) <= 1e-14
    assert np.array_equal(x, -x[::-1])


class TestMeasureJacobian:
    def test_beta_zero_is_unity(self):
        d = DeformationParams()
        assert np.all(measure_jacobian(d, np.linspace(-3, 3, 7)) == 1.0)

    def test_closed_form(self):
        d = DeformationParams(1.0, 0.4, 0.2)
        p = np.array([0.0, 1.5, -2.0])
        assert np.allclose(measure_jacobian(d, p), (1 + 0.4 * p**2) ** 0.5)


class TestInnerProducts:
    def test_exact_measure_normalization(self):
        # integral of the bare measure dp/(1+beta p^2) equals pi/sqrt(beta)
        d = DeformationParams(1.0, 0.5, 0.0)
        one = lambda p: np.ones_like(np.asarray(p, dtype=float))
        val = deformed_inner(one, one, d)
        assert val.real == pytest.approx(np.pi / np.sqrt(0.5), rel=1e-12)
        assert abs(val.imag) < 1e-14

    def test_schemes_agree_on_decaying_state(self):
        # integral of exp(-p^2)/(1+beta p^2) dp = (pi/sqrt(beta)) exp(1/beta) erfc(1/sqrt(beta))
        beta = 0.3
        d = DeformationParams(1.0, beta, 0.0)
        phi = lambda p: np.exp(-0.5 * np.asarray(p, dtype=float) ** 2)
        exact = np.pi / math.sqrt(beta) * math.exp(1.0 / beta) * math.erfc(1.0 / math.sqrt(beta))
        assert deformed_inner(phi, phi, d).real == pytest.approx(exact, rel=1e-12)

    def test_metric_weight_applied(self):
        d = DeformationParams(1.0, 0.5, 0.0)
        phi = lambda p: np.exp(-0.5 * np.asarray(p, dtype=float) ** 2)
        eta = lambda p: 2.0 * np.ones_like(np.asarray(p, dtype=float))
        plain = deformed_inner(phi, phi, d)
        weighted = eta_inner(phi, phi, eta, d)
        assert weighted.real == pytest.approx(2.0 * plain.real, rel=1e-13)

    def test_exactly_orthogonal_pair_is_not_divergence(self):
        d = DeformationParams(1.0, 0.4, 0.0)
        even = lambda p: np.exp(-0.5 * np.asarray(p, dtype=float) ** 2)
        odd = lambda p: np.asarray(p, dtype=float) * np.exp(-0.5 * np.asarray(p, dtype=float) ** 2)
        val = deformed_inner(even, odd, d)
        assert abs(val) < 1e-12

    def test_divergence_detected(self):
        d = DeformationParams(1.0, 0.5, 0.0)
        growing = lambda p: 1.0 + 0.5 * np.asarray(p, dtype=float) ** 2
        with pytest.raises(NonConvergenceError):
            deformed_inner(growing, growing, d)

    def test_nan_integrand_is_nonconvergence(self):
        d = DeformationParams(1.0, 0.3, 0.0)
        nan = lambda p: np.full_like(np.asarray(p, dtype=float), np.nan)
        with pytest.raises(NonConvergenceError):
            eta_inner(nan, nan, None, d)

    def test_q_scheme_requires_positive_beta(self):
        d = DeformationParams()
        phi = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
        with pytest.raises(DomainError):
            deformed_inner(phi, phi, d)
