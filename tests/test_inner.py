"""Deformed-measure Gauss-Legendre quadrature."""

import math

import mpmath
import numpy as np
import pytest

from mlqm import (
    DeformationParams,
    DomainError,
    NonConvergenceError,
    eta_inner,
)
from mlqm.inner import _leggauss


def deformed_inner(phi, psi, params):
    """The plain deformed-measure product: the metric product with eta identically 1."""
    return eta_inner(phi, psi, None, params)


#: node count -> largest weight gap to numpy; at 1024 nodes numpy's weights are the less
#: accurate side (see the mpmath test below), 1.52e-14 apart
NUMPY_WEIGHT_GAPS = {16: 1e-14, 512: 1e-14, 1024: 1.6e-14}


@pytest.mark.parametrize("n", NUMPY_WEIGHT_GAPS)
def test_gauss_legendre_nodes_match_numpy(n):
    x, w = _leggauss(n)
    x_ref, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.abs(x - x_ref).max() <= 1e-14
    assert np.abs(w - w_ref).max() <= NUMPY_WEIGHT_GAPS[n]
    assert abs(w.sum() - 2.0) <= 1e-14
    assert np.array_equal(x, -x[::-1])


def test_gauss_legendre_matches_numpy_up_to_100_nodes():
    # numpy's weight formula 1/(P_{n-1} P_n') near the ends magnifies a one-ulp difference
    # in a node to ~1e-14 in its weight
    for n in range(1, 101):
        x, w = _leggauss(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.abs(x - x_ref).max() <= 2.3e-16, n
        assert np.abs(w - w_ref).max() <= 2e-14, n
        assert np.array_equal(x, -x[::-1]) and np.all(np.diff(x) > 0), n


def test_gauss_legendre_matches_mpmath_at_1024_nodes():
    # 32-digit nodes: two Newton steps from ours on the Legendre recurrence, and the
    # weights 2/((1 - x^2) P_n'(x)^2) there; outermost nodes, middle nodes and two between
    n = 1024
    x, w = _leggauss(n)

    def legendre_pair(t):
        p_prev, p = mpmath.mpf(1), t
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * t * p - j * p_prev) / (j + 1)
        return p_prev, p

    with mpmath.workdps(32):
        for i in [0, 1, 2, 3, 100, 300, n // 2 - 1, n // 2]:
            t = mpmath.mpf(x[i])
            for _ in range(2):
                p_prev, p = legendre_pair(t)
                t -= p * (t * t - 1) / (n * (t * p - p_prev))
            p_prev, p = legendre_pair(t)
            weight = 2 * (1 - t * t) / (n * p_prev) ** 2
            assert abs(x[i] - t) <= 1e-16, i
            # the last ulp of the outermost node moves its weight by 1.5e-12 (8e-10 with numpy's formula)
            assert abs(w[i] - weight) <= 2e-12 * weight, i


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
