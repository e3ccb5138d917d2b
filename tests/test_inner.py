"""Deformed-measure quadrature by Fejer's second rule."""

import math

import mpmath
import numpy as np
import pytest

from mlqm import ConfigurationError, DeformationParams, NumericError, eta_inner
from mlqm.inner import QUADRATURE_NODES, _fejer


def deformed_inner(phi, psi, params):
    """The plain deformed-measure product: the metric product with eta identically 1."""
    return eta_inner(phi, psi, None, params)


@pytest.mark.parametrize("n", [2, 3, 16, 17, 512, 1024])
def test_fejer_nodes_nest(n):
    x, _ = _fejer(n)
    assert np.array_equal(x, np.cos(np.pi * np.arange(1, n) / n))
    assert np.array_equal(x, _fejer(2 * n)[0][1::2])  # node doubling evaluates the integrand once


@pytest.mark.parametrize("n", [2, 4, 16, 128, 512, 1024, 3, 17])
def test_fejer_integrates_polynomials_exactly(n):
    # interpolatory on n - 1 nodes: exact for x^d, d <= n - 2, and for d = n - 1 too when n is even;
    # measured: 5.6e-16 at worst
    x, w = _fejer(n)
    assert abs(w.sum() - 2.0) <= 1e-15
    for d in range(n - n % 2):
        assert abs(w @ x**d - (1 + (-1) ** d) / (d + 1)) <= 1e-14, d


def fejer_weight(n, k):
    """w_k = (4/n) sin(theta_k) sum_{j <= n/2} sin((2j - 1) theta_k)/(2j - 1), theta_k = k pi/n, in mpmath."""
    theta = mpmath.pi * k / n
    tail = mpmath.fsum(mpmath.sin((2 * j - 1) * theta) / (2 * j - 1) for j in range(1, n // 2 + 1))
    return 4 * mpmath.sin(theta) * tail / n


@pytest.mark.parametrize("n, ks, abs_gap, rel_gap", [
    # measured: 2.0e-17 and 2.3e-16 over all 15 weights at n = 16; 6.7e-19 and 4.0e-14 at n = 1024,
    # where the relative gap is largest in the small weights at the ends
    (16, range(1, 16), 5e-17, 5e-16),
    (1024, [1, 2, 3, 4, 100, 300, 511, 512, 513, 1020, 1021, 1022, 1023], 2e-18, 1e-13),  # ends, middle, between
], ids=["16", "1024"])
def test_fejer_weights_match_mpmath(n, ks, abs_gap, rel_gap):
    _, w = _fejer(n)
    with mpmath.workdps(32):
        for k in ks:
            weight = fejer_weight(n, k)
            assert abs(w[k - 1] - weight) <= abs_gap, k
            assert abs(w[k - 1] - weight) <= rel_gap * weight, k


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

    def test_integrand_is_evaluated_once_at_the_fine_nodes(self):
        # the coarse rule's nodes are every other fine node, so node doubling needs one evaluation pass
        d = DeformationParams(1.0, 0.5, 0.0)
        sizes = []
        phi = lambda p: sizes.append(np.size(p)) or np.exp(-0.5 * np.asarray(p, dtype=float) ** 2)
        deformed_inner(phi, phi, d)
        assert sizes == [2 * QUADRATURE_NODES - 1] * 2 == [1023, 1023]  # phi and psi, once each

    def test_divergence_detected(self):
        d = DeformationParams(1.0, 0.5, 0.0)
        growing = lambda p: 1.0 + 0.5 * np.asarray(p, dtype=float) ** 2
        with pytest.raises(NumericError, match="inner product failed node doubling"):
            deformed_inner(growing, growing, d)

    def test_nan_integrand_is_nonconvergence(self):
        d = DeformationParams(1.0, 0.3, 0.0)
        nan = lambda p: np.full_like(np.asarray(p, dtype=float), np.nan)
        with pytest.raises(NumericError, match=r"inner product failed node doubling: \|I\(2N\)-I\(N\)\|/\|I\| = nan"):
            eta_inner(nan, nan, None, d)

    def test_q_scheme_requires_positive_beta(self):
        d = DeformationParams()
        phi = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
        with pytest.raises(ConfigurationError, match="quadrature on q needs beta > 0"):
            deformed_inner(phi, phi, d)
