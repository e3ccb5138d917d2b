"""Jacobi recurrence against independent oracles."""

import mpmath
import numpy as np
import pytest
from scipy.special import eval_jacobi

from mlqm import DomainError, jacobi_batch, jacobi_eval


def mp_jacobi(n, a, b, z):
    """30-digit arbitrary-precision oracle."""
    with mpmath.workdps(30):
        return float(mpmath.jacobi(n, a, b, mpmath.mpf(z)))


class TestJacobiOrder:
    """The degree and parameters (n, a, b) that jacobi_batch admits."""

    def test_accepts_irrational_parameters(self):
        jacobi_batch(3, np.sqrt(2) - 0.5, 0.25, 0.3)

    @pytest.mark.parametrize("n,a,b", [(-1, 0.0, 0.0), (2, -1.0, 0.0), (2, 0.0, -1.5)])
    def test_rejects_out_of_domain(self, n, a, b):
        with pytest.raises(DomainError):
            jacobi_batch(n, a, b, 0.3)


class TestValues:
    def test_degree_zero_and_one(self):
        z = np.linspace(-1, 1, 11)
        a, b = 0.7, -0.2
        assert np.allclose(jacobi_eval(0, a, b, z), 1.0)
        assert np.allclose(jacobi_eval(1, a, b, z), (a + 1) + (a + b + 2) * (z - 1) / 2)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25])
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.5, 1.5), (3.7, 3.7), (0.3, 2.1)])
    def test_against_scipy(self, n, a, b):
        z = np.linspace(-1, 1, 41)
        ours = jacobi_eval(n, a, b, z)
        ref = eval_jacobi(n, a, b, z)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(ours - ref)) / scale < 1e-12

    @pytest.mark.parametrize("z", [-0.9, -0.3, 0.2, 0.5, 0.99])
    def test_against_mpmath_series(self, z):
        # equal symmetric parameters as used by the eigenfunctions
        n, a = 7, 4.52493781056044  # an irrational-looking alpha
        ours = float(jacobi_eval(n, a, a, z))
        ref = mp_jacobi(n, a, a, z)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_batch_consistency(self):
        z = np.linspace(-1, 1, 17)
        batch = jacobi_batch(6, 1.3, 1.3, z)
        for n in range(7):
            assert np.array_equal(batch[n], jacobi_eval(n, 1.3, 1.3, z))

    def test_scalar_input(self):
        assert jacobi_eval(4, 2.0, 2.0, 0.3).shape == ()


class TestIdentities:
    def test_symmetry_for_equal_parameters(self):
        # P_n^(a,a)(-z) = (-1)^n P_n^(a,a)(z)
        z = np.linspace(0, 1, 9)
        for n in range(6):
            left = jacobi_eval(n, 2.4, 2.4, -z)
            right = (-1.0) ** n * jacobi_eval(n, 2.4, 2.4, z)
            assert np.allclose(left, right, atol=1e-13)

    def test_parameter_shift_derivative(self):
        # d/dz P_n^(a,b) = (n+a+b+1)/2 * P_{n-1}^(a+1,b+1); checked by FD
        n, a, b = 5, 1.7, 1.7
        z = np.linspace(-0.9, 0.9, 21)
        h = 1e-6
        fd = (jacobi_eval(n, a, b, z + h) - jacobi_eval(n, a, b, z - h)) / (2 * h)
        analytic = 0.5 * (n + a + b + 1) * jacobi_eval(n - 1, a + 1, b + 1, z)
        assert np.max(np.abs(fd - analytic)) < 1e-5
