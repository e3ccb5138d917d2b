"""Jacobi recurrence against independent oracles."""

import mpmath
import numpy as np
import pytest
from scipy.special import eval_jacobi

from mlqm import ConfigurationError, jacobi_eval


def mp_jacobi(n, a, z):
    """30-digit arbitrary-precision oracle of P_n^(a,a)."""
    with mpmath.workdps(30):
        return float(mpmath.jacobi(n, a, a, mpmath.mpf(z)))


class TestJacobiOrder:
    """The degree and parameter (n, a) that jacobi_eval admits."""

    def test_accepts_irrational_parameters(self):
        jacobi_eval(3, np.sqrt(2) - 0.5, 0.3)

    @pytest.mark.parametrize("n,a,z", [(-1, 0.0, 0.0), (2, -1.0, 0.0)])
    def test_rejects_out_of_domain(self, n, a, z):
        with pytest.raises(ConfigurationError, match="degree must be non-negative|need a > -1"):
            jacobi_eval(n, a, z)


class TestValues:
    def test_degree_zero_and_one(self):
        z = np.linspace(-1, 1, 11)
        a = 0.7
        assert np.allclose(jacobi_eval(0, a, z), 1.0)
        assert np.allclose(jacobi_eval(1, a, z), (a + 1) + (a + a + 2) * (z - 1) / 2)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25])
    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (1.5, 1.5), (3.7, 3.7)])
    def test_against_scipy(self, n, a, b):
        # scipy's P_n^(a,b) at b = a
        z = np.linspace(-1, 1, 41)
        ours = jacobi_eval(n, a, z)
        ref = eval_jacobi(n, a, b, z)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(ours - ref)) / scale < 1e-12

    @pytest.mark.parametrize("n", [300, 499])
    @pytest.mark.parametrize("a", [1.5, 3.7, 10.0])
    def test_against_scipy_at_wavefunction_degrees(self, n, a):
        # the degrees that wavefunction --n reaches; rounding grows with n (5.4e-12 at n = 499, a = 3.7),
        # so the bound is looser than test_against_scipy's 1e-12
        z = np.linspace(-1, 1, 41)
        ref = eval_jacobi(n, a, a, z)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(jacobi_eval(n, a, z) - ref)) / scale <= 1e-11

    @pytest.mark.parametrize("z", [-0.9, -0.3, 0.2, 0.5, 0.99])
    def test_against_mpmath_series(self, z):
        # equal symmetric parameters as used by the eigenfunctions
        n, a = 7, 4.52493781056044  # an irrational-looking alpha
        ours = float(jacobi_eval(n, a, z))
        ref = mp_jacobi(n, a, z)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_scalar_input(self):
        assert jacobi_eval(4, 2.0, 0.3).shape == ()


class TestIdentities:
    def test_symmetry_for_equal_parameters(self):
        # P_n^(a,a)(-z) = (-1)^n P_n^(a,a)(z)
        z = np.linspace(0, 1, 9)
        for n in range(6):
            left = jacobi_eval(n, 2.4, -z)
            right = (-1.0) ** n * jacobi_eval(n, 2.4, z)
            assert np.allclose(left, right, atol=1e-13)

    def test_parameter_shift_derivative(self):
        # d/dz P_n^(a,a) = (n+2a+1)/2 * P_{n-1}^(a+1,a+1); checked by FD
        n, a = 5, 1.7
        z = np.linspace(-0.9, 0.9, 21)
        h = 1e-6
        fd = (jacobi_eval(n, a, z + h) - jacobi_eval(n, a, z - h)) / (2 * h)
        analytic = 0.5 * (n + 2 * a + 1) * jacobi_eval(n - 1, a + 1, z)
        assert np.max(np.abs(fd - analytic)) < 1e-5
