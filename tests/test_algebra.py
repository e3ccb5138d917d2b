"""Deformed operator algebra on momentum grids."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlqm import TOLERANCES, ConfigurationError, DeformationParams, MomentumGrid, commutator_residual
from mlqm import algebra
from mlqm.algebra import _D1_CENTRAL, first_derivative_matrix, second_derivative_matrix
from mlqm.verify import commutator_report


def gaussian_grid(n, p_max=10.0):
    grid = MomentumGrid.symmetric(p_max, n)
    return grid, np.exp(-0.5 * grid.points**2)


class TestDeformationParams:
    def test_defaults_are_undeformed(self):
        d = DeformationParams()
        assert d.beta == 0 and d.gamma == 0 and d.min_length == 0.0

    def test_min_length(self):
        d = DeformationParams(hbar=2.0, beta=0.25)
        assert d.min_length == pytest.approx(1.0)

    def test_measure_weight_closed_form(self):
        d = DeformationParams(hbar=1.0, beta=0.5, gamma=0.25)
        p = np.array([0.0, 1.0, -2.0])
        expected = (1.0 + 0.5 * p**2) ** (0.25 / 0.5 - 1.0)
        assert np.allclose(d.measure_weight(p), expected)

    def test_beta_zero_weight_is_one(self):
        d = DeformationParams()
        assert np.all(d.measure_weight(np.linspace(-5, 5, 7)) == 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hbar": 0.0},
            {"hbar": -1.0},
            {"beta": -0.1},
            {"beta": 0.0, "gamma": 0.5},
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        # the last key is the setting refused: hbar and beta for their sign, gamma for a nonzero value at beta 0
        with pytest.raises(ConfigurationError, match=f"^{list(kwargs)[-1]} must be "):
            DeformationParams(**kwargs)

    @pytest.mark.parametrize("name", ["hbar", "beta", "gamma"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_parameters(self, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got {value}$"):
            DeformationParams(**{name: value})

    # subnormal p would underflow sqrt(beta)*p and lose the round trip to the float format
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(beta=st.just(0.0) | st.floats(1e-3, 10.0), p=st.floats(-100.0, 100.0, allow_subnormal=False))
    @example(beta=10.0, p=100.0)
    @example(beta=0.0, p=-100.0)
    def test_q_map_round_trip(self, beta, p):
        d = DeformationParams(beta=beta)
        q = d.q_of_p(p)
        assert abs(q) < d.q_half
        assert abs(d.p_of_q(q) - p) <= 1e-12 * abs(p)

    @pytest.mark.parametrize("beta", [1e-3, 0.1, 2.0, 1e4])
    def test_q_map_keeps_its_digits_up_to_the_wall(self, beta):
        # the reference puts the pole at the float q_half, the box edge every q-box solve and quadrature uses;
        # tan(sqrt(beta) q) would read 9e-5 off at 1e-12 q_half from the wall
        d = DeformationParams(beta=beta)
        for k in range(1, 13):
            for q in (d.q_half * (1.0 - 10.0**-k), -d.q_half * (1.0 - 10.0**-k)):
                with mpmath.workdps(50):
                    sqb = mpmath.sqrt(mpmath.mpf(beta))
                    want = mpmath.sign(q) * mpmath.cot(sqb * (mpmath.mpf(d.q_half) - abs(mpmath.mpf(q)))) / sqb
                    assert abs((d.p_of_q(q) - want) / want) <= 1e-15, (k, q)

    def test_q_map_wall_is_infinite(self):
        d = DeformationParams(beta=2.0)
        assert d.p_of_q(d.q_half) == np.inf and d.p_of_q(-d.q_half) == -np.inf


class TestMomentumGrid:
    def test_symmetric_constructor(self):
        g = MomentumGrid.symmetric(5.0, 11)
        assert g.p_min == -5.0 and g.p_max == 5.0
        assert g.is_symmetric
        assert g.spacing == pytest.approx(1.0)
        assert np.allclose(g.points, np.linspace(-5, 5, 11))

    def test_asymmetric_flag(self):
        assert not MomentumGrid(-1.0, 2.0, 16).is_symmetric

    @pytest.mark.parametrize("args", [(-1.0, -2.0, 10), (0.0, 0.0, 10), (-1.0, 1.0, 2)])
    def test_rejects_bad_bounds(self, args):
        with pytest.raises(ConfigurationError, match="need p_min < p_max|need n_points >= 3"):
            MomentumGrid(*args)


class TestDerivatives:
    def test_matrix_matches_stencil_in_interior(self):
        x = np.linspace(-3, 3, 121)
        h = x[1] - x[0]
        m = first_derivative_matrix(len(x), h)
        assert np.array_equal(m[60, 58:63], _D1_CENTRAL / h)
        f = np.sin(x) * np.exp(-0.1 * x**2)
        exact = (np.cos(x) - 0.2 * x * np.sin(x)) * np.exp(-0.1 * x**2)
        assert np.max(np.abs((m @ f)[2:-2] - exact[2:-2])) < 2e-6

    def test_second_derivative_matrix_accuracy(self):
        x = np.linspace(-4, 4, 641)
        h = x[1] - x[0]
        f = np.exp(-0.5 * x**2)
        exact = (x**2 - 1.0) * f
        num = second_derivative_matrix(len(x), h) @ f
        assert np.max(np.abs(num[4:-4] - exact[4:-4])) < 1e-8


class TestCommutator:
    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (0.1, 0.0), (0.5, 0.25)])
    def test_residual_small_for_smooth_state(self, beta, gamma):
        d = DeformationParams(hbar=1.0, beta=beta, gamma=gamma)
        grid, phi = gaussian_grid(n=2001)
        assert commutator_residual(d, grid, phi) < 1e-8

    def test_record_does_not_grow_with_hbar(self):
        # relative to i*hbar*(1+beta*p^2) phi, hbar cancels
        at_1, at_4 = (commutator_report(DeformationParams(hbar=h, beta=1000.0)).value for h in (1.0, 4.0))
        assert at_4 == pytest.approx(at_1, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", [1e-3, 0.1, 1e3, 1e6])
    def test_record_does_not_grow_with_beta(self, beta):
        assert commutator_report(DeformationParams(beta=beta)).value <= 1e-9

    def test_record_reads_a_perturbed_stencil(self, monkeypatch):
        # d/dp scaled by 1 + 1e-3 scales the computed commutator by the same factor
        monkeypatch.setattr(algebra, "_D1_CENTRAL", _D1_CENTRAL * (1.0 + 1e-3))
        assert commutator_report(DeformationParams(beta=0.1)).value == pytest.approx(1e-3, rel=1e-5)

    @pytest.mark.parametrize("n,expected", [(321, 6.9e-6), (41, 2.4e-2)])
    def test_coarse_grid_fails_the_gate(self, n, expected):
        grid, phi = gaussian_grid(n=n)
        value = commutator_residual(DeformationParams(beta=0.1), grid, phi)
        assert value == pytest.approx(expected, rel=0.01)
        assert value > TOLERANCES["commutator-residual"]

    def test_needs_an_interior_past_both_stencils(self):
        grid, phi = gaussian_grid(n=9)
        assert np.isfinite(commutator_residual(DeformationParams(beta=0.1), grid, phi))
        grid, phi = gaussian_grid(n=8)
        with pytest.raises(ConfigurationError, match="need n_points >= 9 for an interior past both stencils, got 8"):
            commutator_residual(DeformationParams(beta=0.1), grid, phi)
