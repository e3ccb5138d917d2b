"""Deformed operator algebra on momentum grids."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlqm import (
    DeformationParams,
    GridFunction,
    InvalidGridError,
    MomentumGrid,
    apply_momentum,
    apply_position,
    commutator_residual,
)
from mlqm.algebra import (
    differentiate,
    first_derivative_matrix,
    second_derivative_matrix,
)
from oracles import position_kernel


def gaussian_grid(p_max=10.0, n=801):
    grid = MomentumGrid.symmetric(p_max, n)
    return grid, GridFunction.from_callable(grid, lambda p: np.exp(-0.5 * p**2))


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
        with pytest.raises(ValueError):
            DeformationParams(**kwargs)

    @pytest.mark.parametrize("name", ["hbar", "beta", "gamma"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_parameters(self, name, value):
        with pytest.raises(ValueError):
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
        with pytest.raises(InvalidGridError):
            MomentumGrid(*args)


class TestGridFunction:
    def test_shape_mismatch(self):
        g = MomentumGrid.symmetric(1.0, 8)
        with pytest.raises(InvalidGridError):
            GridFunction(g, np.zeros(7))

    def test_non_finite_rejected(self):
        g = MomentumGrid.symmetric(1.0, 8)
        vals = np.zeros(8)
        vals[3] = np.inf
        with pytest.raises(InvalidGridError):
            GridFunction(g, vals)

    def test_from_callable(self):
        g = MomentumGrid.symmetric(2.0, 9)
        f = GridFunction.from_callable(g, lambda p: p**2)
        assert np.allclose(f.values, g.points**2)
        assert f.values.dtype == complex


class TestDerivatives:
    def test_fourth_order_convergence(self):
        # derivative of exp(-p^2/2): error should drop ~16x when h halves
        def err(n):
            x = np.linspace(-6, 6, n)
            f = np.exp(-0.5 * x**2)
            exact = -x * f
            num = differentiate(f, x[1] - x[0])
            return np.max(np.abs(num - exact))

        ratio = err(401) / err(801)
        assert 12.0 < ratio < 20.0

    def test_matrix_matches_stencil_in_interior(self):
        x = np.linspace(-3, 3, 121)
        h = x[1] - x[0]
        f = np.sin(x) * np.exp(-0.1 * x**2)
        d1 = first_derivative_matrix(len(x), h) @ f
        assert np.allclose(d1[2:-2], differentiate(f, h)[2:-2], atol=1e-12)

    def test_second_derivative_matrix_accuracy(self):
        x = np.linspace(-4, 4, 641)
        h = x[1] - x[0]
        f = np.exp(-0.5 * x**2)
        exact = (x**2 - 1.0) * f
        num = second_derivative_matrix(len(x), h) @ f
        assert np.max(np.abs(num[4:-4] - exact[4:-4])) < 1e-8

    def test_differentiate_needs_five_points(self):
        with pytest.raises(InvalidGridError):
            differentiate(np.zeros(4), 0.1)


class TestPositionOperator:
    def test_matches_analytic_action_on_gaussian(self):
        d = DeformationParams(hbar=1.0, beta=0.3, gamma=0.15)
        grid, phi = gaussian_grid(n=1601)
        p = grid.points
        # x phi = i*hbar*[(1+beta p^2)(-p) + gamma p] exp(-p^2/2)
        exact = 1j * ((1.0 + 0.3 * p**2) * (-p) + 0.15 * p) * phi.values
        out = apply_position(d, phi)
        assert np.max(np.abs(out.values[4:-4] - exact[4:-4])) < 2e-8

    def test_position_kernel_is_real_and_consistent(self):
        d = DeformationParams(hbar=1.0, beta=0.2, gamma=0.1)
        grid, phi = gaussian_grid(n=401)
        y = position_kernel(d, grid)
        assert np.isrealobj(y)
        via_matrix = 1j * (y @ phi.values.real)
        via_apply = apply_position(d, phi).values
        assert np.max(np.abs(via_matrix[4:-4] - via_apply[4:-4])) < 1e-9

    def test_momentum_is_multiplication(self):
        grid, phi = gaussian_grid(n=51)
        assert np.allclose(apply_momentum(phi).values, grid.points * phi.values)


class TestCommutator:
    @pytest.mark.parametrize("beta,gamma", [(0.0, 0.0), (0.1, 0.0), (0.5, 0.25)])
    def test_residual_small_for_smooth_state(self, beta, gamma):
        d = DeformationParams(hbar=1.0, beta=beta, gamma=gamma)
        _, phi = gaussian_grid(n=2001)
        assert commutator_residual(d, phi) < 1e-8

    def test_wrong_deformation_detected(self):
        # measuring the residual against the wrong target commutator must fail
        d_true = DeformationParams(hbar=1.0, beta=0.5)
        grid, phi = gaussian_grid(n=2001)
        xp = apply_position(d_true, apply_momentum(phi))
        px = apply_momentum(apply_position(d_true, phi))
        wrong_target = 1j * np.ones_like(grid.points) * phi.values  # undeformed
        resid = np.linalg.norm((xp.values - px.values - wrong_target)[4:-4])
        assert resid / np.linalg.norm(phi.values[4:-4]) > 1e-2

