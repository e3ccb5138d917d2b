"""Numerical eigensolvers against the closed-form spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse.linalg import ArpackNoConvergence

from mlqm import (
    DeformationParams,
    DisplacedOscillatorParams,
    InvalidGridError,
    MomentumGrid,
    NumericError,
    ResolutionError,
    SwansonParams,
    build_operator_hamiltonian,
    build_p_space_matrix,
    classify_spectrum,
    displaced_energy,
    displaced_transform,
    solve_p_space,
    solve_q_space,
    solve_q_space_branch,
    swanson_energy,
    swanson_spectral,
    swanson_transform,
)
from mlqm import eigensolver
from mlqm.eigensolver import CONJUGATE_PAIR, REAL, UNCLASSIFIED
from mlqm.models import displaced_coefficients, swanson_coefficients
from mlqm.verify import _low_mode_basis
from test_models import family_points


def displaced_default(beta=0.1, gamma=0.0, lam=0.5):
    return DisplacedOscillatorParams(deformation=DeformationParams(1.0, beta, gamma), lam=lam)


def swanson_default(beta=0.5, lam=0.2, delta=0.2):
    return SwansonParams(deformation=DeformationParams(1.0, beta, 0.0), lam=lam, delta=delta)


class TestClassification:
    def test_real_and_pair_tags(self):
        eigs = [1.0, 2.0 + 1e-12j, 3.0 + 0.5j, 3.0 - 0.5j, 4.0 + 0.2j]
        tags = classify_spectrum(eigs, tol=1e-9)
        assert tags == (REAL, REAL, CONJUGATE_PAIR, CONJUGATE_PAIR, UNCLASSIFIED)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_spectrum([1.0], tol=0.0)


class TestQSpace:
    def test_displaced_levels(self):
        params = displaced_default()
        problem = displaced_transform(params)
        result = solve_q_space(problem, n_grid=1200, n_levels=6)
        coeffs = displaced_coefficients(params)
        for n, eps in enumerate(result.eigenvalues):
            e_num = coeffs.energy_map.energy(eps.real)
            e_ref = displaced_energy(n, params)
            assert abs(e_num - e_ref) / abs(e_ref) < 1e-7
        assert result.all_real and result.source == "q-space-numeric"

    def test_swanson_levels(self):
        params = swanson_default()
        problem = swanson_transform(params)
        coeffs = swanson_coefficients(params)
        result = solve_q_space(problem, n_grid=1200, n_levels=6)
        for n, eps in enumerate(result.eigenvalues):
            e_num = coeffs.energy_map.energy(eps.real)
            e_ref = float(np.real(swanson_energy(n, params)))
            assert abs(e_num - e_ref) / max(abs(e_ref), 1.0) < 1e-7

    def test_grid_validation(self):
        problem = displaced_transform(displaced_default())
        with pytest.raises(InvalidGridError):
            solve_q_space(problem, n_grid=32, n_levels=2)
        with pytest.raises(ResolutionError):
            solve_q_space(problem, n_grid=100, n_levels=50)


class TestPSpace:
    def test_displaced_ode_matrix_levels(self):
        params = displaced_default()
        coeffs = displaced_coefficients(params)
        grid = MomentumGrid.symmetric(30.0, 1200)
        result = solve_p_space(build_p_space_matrix(coeffs, grid), 4)
        for n, eps in enumerate(result.eigenvalues):
            e_num = coeffs.energy_map.energy(eps.real)
            assert abs(e_num - displaced_energy(n, params)) < 1e-5
        assert result.all_real

    def test_operator_composition_agrees_with_ode_matrix(self):
        # two independent discretizations of the same Hamiltonian: the
        # literal operator composition and the reduced ODE coefficients
        params = displaced_default()
        grid = MomentumGrid.symmetric(30.0, 1200)
        coeffs = displaced_coefficients(params)
        h_op = build_operator_hamiltonian(params, grid)
        r_op = solve_p_space(h_op, 3)
        r_ode = solve_p_space(build_p_space_matrix(coeffs, grid), 3)
        e_ode = coeffs.energy_map.energy(r_ode.real_parts)
        assert np.allclose(r_op.real_parts, e_ode, atol=1e-5)

    def test_operator_hamiltonians_are_real(self):
        grid = MomentumGrid.symmetric(10.0, 200)
        assert np.isrealobj(build_operator_hamiltonian(displaced_default(), grid))
        assert np.isrealobj(build_operator_hamiltonian(swanson_default(), grid))

    def test_swanson_weighted_filter(self):
        # Swanson bound states decay polynomially; the weighted filter with a
        # loosened threshold must still find the levels
        params = swanson_default()
        coeffs = swanson_coefficients(params)
        grid = MomentumGrid.symmetric(30.0, 1200)
        result = solve_p_space(
            build_p_space_matrix(coeffs, grid),
            3,
            weight=params.deformation.measure_weight(grid.points),
            edge_ratio=1e-4,
        )
        e_num = coeffs.energy_map.energy(result.real_parts)
        e_ref = [float(np.real(swanson_energy(n, params))) for n in range(3)]
        assert np.allclose(e_num, e_ref, atol=1e-5)

    def test_resolution_error_when_filter_starves(self):
        params = swanson_default()
        coeffs = swanson_coefficients(params)
        grid = MomentumGrid.symmetric(30.0, 400)
        with pytest.raises(ResolutionError):
            solve_p_space(build_p_space_matrix(coeffs, grid), 50)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidGridError):
            solve_p_space(np.zeros((4, 5)), 1)

    def test_rejects_asymmetric_grid(self):
        coeffs = displaced_coefficients(displaced_default())
        with pytest.raises(InvalidGridError):
            build_p_space_matrix(coeffs, MomentumGrid(-1.0, 2.0, 64))


class TestBranchSolver:
    def test_real_side_of_transition(self):
        params = swanson_default(beta=1.9)
        sp = swanson_spectral(params)
        problem = swanson_transform(params)
        wall_b = sp.a_const / np.sqrt(1.9)
        result = solve_q_space_branch(problem, wall_b, n_grid=600, n_levels=4)
        assert result.all_real

    def test_complex_side_has_conjugate_pairs(self):
        params = swanson_default(beta=2.1)
        sp = swanson_spectral(params)
        problem = swanson_transform(params)
        wall_b = sp.a_const / np.sqrt(2.1)
        result = solve_q_space_branch(problem, wall_b, n_grid=600, n_levels=4)
        assert result.has_conjugate_pair
        # merged branches: pairs are exactly conjugate
        eigs = np.array(result.eigenvalues)
        pair = eigs[np.abs(eigs.imag) > 1e-8]
        assert len(pair) >= 2
        assert np.conj(pair[0]) in pair

    def test_complex_side_matches_closed_form(self):
        params = swanson_default(beta=2.1)
        sp = swanson_spectral(params)
        coeffs = swanson_coefficients(params)
        problem = swanson_transform(params)
        wall_b = sp.a_const / np.sqrt(2.1)
        result = solve_q_space_branch(problem, wall_b, n_grid=900, n_levels=2)
        e_num = coeffs.energy_map.energy(np.array(result.eigenvalues))
        e_ref = swanson_energy(0, params)
        match = min(abs(e_num - e_ref).min(), abs(e_num - np.conj(e_ref)).min())
        assert match / abs(e_ref) < 1e-2

    def test_wall_fraction_validation(self):
        problem = swanson_transform(swanson_default())
        with pytest.raises(InvalidGridError):
            solve_q_space_branch(problem, 1.0, wall_fraction=0.7)


# Dense oracle for the shift-invert low-mode solves: every eigenpair from
# np.linalg.eig, sorted by real part, and the two callers' spurious-mode
# filters restated here.

def _dense_modes(hmat):
    vals, vecs = np.linalg.eig(hmat)
    order = np.argsort(vals.real)
    return vals[order], vecs[:, order]


def _solver_keeps(vecs, weight=None):
    """solve_p_space: 4 edge points in the weighted norm plus the roughness test."""
    amp = np.abs(vecs) if weight is None else np.sqrt(weight)[:, None] * np.abs(vecs)
    edge = np.max(amp[[0, 1, -2, -1]], axis=0) <= 1e-4 * np.max(amp, axis=0)
    rough = np.linalg.norm(np.diff(vecs, axis=0), axis=0)
    smooth = np.linalg.norm(vecs[1:] + vecs[:-1], axis=0)
    return edge & (rough <= smooth)


def _basis_keeps(vecs, weight):
    """verify._low_mode_basis: 5 edge points on each side in the weighted norm."""
    amp = np.sqrt(weight)[:, None] * np.abs(vecs)
    edge = np.maximum(amp[:5].max(axis=0), amp[-5:].max(axis=0))
    return edge < 1e-4 * amp.max(axis=0)


def _rayleigh(hmat, basis):
    return np.sum(basis.conj() * (hmat @ basis), axis=0) / np.sum(np.abs(basis) ** 2, axis=0)


def _assert_matches_dense(got, vals, kept, n):
    want = vals[kept][:n]
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(family_points())
def test_shift_invert_matches_dense_oracle(params):
    # both low-mode callers keep exactly the dense survivors, or both refuse;
    # the grid is small so the dense oracle is cheap and its own rounding
    # (about 1e-16 * ||H||) stays well below the 1e-8 gate
    grid = MomentumGrid.symmetric(30.0, 150)
    hmat = build_p_space_matrix(params.family().coefficients(), grid)
    weight = params.deformation.measure_weight(grid.points)
    vals, vecs = _dense_modes(hmat)
    cases = (
        (4, _solver_keeps(vecs, weight), lambda: solve_p_space(hmat, 4, weight=weight).eigenvalues),
        (8, _basis_keeps(vecs, weight), lambda: _rayleigh(hmat, _low_mode_basis(hmat, 8, weight))),
    )
    for n, kept, solve in cases:
        if np.count_nonzero(kept) < n:
            with pytest.raises(ResolutionError):
                solve()
        else:
            _assert_matches_dense(solve(), vals, kept, n)


@pytest.fixture
def requested_k(monkeypatch):
    """The k of every shift-invert call made during the test."""
    requested = []
    eigs = eigensolver.sparse_linalg.eigs

    def spy(a, k, **kwargs):
        requested.append(k)
        return eigs(a, k=k, **kwargs)

    monkeypatch.setattr(eigensolver.sparse_linalg, "eigs", spy)
    return requested


class TestLowModes:
    def test_widening_past_interleaved_parasites(self, requested_k):
        # the operator-composed matrix interleaves checkerboard parasites with
        # the bound states, so 14 levels are not among the first 22 modes
        grid = MomentumGrid.symmetric(30.0, 300)
        hmat = build_operator_hamiltonian(displaced_default(), grid)
        result = solve_p_space(hmat, 14)
        assert requested_k == [22, 44]
        vals, vecs = _dense_modes(hmat)
        _assert_matches_dense(result.eigenvalues, vals, _solver_keeps(vecs), 14)

    def test_starved_filter_stops_at_the_cap(self, requested_k):
        params = swanson_default()
        grid = MomentumGrid.symmetric(30.0, 160)
        with pytest.raises(ResolutionError, match="only 3 non-spurious modes found, 50 requested"):
            solve_p_space(build_p_space_matrix(swanson_coefficients(params), grid), 50)
        assert requested_k == [58, 116, 128]

    def test_same_matrix_gives_the_same_digits(self):
        grid = MomentumGrid.symmetric(30.0, 400)
        hmat = build_p_space_matrix(displaced_coefficients(displaced_default()), grid)
        assert solve_p_space(hmat, 4).eigenvalues == solve_p_space(hmat, 4).eigenvalues

    def test_singular_shift_is_a_numeric_error(self):
        # sigma = 0 is an exact eigenvalue, so the shifted LU factor is singular
        with pytest.raises(NumericError, match="shift-invert eigensolve failed"):
            solve_p_space(np.diag(np.arange(64.0)), 4)

    def test_arpack_non_convergence_is_a_numeric_error(self, monkeypatch):
        def stall(a, k, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.array([]), np.array([]))

        monkeypatch.setattr(eigensolver.sparse_linalg, "eigs", stall)
        grid = MomentumGrid.symmetric(30.0, 400)
        with pytest.raises(NumericError, match="No convergence"):
            solve_p_space(build_p_space_matrix(displaced_coefficients(displaced_default()), grid), 4)
