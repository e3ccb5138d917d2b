"""Numerical eigensolvers against the closed-form spectra."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as sparse_linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse import csc_array
from scipy.sparse.linalg import ArpackNoConvergence

from mlqm import (
    DeformationParams,
    DisplacedOscillatorParams,
    InvalidGridError,
    MomentumGrid,
    NumericError,
    ResolutionError,
    SwansonParams,
    build_p_space_matrix,
    classify_spectrum,
    displaced_energy,
    displaced_transform,
    p_space_operator,
    solve_p_space,
    solve_q_space,
    solve_q_space_branch,
    swanson_beta_c,
    swanson_energy,
    swanson_transform,
)
from mlqm import eigensolver
from mlqm.algebra import first_derivative_matrix, second_derivative_matrix
from mlqm.eigensolver import CONJUGATE_PAIR, REAL, UNCLASSIFIED
from mlqm.models import displaced_coefficients, swanson_coefficients
from mlqm.verify import _low_mode_basis
from oracles import fd_q_box_levels, operator_hamiltonian
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
        result = solve_q_space(problem, n_levels=6)
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
        result = solve_q_space(problem, n_levels=6)
        for n, eps in enumerate(result.eigenvalues):
            e_num = coeffs.energy_map.energy(eps.real)
            e_ref = float(np.real(swanson_energy(n, params)))
            assert abs(e_num - e_ref) / max(abs(e_ref), 1.0) < 1e-7

    def test_grid_validation(self):
        problem = displaced_transform(displaced_default())
        unbounded = dataclasses.replace(problem, q_max=np.inf)
        with pytest.raises(InvalidGridError, match="solve_q_space needs a finite q-box"):
            solve_q_space(unbounded, n_levels=2)


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
        # the composition interleaves checkerboard parasites with the bound
        # states, so its levels are the smooth ones among the 11 lowest modes
        vals, vecs = eigensolver._low_modes(operator_hamiltonian(params, grid), 11)
        e_op = vals[_smooth(vecs)][:3].real
        r_ode = solve_p_space(build_p_space_matrix(coeffs, grid), 3)
        e_ode = coeffs.energy_map.energy(r_ode.real_parts)
        assert np.allclose(e_op, e_ode, atol=1e-5)

    def test_operator_hamiltonians_are_real(self):
        grid = MomentumGrid.symmetric(10.0, 200)
        assert np.isrealobj(operator_hamiltonian(displaced_default(), grid))
        assert np.isrealobj(operator_hamiltonian(swanson_default(), grid))

    def test_swanson_weighted_filter(self):
        # Swanson bound states decay polynomially; the weighted filter with its
        # 1e-4 threshold must still find the levels
        params = swanson_default()
        coeffs = swanson_coefficients(params)
        grid = MomentumGrid.symmetric(30.0, 1200)
        result = solve_p_space(
            build_p_space_matrix(coeffs, grid),
            3,
            weight=params.deformation.measure_weight(grid.points),
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

    @pytest.mark.parametrize(
        "params",
        [displaced_default(gamma=0.05), SwansonParams(DeformationParams(1.0, 0.5, 0.1), lam=0.3, delta=0.1)],
        ids=["displaced", "swanson"],
    )
    def test_band_assembly_equals_stencil_products(self, params):
        # the bands are written directly; they must reproduce the dense
        # stencil products digit for digit, edge rows included
        coeffs = params.family().coefficients()
        grid = MomentumGrid.symmetric(20.0, 301)
        p, n, step = grid.points, grid.n_points, grid.spacing
        f, g, h = coeffs.f(p), coeffs.g(p), coeffs.h(p)
        dense = (
            -f[:, None] * second_derivative_matrix(n, step)
            + g[:, None] * first_derivative_matrix(n, step)
            + np.diag(h)
        )
        hmat = build_p_space_matrix(coeffs, grid)
        assert type(hmat) is np.ndarray and hmat.shape == (n, n)
        assert np.array_equal(hmat, dense)

    @pytest.mark.parametrize(
        "params",
        [displaced_default(gamma=0.05), SwansonParams(DeformationParams(1.0, 0.5, 0.1), lam=0.3, delta=0.1)],
        ids=["displaced", "swanson"],
    )
    def test_csc_operator_is_the_csc_of_the_dense_matrix(self, params):
        # the same stored entries in the same order, so ARPACK factors the same matrix
        coeffs = params.family().coefficients()
        grid = MomentumGrid.symmetric(20.0, 301)
        op = p_space_operator(coeffs, grid)
        ref = csc_array(build_p_space_matrix(coeffs, grid))
        assert op.format == "csc" and op.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op, part), getattr(ref, part)), part


class TestBranchSolver:
    def test_real_side_of_transition(self):
        problem = swanson_transform(swanson_default(beta=1.9))
        result = solve_q_space_branch(problem, n_levels=4)
        assert result.all_real

    def test_complex_side_has_conjugate_pairs(self):
        problem = swanson_transform(swanson_default(beta=2.1))
        result = solve_q_space_branch(problem, n_levels=4)
        assert result.has_conjugate_pair
        # merged branches: pairs are exactly conjugate
        eigs = np.array(result.eigenvalues)
        pair = eigs[np.abs(eigs.imag) > 1e-8]
        assert len(pair) >= 2
        assert np.conj(pair[0]) in pair

    def test_complex_side_matches_closed_form(self):
        params = swanson_default(beta=2.1)
        coeffs = swanson_coefficients(params)
        problem = swanson_transform(params)
        result = solve_q_space_branch(problem, n_levels=2)
        e_num = coeffs.energy_map.energy(np.array(result.eigenvalues))
        e_ref = swanson_energy(0, params)
        match = min(abs(e_num - e_ref).min(), abs(e_num - np.conj(e_ref)).min())
        assert match / abs(e_ref) < 1e-2

    def test_one_solver(self):
        assert solve_q_space_branch is solve_q_space


# Dense oracle for the shift-invert low-mode solves: every eigenpair from
# np.linalg.eig, sorted by real part, and the box-edge guard restated here.

def _dense_modes(hmat):
    vals, vecs = np.linalg.eig(hmat)
    order = np.argsort(vals.real)
    return vals[order], vecs[:, order]


def _reaches_edge(vecs, weight):
    """The guard: weighted amplitude at the 2 outermost points on either side above 1e-4 of the peak."""
    amp = np.sqrt(weight)[:, None] * np.abs(vecs)
    return ~(np.max(amp[[0, 1, -2, -1]], axis=0) <= 1e-4 * np.max(amp, axis=0))


def _smooth(vecs):
    """Not a grid-scale checkerboard: the nearest-neighbour difference does not exceed the sum."""
    rough = np.linalg.norm(np.diff(vecs, axis=0), axis=0)
    smooth = np.linalg.norm(vecs[1:] + vecs[:-1], axis=0)
    return rough <= smooth


def _rayleigh(hmat, basis):
    return np.sum(basis.conj() * (hmat @ basis), axis=0) / np.sum(np.abs(basis) ** 2, axis=0)


def _assert_matches_dense(got, want):
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(family_points())
def test_shift_invert_matches_dense_oracle(params):
    # both guarded callers return the n lowest dense modes, or refuse exactly
    # when one of them reaches the box edge; the grid is small so the dense
    # oracle is cheap and its own rounding (about 1e-16 * ||H||) stays well
    # below the 1e-8 gate
    grid = MomentumGrid.symmetric(30.0, 150)
    hmat = build_p_space_matrix(params.family().coefficients(), grid)
    weight = params.deformation.measure_weight(grid.points)
    vals, vecs = _dense_modes(hmat)
    cases = (
        (4, lambda: solve_p_space(hmat, 4, weight=weight).eigenvalues),
        (8, lambda: _rayleigh(hmat, _low_mode_basis(hmat, 8, weight))),
    )
    for n, solve in cases:
        if _reaches_edge(vecs[:, :n], weight).any():
            with pytest.raises(ResolutionError):
                solve()
        else:
            _assert_matches_dense(solve(), vals[:n])


@st.composite
def branch_points(draw, lo=0.6, hi=1.4):
    """Swanson parameters with gamma >= 0 and beta in [lo, hi] * beta_c."""
    lam, delta = draw(st.floats(0.1, 0.35)), draw(st.floats(0.1, 0.35))
    beta = draw(st.floats(lo, hi)) * swanson_beta_c(swanson_default(lam=lam, delta=delta))
    gamma = draw(st.floats(0.0, beta))
    return SwansonParams(DeformationParams(1.0, beta, gamma), lam=lam, delta=delta)


def closed_form_eps(params, n_levels):
    """The n_levels lowest closed-form eps_n = (A + n sqrt(beta))^2 + offset, merged with their conjugates past beta_c."""
    sp = params.family().spectral()
    eps = (sp.a_const + np.arange(n_levels) * np.sqrt(params.deformation.beta)) ** 2 + sp.offset
    if np.isrealobj(eps):
        return eps
    eps = np.concatenate([eps, np.conj(eps)])
    return eps[np.lexsort((eps.imag, eps.real))][:n_levels]


def _assert_matches_closed_form(params, solve):
    got = np.array(solve(params.family().transform(), 4).eigenvalues)
    want = closed_form_eps(params, 4)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    assert np.any(got.imag != 0) == np.iscomplexobj(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family_points())
def test_q_box_levels_match_the_closed_form(params):
    # both models, gamma >= 0
    _assert_matches_closed_form(params, solve_q_space)


# One example set per side of the Swanson beta_c. The oracle is the closed form: a dense
# finite-difference solve of the q-box is far less accurate than the collocation it would check.
# Within 1% of beta_c the two wall exponents nearly coincide, and at beta_c itself B is a double
# root: there B, and every level, moves as the square root of the nu fit's rounding (1e-12 -> 1e-6).
@pytest.mark.parametrize("lo, hi", [(0.6, 0.99), (1.01, 1.4)], ids=["below", "past"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_branch_solver_matches_dense_oracle(lo, hi, data):
    _assert_matches_closed_form(data.draw(branch_points(lo, hi)), solve_q_space_branch)


def perturbed(params):
    """The transformed problem of ``params`` with 0.3 beta exp(sin(sqrt(beta) q)) added to V: smooth in z, no closed form."""
    problem = params.family().transform()
    beta = params.deformation.beta
    return dataclasses.replace(
        problem, potential=lambda q: problem.potential(q) + 0.3 * beta * np.exp(np.sin(np.sqrt(beta) * q))
    )


#: the displaced CLI defaults and the benchmark's seed-1 Swanson draw, both with a real wall exponent
PERTURBED_POINTS = [displaced_default(), swanson_default(beta=0.452755, lam=0.262753, delta=0.124772)]


@pytest.mark.parametrize(
    "params", PERTURBED_POINTS + [swanson_default(beta=2.3)], ids=["displaced", "swanson", "swanson-past-beta-c"]
)
def test_perturbed_potential_converges(params):
    # a misfitted nu leaves a nu z^2/(1-z^2) term that stalls the convergence past beta_c
    problem = perturbed(params)
    got = np.array(solve_q_space(problem, 4).eigenvalues)
    # 16 levels collocate on 96 points, twice the 48 of 4 levels
    doubled = np.array(solve_q_space(problem, 16).eigenvalues[:4])
    assert np.all(np.abs(got - doubled) <= 1e-10 * np.maximum(1.0, np.abs(doubled)))


@pytest.mark.parametrize("params", PERTURBED_POINTS, ids=["displaced", "swanson"])
def test_perturbed_potential_matches_the_fd_oracle(params):
    problem = perturbed(params)
    got = np.array(solve_q_space(problem, 4).eigenvalues)
    wall_b = params.family().spectral().a_const / np.sqrt(params.deformation.beta)
    want = fd_q_box_levels(problem, wall_b, 4)
    assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(family_points(), branch_points()))
def test_wall_exponent_read_from_the_potential(params):
    # both models, gamma >= 0, both sides of the Swanson beta_c; the closed form is only the oracle here
    problem = params.family().transform()
    want = params.family().spectral().a_const / np.sqrt(params.deformation.beta)
    assert abs(eigensolver._indicial_root(problem) - want) <= 1e-9 * abs(want)


class TestBranchSolverBands:
    @pytest.mark.parametrize("beta", [1.9, 2.3])
    def test_same_problem_gives_the_same_digits(self, beta):
        problem = swanson_transform(swanson_default(beta=beta))
        first = solve_q_space_branch(problem, n_levels=4)
        assert first.eigenvalues == solve_q_space_branch(problem, n_levels=4).eigenvalues

    @pytest.mark.parametrize("beta", [1.9, 2.3])
    def test_levels_follow_a_shift_of_the_potential(self, beta):
        # pushing every level far below zero must not change which levels come back
        problem = swanson_transform(swanson_default(beta=beta))
        lowered = dataclasses.replace(problem, potential=lambda q: problem.potential(q) - 1e3)
        eigs = np.array(solve_q_space_branch(problem, n_levels=4).eigenvalues)
        low = np.array(solve_q_space_branch(lowered, n_levels=4).eigenvalues)
        assert np.allclose(low, eigs - 1e3, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("n_levels", [0, 501])
    def test_refuses_unresolvable_level_counts(self, n_levels):
        problem = swanson_transform(swanson_default())
        with pytest.raises(ResolutionError, match=f"cannot resolve {n_levels} q-box levels; need 1 <= levels <= 500"):
            solve_q_space_branch(problem, n_levels=n_levels)

    def test_non_finite_potential_is_a_numeric_error(self):
        problem = swanson_transform(swanson_default(beta=2.3))
        broken = dataclasses.replace(problem, potential=lambda q: np.where(q > 0, np.nan, problem.potential(q)))
        with pytest.raises(NumericError, match="q-box eigensolve failed: array must not contain infs or NaNs"):
            solve_q_space_branch(broken, n_levels=4)


@pytest.fixture
def requested_k(monkeypatch):
    """The k of every shift-invert call made during the test."""
    requested = []
    eigs = sparse_linalg.eigs

    def spy(a, k, **kwargs):
        requested.append(k)
        return eigs(a, k=k, **kwargs)

    monkeypatch.setattr(sparse_linalg, "eigs", spy)
    return requested


class TestLowModes:
    def test_interleaved_parasites_are_returned_in_one_call(self, requested_k):
        # the operator-composed matrix interleaves checkerboard parasites with
        # the bound states; none reaches the box edge, so the guard passes and
        # the 14 lowest modes, parasites included, come from one call
        grid = MomentumGrid.symmetric(30.0, 300)
        hmat = operator_hamiltonian(displaced_default(), grid)
        result = solve_p_space(hmat, 14)
        assert requested_k == [22]
        vals, _ = _dense_modes(hmat)
        _assert_matches_dense(result.eigenvalues, vals[:14])

    def test_starved_filter_stops_at_the_cap(self, requested_k):
        # the edge guard checks the n lowest modes of one ARPACK call with
        # k = n + 8 and refuses there, without asking for more modes
        params = swanson_default()
        grid = MomentumGrid.symmetric(30.0, 160)
        with pytest.raises(ResolutionError, match="the box edge holds 47 of the 50 lowest p-space modes"):
            solve_p_space(build_p_space_matrix(swanson_coefficients(params), grid), 50)
        assert requested_k == [58]

    def test_more_modes_than_arpack_returns_are_refused(self):
        # ARPACK returns at most N - 2 modes
        with pytest.raises(ResolutionError, match="cannot resolve 9 modes of a 10x10 matrix"):
            solve_p_space(np.diag(np.arange(1.0, 11.0)), 9)

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

        monkeypatch.setattr(sparse_linalg, "eigs", stall)
        grid = MomentumGrid.symmetric(30.0, 400)
        with pytest.raises(NumericError, match="No convergence"):
            solve_p_space(build_p_space_matrix(displaced_coefficients(displaced_default()), grid), 4)
