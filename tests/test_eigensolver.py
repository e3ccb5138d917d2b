"""Numerical eigensolvers against the closed-form spectra."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csc_array

from mlqm import (
    ConfigurationError,
    DeformationParams,
    DisplacedOscillatorParams,
    MomentumGrid,
    NumericError,
    SwansonParams,
    build_p_space_matrix,
    displaced_energy,
    displaced_transform,
    solve_p_space,
    solve_q_space,
    solve_q_space_branch,
    swanson_beta_c,
    swanson_energy,
    swanson_transform,
)
from mlqm import eigensolver
from mlqm.eigensolver import theta_modes
from mlqm.models import displaced_coefficients, swanson_coefficients
from mlqm.pct import _larger_root
from mlqm.verify import PROJECTION_MODES, _low_mode_basis
from oracles import (
    _dense, band_csc, fd_p_space_levels, fd_q_box_levels, low_modes, operator_hamiltonian, p_space_operator,
)
from test_models import _log_uniform, family_points


def displaced_default(beta=0.1, gamma=0.0, lam=0.5):
    return DisplacedOscillatorParams(deformation=DeformationParams(1.0, beta, gamma), lam=lam)


def swanson_default(beta=0.5, lam=0.2, delta=0.2):
    return SwansonParams(deformation=DeformationParams(1.0, beta, 0.0), lam=lam, delta=delta)


class TestSharedRules:
    def test_lowest_merges_conjugates_and_orders_by_real_then_imaginary_part(self):
        eigs = np.array([3.0 + 0.5j, 1.0 + 0.0j, 9.0 - 2.0j])
        assert eigensolver._lowest(eigs, 3, merge=True) == (1.0, 1.0, 3.0 - 0.5j)
        assert eigensolver._lowest(eigs.real, 2) == (1.0, 3.0)

    def test_larger_root_is_real_when_it_can_be_and_does_not_cancel(self):
        x = _larger_root(1.0, 1e8, 1.0, 1e-14)  # x^2 + 1e8 x + 1: (-b + root)/2a keeps no digit
        assert type(x) is float and x == pytest.approx(-1e-8, rel=1e-15)
        assert _larger_root(1.0, -1.0, 0.5, 1e-14) == 0.5 + 0.5j

    def test_larger_root_snaps_a_rounding_level_discriminant_to_a_double_root(self):
        # B(B - 1) = -1/4 has the double root 1/2; a coefficient off by 1e-15 would move it by 3e-8
        assert _larger_root(1.0, -1.0, 0.25 + 1e-15, 1e-11) == 0.5
        assert isinstance(_larger_root(1.0, -1.0, 0.25 + 1e-15, 1e-16), complex)


class TestQSpace:
    def test_displaced_levels(self):
        params = displaced_default()
        problem = displaced_transform(params)
        result = solve_q_space(problem, n_levels=6)
        emap = params.family().energy_map
        for n, eps in enumerate(result.eigenvalues):
            e_num = emap.energy(eps.real)
            e_ref = displaced_energy(n, params)
            assert abs(e_num - e_ref) / abs(e_ref) < 1e-7
        assert not result.has_conjugate_pair

    def test_swanson_levels(self):
        params = swanson_default()
        problem = swanson_transform(params)
        emap = params.family().energy_map
        result = solve_q_space(problem, n_levels=6)
        for n, eps in enumerate(result.eigenvalues):
            e_num = emap.energy(eps.real)
            e_ref = float(np.real(swanson_energy(n, params)))
            assert abs(e_num - e_ref) / max(abs(e_ref), 1.0) < 1e-7

    def test_grid_validation(self):
        problem = displaced_transform(displaced_default())
        unbounded = dataclasses.replace(problem, q_max=np.inf)
        with pytest.raises(ConfigurationError, match="solve_q_space needs a finite q-box"):
            solve_q_space(unbounded, n_levels=2)


def closed_form_energies(params, n_levels):
    return np.array([complex(params.energy(n)) for n in range(n_levels)])


def p_space_energies(params, n_levels):
    family = params.family()
    result = solve_p_space(family.coefficients(), params.deformation, n_levels)
    return family.energy_map.energy(np.array(result.eigenvalues)), result


class TestPSpace:
    def test_displaced_ode_matrix_levels(self):
        params = displaced_default()
        e_num, result = p_space_energies(params, 4)
        assert np.all(np.abs(e_num - closed_form_energies(params, 4)) < 1e-12)
        assert not result.has_conjugate_pair and result.resolution == 24

    def test_operator_composition_agrees_with_ode_matrix(self):
        # two independent discretizations of the same Hamiltonian: the literal
        # operator composition on a finite-difference grid and the collocated
        # ODE coefficients
        params = displaced_default()
        grid = MomentumGrid.symmetric(30.0, 1200)
        # the composition interleaves checkerboard parasites with the bound
        # states, so its levels are the smooth ones among the 11 lowest modes
        vals, vecs = low_modes(operator_hamiltonian(params, grid), 11)
        e_op = vals[_smooth(vecs)][:3].real
        e_ode = p_space_energies(params, 3)[0]
        assert np.allclose(e_op, e_ode, atol=1e-5)

    def test_operator_hamiltonians_are_real(self):
        grid = MomentumGrid.symmetric(10.0, 200)
        assert np.isrealobj(operator_hamiltonian(displaced_default(), grid))
        assert np.isrealobj(operator_hamiltonian(swanson_default(), grid))

    def test_swanson_weighted_filter(self):
        # Swanson bound states decay only polynomially in p; in the measure-weighted
        # norm they still pass the box's norm-share guard, and on the grid they are
        # the finite-difference operator's modes: on the rows whose stencil stays on
        # the grid, their Rayleigh quotients are the levels
        params = SwansonParams(DeformationParams(1.0, 0.5, 0.0), lam=0.3, delta=0.1)
        coeffs = swanson_coefficients(params)
        grid = MomentumGrid.symmetric(30.0, 1200)
        basis = _low_mode_basis(coeffs, params.deformation, grid, 3)
        hmat = build_p_space_matrix(coeffs, grid)
        inside = slice(2, -2)
        rayleigh = np.sum(basis[inside] * (hmat @ basis)[inside], axis=0) / np.sum(basis[inside] ** 2, axis=0)
        e_ref = closed_form_energies(params, 3).real
        assert np.allclose(params.family().energy_map.energy(rayleigh), e_ref, atol=1e-5)

    def test_resolution_error_when_filter_starves(self):
        # on |p| <= 3 the box cuts every projection mode off
        params = displaced_default()
        with pytest.raises(NumericError, match=(
            "8 of the 8 lowest p-space modes hold more than 0.0001 of their norm beyond |p| = 3; enlarge the grid"
        )):
            _low_mode_basis(displaced_coefficients(params), params.deformation, MomentumGrid.symmetric(3.0, 400))

    def test_rejects_asymmetric_grid(self):
        coeffs = displaced_coefficients(displaced_default())
        with pytest.raises(ConfigurationError, match="p-space assembly requires a symmetric grid"):
            build_p_space_matrix(coeffs, MomentumGrid(-1.0, 2.0, 64))

    @pytest.mark.parametrize(
        "params",
        [displaced_default(gamma=0.05), SwansonParams(DeformationParams(1.0, 0.5, 0.1), lam=0.3, delta=0.1)],
        ids=["displaced", "swanson"],
    )
    def test_band_assembly_equals_stencil_products(self, params):
        # the oracle writes the bands directly; they must reproduce the dense
        # stencil products digit for digit, edge rows included
        coeffs = params.family().coefficients()
        grid = MomentumGrid.symmetric(20.0, 301)
        hmat = build_p_space_matrix(coeffs, grid)
        assert type(hmat) is np.ndarray and hmat.shape == (grid.n_points, grid.n_points)
        assert np.array_equal(hmat, _dense(p_space_operator(coeffs, grid)))

    @pytest.mark.parametrize(
        "params",
        [displaced_default(gamma=0.05), SwansonParams(DeformationParams(1.0, 0.5, 0.1), lam=0.3, delta=0.1)],
        ids=["displaced", "swanson"],
    )
    def test_csc_operator_is_the_csc_of_the_dense_matrix(self, params):
        # row k of the band array is the diagonal at offset k - 2, zero where its column falls
        # off the grid: the finite-difference oracle's CSC form of it stores exactly the
        # entries of the dense matrix's, in the same order
        coeffs = params.family().coefficients()
        grid = MomentumGrid.symmetric(20.0, 301)
        bands = p_space_operator(coeffs, grid)
        assert bands.shape == (5, grid.n_points)
        op, ref = band_csc(bands), csc_array(build_p_space_matrix(coeffs, grid))
        assert op.shape == ref.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op, part), getattr(ref, part)), part
        assert np.linalg.norm(bands) == pytest.approx(np.linalg.norm(ref.data), rel=1e-14)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(family_points())
def test_p_space_levels_match_the_closed_form(params):
    # both models, gamma in [0, beta]; no p-grid, no box
    got = p_space_energies(params, 4)[0]
    want = closed_form_energies(params, 4)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("params", [
    DisplacedOscillatorParams(DeformationParams(1.0, 1e6, 0.0), lam=0.5),
    DisplacedOscillatorParams(DeformationParams(1.0, 0.1, 0.0), lam=5.0),
    SwansonParams(DeformationParams(1.0, 1.5, 0.0), lam=0.2, delta=0.2),
    SwansonParams(DeformationParams(1.0, 1.9, 0.0), lam=0.2, delta=0.2),
    SwansonParams(DeformationParams(1.0, 6.0, 0.0), lam=0.2, delta=0.2),
], ids=["beta-1e6", "lambda-5", "swanson-1.5", "swanson-1.9", "swanson-6"])
def test_p_space_levels_far_from_the_desk_scale(params):
    # the runs whose finite-difference p-box levels were off by 1e-4 to 1e3
    got = p_space_energies(params, 4)[0]
    want = closed_form_energies(params, 4)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def perturbed_h(params):
    """The coefficients of ``params`` with 0.3 beta exp(z) added to h, z = sqrt(beta) p/sqrt(1 + beta p^2): no closed form."""
    coeffs = params.family().coefficients()
    sqb = np.sqrt(params.deformation.beta)
    return dataclasses.replace(coeffs, h=lambda p: coeffs.h(p) + 0.3 * sqb**2 * np.exp(sqb * p / np.sqrt(1.0 + (sqb * p) ** 2)))


#: the displaced CLI defaults and the benchmark's seed-1 Swanson draw
PERTURBED_P_POINTS = [displaced_default(), swanson_default(beta=0.452755, lam=0.262753, delta=0.124772)]


@pytest.mark.parametrize("params", PERTURBED_P_POINTS, ids=["displaced", "swanson"])
def test_perturbed_h_converges_and_matches_the_fd_oracle(params):
    coeffs = perturbed_h(params)
    got = np.array(solve_p_space(coeffs, params.deformation, 4).eigenvalues)
    # 16 levels collocate on 48 points, twice the 24 of 4 levels
    doubled = np.array(solve_p_space(coeffs, params.deformation, 16).eigenvalues[:4])
    assert np.all(np.abs(got - doubled) <= 1e-10 * np.maximum(1.0, np.abs(doubled)))
    # the Swanson modes decay only as a power of p, so its box is wider
    p_max, n_points = (30.0, 1201) if isinstance(params, DisplacedOscillatorParams) else (200.0, 8001)
    want = fd_p_space_levels(coeffs, p_max, n_points, 4)
    assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


class TestBranchSolver:
    def test_real_side_of_transition(self):
        problem = swanson_transform(swanson_default(beta=1.9))
        result = solve_q_space_branch(problem, n_levels=4)
        assert not result.has_conjugate_pair

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
        problem = swanson_transform(params)
        result = solve_q_space_branch(problem, n_levels=2)
        e_num = params.family().energy_map.energy(np.array(result.eigenvalues))
        e_ref = swanson_energy(0, params)
        match = min(abs(e_num - e_ref).min(), abs(e_num - np.conj(e_ref)).min())
        assert match / abs(e_ref) < 1e-2

    def test_one_solver(self):
        assert solve_q_space_branch is solve_q_space


def _smooth(vecs):
    """Not a grid-scale checkerboard: the nearest-neighbour difference does not exceed the sum."""
    rough = np.linalg.norm(np.diff(vecs, axis=0), axis=0)
    smooth = np.linalg.norm(vecs[1:] + vecs[:-1], axis=0)
    return rough <= smooth


@st.composite
def branch_points(draw, lo=0.6, hi=1.4):
    """Swanson parameters with gamma >= 0 and beta in [lo, hi] * beta_c."""
    lam, delta = draw(st.floats(0.1, 0.35)), draw(st.floats(0.1, 0.35))
    beta = draw(st.floats(lo, hi)) * swanson_beta_c(swanson_default(lam=lam, delta=delta))
    gamma = draw(st.floats(0.0, beta))
    return SwansonParams(DeformationParams(1.0, beta, gamma), lam=lam, delta=delta)


def closed_form_eps(params, n_levels):
    """The n_levels lowest closed-form eps_n = beta (B + n)^2 + offset, merged with their conjugates past beta_c."""
    family = params.family()
    eps = params.deformation.beta * (family.wall_exponent + np.arange(n_levels)) ** 2 + family.offset
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
# Within 1% of beta_c the two wall exponents nearly coincide, and B, with every level, moves as
# the square root of the nu fit's rounding (7e-15 -> 1e-7); at beta_c itself B is taken as the
# double root (test_reality_threshold_gives_the_real_ladder).
@pytest.mark.parametrize("lo, hi", [(0.6, 0.99), (1.01, 1.4)], ids=["below", "past"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_branch_solver_matches_dense_oracle(lo, hi, data):
    _assert_matches_closed_form(data.draw(branch_points(lo, hi)), solve_q_space_branch)


@pytest.mark.parametrize("lo, hi", [(0.6, 0.99), (1.01, 1.4)], ids=["below", "past"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_p_space_solve_follows_the_branch(lo, hi, data):
    # past beta_c the decay exponent s is complex, and the levels are merged with their conjugates
    params = data.draw(branch_points(lo, hi))
    got = np.array(solve_p_space(params.family().coefficients(), params.deformation, 4).eigenvalues)
    want = closed_form_eps(params, 4)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
    assert np.any(got.imag != 0) == np.iscomplexobj(want)


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
    # 16 levels collocate on 48 points, twice the 24 of 4 levels
    doubled = np.array(solve_q_space(problem, 16).eigenvalues[:4])
    assert np.all(np.abs(got - doubled) <= 1e-10 * np.maximum(1.0, np.abs(doubled)))


@pytest.mark.parametrize("params", PERTURBED_POINTS, ids=["displaced", "swanson"])
def test_perturbed_potential_matches_the_fd_oracle(params):
    problem = perturbed(params)
    got = np.array(solve_q_space(problem, 4).eigenvalues)
    wall_b = params.family().wall_exponent
    want = fd_q_box_levels(problem, wall_b, 4)
    assert np.all(np.abs(got - want) <= 1e-8 * np.maximum(1.0, np.abs(want)))


def at_beta_c(lam, delta):
    """Swanson parameters with gamma = 0 at exactly the reality threshold beta_c."""
    beta = swanson_beta_c(swanson_default(lam=lam, delta=delta))
    return SwansonParams(DeformationParams(1.0, beta, 0.0), lam=lam, delta=delta)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(family_points(), branch_points()))
@example(at_beta_c(0.3125, 0.25))
@example(at_beta_c(0.2, 0.2))
@example(at_beta_c(0.3, 0.1))
@example(at_beta_c(0.25, 0.15))
def test_wall_exponent_read_from_the_potential(params):
    # both models, gamma >= 0, both sides of the Swanson beta_c; the closed form is only the oracle here
    problem = params.family().transform()
    beta, family = params.deformation.beta, params.family()
    got = eigensolver._indicial_root(problem)
    if abs(1.0 + 4.0 * family.nu / beta) <= 1e-8:
        # at beta_c the oracle B is the square root of a rounding-level discriminant,
        # 1.4-2.1e-8 off the double root B = 1/2 that the fit snaps to; nu = beta B (B - 1) is not
        assert abs(beta * got * (got - 1.0) - family.nu) <= 1e-12 * (abs(family.nu) + beta)
    else:
        want = family.wall_exponent
        assert abs(got - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("gamma", [0.0, 1.0])
def test_reality_threshold_gives_the_real_ladder(gamma):
    # at beta_c = 2 the roots of B(B - 1) = nu/beta, and those of the p-space decay exponent,
    # coincide, so a root read off its fit's rounding would be complex by the square root of
    # that rounding and turn the real ladder -1, 3, 11, 23 into conjugate pairs
    params = SwansonParams(DeformationParams(1.0, 2.0, gamma), lam=0.25, delta=0.25)
    assert eigensolver._indicial_root(params.family().transform()) == 0.5
    for got in (
        solve_q_space(params.family().transform(), 4).eigenvalues,
        solve_p_space(params.family().coefficients(), params.deformation, 4).eigenvalues,
    ):
        got = np.array(got)
        assert np.all(got.imag == 0)
        assert np.all(np.abs(got.real - [-1.0, 3.0, 11.0, 23.0]) <= 1e-12 * 23.0)


@st.composite
def swanson_threshold_points(draw):
    """(lambda, delta, hbar, m, gamma) of a Swanson model with a reality threshold; gamma as a share of beta_c."""
    lam, delta = draw(st.floats(0.05, 0.45)), draw(st.floats(0.05, 0.45))
    hbar, mass = draw(_log_uniform(0.2, 5.0)), draw(_log_uniform(0.2, 5.0))
    return lam, delta, hbar, mass, draw(st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(swanson_threshold_points())
def test_both_solves_snap_at_beta_c_and_pair_just_past_it(point):
    # each solve misreads its discriminant by up to 7e-15 of its scale and takes 1e-13 of it as zero, so
    # the float beta_c is the real ladder; at 1e-9 past it the discriminant is far outside the snap
    lam, delta, hbar, mass, share = point
    beta_c = swanson_beta_c(SwansonParams(DeformationParams(hbar, 1.0, 0.0), m=mass, lam=lam, delta=delta))
    for beta, paired in ((beta_c, False), (beta_c * (1.0 + 1e-9), True)):
        params = SwansonParams(DeformationParams(hbar, beta, share * beta_c), m=mass, lam=lam, delta=delta)
        family = params.family()
        q_box = solve_q_space(family.transform(), 4)
        theta = solve_p_space(family.coefficients(), params.deformation, 4)
        assert (q_box.has_conjugate_pair, theta.has_conjugate_pair) == (paired, paired), beta


@pytest.mark.parametrize("hbar, mass, beta", [(2.0, 1.5, 0.1), (0.5, 3.0, 0.4), (0.3, 0.5, 6.0), (2.0, 0.5, 3.0)],
                         ids=["hbar-m-beta-0.3", "hbar-m-beta-0.6", "hbar-m-beta-0.9", "past-beta-c"])
def test_swanson_levels_depend_on_hbar_m_beta_alone(hbar, mass, beta):
    # the momentum scale is sqrt(hbar m omega), so E(hbar, m, beta) = E(1, 1, hbar m beta) at fixed omega,
    # lambda and delta; beta_c is 2.18 at hbar m = 1, so the last point reads conjugate pairs
    levels = []
    for params in (SwansonParams(DeformationParams(hbar, beta, 0.0), m=mass, lam=0.3, delta=0.1),
                   SwansonParams(DeformationParams(1.0, hbar * mass * beta, 0.0), lam=0.3, delta=0.1)):
        family = params.family()
        q = solve_q_space(family.transform(), 4).eigenvalues
        p = solve_p_space(family.coefficients(), params.deformation, 4).eigenvalues
        levels.append(family.energy_map.energy(np.array([q, p])))
    scaled, unit = levels
    assert np.all(np.abs(scaled - unit) <= 1e-10 * np.maximum(1.0, np.abs(unit)))
    assert np.all((unit.imag != 0) == (hbar * mass * beta > 2.18))


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
        with pytest.raises(NumericError, match=f"cannot resolve {n_levels} q-box levels; need 1 <= levels <= 500"):
            solve_q_space_branch(problem, n_levels=n_levels)

    def test_non_finite_potential_is_a_numeric_error(self):
        problem = swanson_transform(swanson_default(beta=2.3))
        broken = dataclasses.replace(problem, potential=lambda q: np.where(q > 0, np.nan, problem.potential(q)))
        with pytest.raises(NumericError, match="q-box eigensolve failed: array must not contain infs or NaNs"):
            solve_q_space_branch(broken, n_levels=4)

    @pytest.mark.parametrize("beta", [1.9, 2.3])
    @pytest.mark.parametrize("quotient", ["inf", "nan", "planted"])
    def test_quotient_not_finite_or_not_nearest_keeps_lapacks_eigenvalue(self, beta, quotient, monkeypatch):
        # left vectors orthogonal to the right ones make y^H x exactly 0: each right vector loses its first
        # entry and each left vector is e_0, so y^H A x / y^H x is inf, or it is nan where the left vectors
        # are 0.  The planted left vector (conj x_1, -conj x_0, 0, ...) leaves y^H x a rounding instead of 0,
        # and its finite quotient lands nearer another eigenvalue than its own (4.08 - 1.26i for the lowest
        # level at beta 2.3).  The solve must return LAPACK's own eigenvalues, and no warning may escape
        import scipy.linalg

        eig, lapack = scipy.linalg.eig, {}

        def orthogonal_left(matrix, left, right):
            w, _, vr = eig(matrix, left=left, right=right)
            vl = np.zeros_like(vr)
            if quotient == "inf":
                vr[0], vl[0] = 0.0, 1.0
            elif quotient == "planted":
                vl[0], vl[1] = np.conj(vr[1]), -np.conj(vr[0])
            lapack["w"] = w.copy()  # the solve writes its quotients into w
            return w, vl, vr

        monkeypatch.setattr(scipy.linalg, "eig", orthogonal_left)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = solve_q_space_branch(swanson_transform(swanson_default(beta=beta)), n_levels=4)
        real = beta < 2.0  # beta_c = 2: a real wall exponent and a real matrix below it
        assert result.eigenvalues == eigensolver._lowest(lapack["w"].real if real else lapack["w"], 4, merge=not real)


class TestLowModes:
    def test_same_matrix_gives_the_same_digits(self):
        params = swanson_default(beta=0.452755, lam=0.262753, delta=0.124772)
        coeffs = swanson_coefficients(params)
        first = solve_p_space(coeffs, params.deformation, 4)
        assert first.eigenvalues == solve_p_space(coeffs, params.deformation, 4).eigenvalues
        grid = MomentumGrid.symmetric(30.0, 400)
        basis = _low_mode_basis(coeffs, params.deformation, grid)
        assert np.array_equal(basis, _low_mode_basis(coeffs, params.deformation, grid))

    @pytest.mark.parametrize("params", [displaced_default(gamma=0.05), swanson_default(lam=0.3, delta=0.1)],
                             ids=["displaced", "swanson"])
    def test_modes_are_the_closed_form_eigenfunctions(self, params):
        # interpolated in z and multiplied by the wall factor, each mode is the
        # closed-form eigenfunction up to its scale, out at |p| = 30 too
        modes = theta_modes(params.family().coefficients(), params.deformation, PROJECTION_MODES)
        d = params.deformation
        p = np.linspace(-30.0, 30.0, 241)
        got = modes(np.sqrt(d.beta) * d.q_of_p(p))
        for n in range(PROJECTION_MODES):
            want = params.family().wavefunction(n)(p)
            scale = (want @ got[:, n]) / (want @ want)
            assert np.max(np.abs(got[:, n] - scale * want)) <= 1e-10 * np.max(np.abs(got[:, n]))

    def test_collocation_node_is_interpolated_exactly(self):
        params = displaced_default()
        modes = theta_modes(params.family().coefficients(), params.deformation, 2)
        theta = np.pi / 2 - modes.t[:3]  # z = sin(theta) = cos t: three collocation points themselves
        got = modes(theta)
        want = (np.cos(theta) ** modes.s * np.exp(modes.m * theta))[:, None] * modes.values[:3]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_levels", [0, 501])
    def test_refuses_unresolvable_level_counts(self, n_levels):
        params = displaced_default()
        with pytest.raises(NumericError, match=f"cannot resolve {n_levels} p-space levels; need 1 <= levels <= 500"):
            solve_p_space(displaced_coefficients(params), params.deformation, n_levels)

    def test_non_finite_coefficient_is_a_numeric_error(self):
        params = displaced_default()
        coeffs = displaced_coefficients(params)
        broken = dataclasses.replace(coeffs, h=lambda p: np.where(p > 1.0, np.nan, coeffs.h(p)))
        with pytest.raises(NumericError, match="p-space eigensolve failed: Array must not contain infs or NaNs"):
            solve_p_space(broken, params.deformation, 4)

    def test_beta_zero_is_refused(self):
        params = DisplacedOscillatorParams(deformation=DeformationParams(1.0, 0.0, 0.0), lam=0.5)
        with pytest.raises(ConfigurationError, match="the theta-axis solve needs beta > 0"):
            solve_p_space(displaced_coefficients(params), params.deformation, 2)
