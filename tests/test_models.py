"""Closed-form spectra, metrics, and eigenfunctions of the two models."""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlqm import (
    ConfigurationError,
    DeformationParams,
    DisplacedOscillatorParams,
    SwansonParams,
    displaced_energy,
    displaced_metric,
    displaced_transform,
    displaced_wavefunction,
    eta_inner,
    swanson_beta_c,
    swanson_energy,
    swanson_metric,
    swanson_reality_margin,
    swanson_transform,
    swanson_wavefunction,
)
from mlqm.models import Wavefunction, displaced_coefficients, metric, swanson_coefficients, wavefunction
from mlqm.verify import ode_residual
from oracles import printed_metric, printed_wavefunction, quadrature_log_rho, quadrature_metric
from test_pct import hermitian_family


def displaced_default(beta=0.1, gamma=0.0, lam=0.5):
    return DisplacedOscillatorParams(deformation=DeformationParams(1.0, beta, gamma), lam=lam)


def swanson_default(beta=0.5, gamma=0.0, lam=0.2, delta=0.2):
    return SwansonParams(deformation=DeformationParams(1.0, beta, gamma), lam=lam, delta=delta)


class TestParameterValidation:
    def test_displaced_rejects_bad_mass(self):
        with pytest.raises(ConfigurationError, match="mu must be positive, got 0.0"):
            DisplacedOscillatorParams(deformation=DeformationParams(), mu=0.0)

    def test_swanson_degenerate_drive(self):
        with pytest.raises(ConfigurationError, match="= 0 makes the momentum-space reduction singular"):
            SwansonParams(deformation=DeformationParams(), lam=0.5, delta=0.5)

    def test_swanson_negative_drive(self):
        with pytest.raises(ConfigurationError, match="< 0 flips the energy-map orientation; not supported"):
            SwansonParams(deformation=DeformationParams(), lam=0.8, delta=0.5)

    def test_reduced_coupling(self):
        params = DisplacedOscillatorParams(
            deformation=DeformationParams(hbar=2.0), mu=0.5, omega=2.0, lam=3.0
        )
        assert params.lam_tilde == pytest.approx(3.0 / (0.5 * 2.0 * 4.0))

    def test_swanson_c1(self):
        params = swanson_default(lam=0.3, delta=0.1)
        assert params.drive == pytest.approx(0.6)
        assert params.c1 == pytest.approx((0.1 - 0.3) / 0.6)


class TestDisplacedSpectrum:
    def test_ground_state_reference_value(self):
        assert displaced_energy(0, displaced_default()) == pytest.approx(
            0.6506246098625197, rel=1e-14
        )

    def test_lambda_shift_is_additive(self):
        base = displaced_default(lam=0.0)
        shifted = displaced_default(lam=0.7)
        for n in range(4):
            diff = displaced_energy(n, shifted) - displaced_energy(n, base)
            assert diff == pytest.approx(0.49 / 2.0, rel=1e-12)

    def test_beta_zero_limit_is_harmonic(self):
        params = DisplacedOscillatorParams(deformation=DeformationParams(), lam=0.5)
        for n in range(5):
            expected = (n + 0.5) + 0.125
            assert displaced_energy(n, params) == pytest.approx(expected, rel=1e-14)

    def test_energy_map_links_epsilon_and_energy(self):
        params = displaced_default()
        emap = params.family().energy_map
        eps = params.family().epsilon_levels()
        for n in range(6):
            e = displaced_energy(n, params)
            assert emap.scale * e + emap.offset == pytest.approx(float(eps(n)), rel=1e-12)

    def test_epsilon_gamma_covariance(self):
        # the ladder shifts by exactly gamma through the offset; E_n is fixed
        a = displaced_default(gamma=0.0)
        b = displaced_default(gamma=0.05)
        for n in range(4):
            assert displaced_energy(n, a) == displaced_energy(n, b)
            assert float(b.family().epsilon_levels()(n) - a.family().epsilon_levels()(n)) == pytest.approx(
                0.05, abs=1e-12
            )

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigurationError, match="level index must be non-negative, got -1"):
            displaced_energy(-1, displaced_default())
        # the eigenfunction refuses n before its closed-form norm takes lgamma of -1 + 1 = 0
        with pytest.raises(ConfigurationError) as refusal:
            displaced_default().family().wavefunction(-1)
        assert str(refusal.value) == "level index must be non-negative, got -1"


class TestSwansonSpectrum:
    def test_clean_point(self):
        assert swanson_energy(0, swanson_default()) == pytest.approx(0.45, rel=1e-14)

    def test_hermitian_case_is_harmonic_at_beta_zero(self):
        params = SwansonParams(deformation=DeformationParams())
        for n in range(5):
            assert swanson_energy(n, params) == pytest.approx(n + 0.5, rel=1e-14)

    def test_energy_map_links_epsilon_and_energy(self):
        params = swanson_default()
        emap = params.family().energy_map
        eps_levels = params.family().epsilon_levels()
        for n in range(6):
            eps = float(eps_levels(n))
            assert emap.energy(eps) == pytest.approx(
                float(np.real(swanson_energy(n, params))), rel=1e-12
            )

    def test_reality_margin_sign(self):
        assert swanson_reality_margin(swanson_default(beta=1.9)) > 0
        assert swanson_reality_margin(swanson_default(beta=2.1)) < 0

    def test_complex_past_threshold(self):
        e = swanson_energy(0, swanson_default(beta=2.1))
        assert e.imag > 0
        # conjugate-pair structure: closed form returns the + branch

    def test_beta_c_reference_value(self):
        assert swanson_beta_c(swanson_default()) == pytest.approx(2.0, rel=1e-14)

    def test_beta_c_none_for_opposite_couplings(self):
        assert swanson_beta_c(swanson_default(lam=0.2, delta=-0.1)) is None

    def test_spectral_is_real_flag(self):
        assert not isinstance(swanson_default(beta=1.9).family().wall_exponent, complex)
        assert isinstance(swanson_default(beta=2.1).family().wall_exponent, complex)

    def test_ladder_refused_without_real_a(self):
        # past beta_c, nu < -beta/4 (fall to centre) makes B complex; at beta = 0 there is no sec^2 box
        with pytest.raises(ConfigurationError, match="beta is at or past the reality threshold"):
            swanson_default(beta=2.1).family().epsilon_levels()
        with pytest.raises(ConfigurationError, match="spectral ladder parameters require beta > 0"):
            swanson_default(beta=0.0).family().epsilon_levels()


class TestMetrics:
    def test_displaced_metric_normalized_at_origin(self):
        eta = displaced_metric(displaced_default())
        assert eta(0.0) == pytest.approx(1.0)

    def test_swanson_metric_closed_form(self):
        params = swanson_default(lam=0.3, delta=0.1)
        eta = swanson_metric(params)
        p = np.linspace(-3, 3, 7)
        expected = (1.0 + 0.5 * p**2) ** (params.c1 / 0.5)
        assert np.allclose(eta(p), expected)

    def test_generic_path_agrees_with_closed_forms(self):
        # the metric against the published closed form and against the quadrature of chi
        p = np.linspace(-5, 5, 11)
        for params in (displaced_default(gamma=0.05), swanson_default(lam=0.3, delta=0.1, gamma=0.1)):
            eta = metric(params)(p)
            assert np.allclose(eta, printed_metric(params.family())(p), rtol=1e-12, atol=0)
            assert np.allclose(eta, quadrature_metric(params.family(), p), rtol=1e-9, atol=0)

    def test_hermitian_limits_have_trivial_metric(self):
        p = np.linspace(-4, 4, 9)
        assert np.allclose(displaced_metric(displaced_default(lam=0.0))(p), 1.0)
        assert np.allclose(swanson_metric(swanson_default(lam=0.2, delta=0.2))(p), 1.0)


class TestTransforms:
    def test_displaced_box_size(self):
        problem = displaced_transform(displaced_default())
        assert problem.q_max == pytest.approx(np.pi / (2 * np.sqrt(0.1)))

    def test_displaced_potential_is_sec_squared_plus_offset(self):
        params = displaced_default()
        family = params.family()
        problem = displaced_transform(params)
        q = np.linspace(-0.9, 0.9, 13) * problem.q_max
        expected = family.nu / np.cos(np.sqrt(0.1) * q) ** 2 + family.offset
        assert np.allclose(problem.potential(q), expected, rtol=1e-10)

    def test_swanson_potential_is_sec_squared_plus_offset(self):
        params = swanson_default(lam=0.3, delta=0.1)
        family = params.family()
        problem = swanson_transform(params)
        q = np.linspace(-0.9, 0.9, 13) * problem.q_max
        expected = family.nu / np.cos(np.sqrt(0.5) * q) ** 2 + family.offset
        assert np.allclose(problem.potential(q), expected, rtol=1e-10)

    @pytest.mark.parametrize("params", [
        DisplacedOscillatorParams(deformation=DeformationParams(), lam=0.3),
        SwansonParams(deformation=DeformationParams(), lam=0.3, delta=0.1),
    ])
    def test_beta_zero_similarity_factor_matches_quadrature(self, params):
        p = np.linspace(-2.0, 2.0, 5)
        rho = np.exp(quadrature_log_rho(params.family().coefficients(), p))
        assert np.allclose(np.exp(params.family().log_rho()(p)), rho, rtol=1e-10)

    def test_swanson_potential_is_gamma_free(self):
        base = swanson_default(lam=0.3, delta=0.1, gamma=0.0)
        tilted = swanson_default(lam=0.3, delta=0.1, gamma=0.2)
        qs = np.linspace(-0.8, 0.8, 9) * swanson_transform(base).q_max
        va = swanson_transform(base).potential(qs)
        vb = swanson_transform(tilted).potential(qs)
        assert np.allclose(va, vb, rtol=1e-12)


class TestWavefunctions:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_displaced_satisfies_ode(self, n):
        params = displaced_default()
        psi = displaced_wavefunction(n, params)
        report = ode_residual(psi, displaced_coefficients(params), psi.epsilon)
        assert report.value < 1e-10

    @pytest.mark.parametrize("n", [0, 2])
    def test_swanson_satisfies_ode(self, n):
        params = swanson_default(lam=0.3, delta=0.1)
        psi = swanson_wavefunction(n, params)
        report = ode_residual(psi, swanson_coefficients(params), psi.epsilon)
        assert report.value < 1e-10

    def test_metric_normalization(self):
        # the closed-form norm against the Fejer quadrature of the metric; they differ by at most 2.4e-13 here
        for gamma in (0.0, 0.05):
            for params in (displaced_default(gamma=gamma), swanson_default(gamma=gamma, lam=0.3, delta=0.1)):
                for n in (0, 3, 100, 250):
                    psi = wavefunction(n, params)
                    norm2 = eta_inner(psi, psi, metric(params), params.deformation)
                    assert abs(norm2 - 1.0) <= 1e-12, (params, n)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.5, 10.012492197250394, 19.5, 1e3])
    def test_norm_is_szego_h_n(self, alpha):
        # N^2 h_n/sqrt(beta) = 1 with h_n = 2^(2a+1) Gamma(n+a+1)^2 / ((2n+2a+1) n! Gamma(n+2a+1)) at 50 digits;
        # 10.0125 and 19.5 are alpha at the displaced and Swanson CLI defaults, where wavefunction --n 499 runs
        for n in (0, 1, 5, 100, 499):
            norm = Wavefunction(n=n, beta=0.1, a1=0.0, a2=0.0, alpha=alpha).norm
            with mpmath.workdps(50):
                a, beta = mpmath.mpf(alpha), mpmath.mpf(0.1)
                h_n = (2 ** (2 * a + 1) * mpmath.gamma(n + a + 1) ** 2
                       / ((2 * n + 2 * a + 1) * mpmath.factorial(n) * mpmath.gamma(n + 2 * a + 1)))
                assert abs(mpmath.mpf(norm) ** 2 * h_n / mpmath.sqrt(beta) - 1) <= 1e-11, n

    def test_gamma_enters_only_through_envelope(self):
        # |psi|^2 * measure weight is the gamma-invariant probability density
        p = np.linspace(-4, 4, 17)
        for gamma in (0.0, 0.05):
            params = displaced_default(gamma=gamma)
            psi = displaced_wavefunction(0, params)
            dens = np.abs(psi(p)) ** 2 * params.deformation.measure_weight(p)
            if gamma == 0.0:
                ref = dens
            else:
                assert np.allclose(dens, ref, rtol=1e-9)

    def test_swanson_rejects_complex_regime(self):
        with pytest.raises(ConfigurationError, match="beta is at or past the reality threshold"):
            swanson_wavefunction(0, swanson_default(beta=2.1))

    def test_eigenfunction_reads_no_published_energy(self, monkeypatch):
        def published(self, n):
            raise AssertionError("the published E_n was read")

        monkeypatch.setattr(SwansonParams, "energy", published)
        params = swanson_default(lam=0.3, delta=0.1)
        psi = swanson_wavefunction(2, params)
        assert ode_residual(psi, swanson_coefficients(params), psi.epsilon).value < 1e-10

    def test_printed_forms_do_not_satisfy_the_ode(self):
        # the published closed forms leave an O(1) residual; the canonical
        # forms above are the solutions
        params = displaced_default()
        psi = printed_wavefunction(params.family(), 0)
        assert ode_residual(psi, displaced_coefficients(params), psi.epsilon).value > 0.1
        s_params = swanson_default(lam=0.3, delta=0.1)
        phi = printed_wavefunction(s_params.family(), 0)
        assert ode_residual(phi, swanson_coefficients(s_params), phi.epsilon).value > 0.1

    def test_ground_state_has_no_nodes(self):
        psi = displaced_wavefunction(0, displaced_default())
        p = np.linspace(-8, 8, 400)
        assert np.all(np.real(psi(p)) > 0) or np.all(np.real(psi(p)) < 0)

    def test_first_excited_changes_sign_once(self):
        psi = displaced_wavefunction(1, displaced_default())
        vals = np.real(psi(np.linspace(-8, 8, 400)))
        assert np.sum(np.abs(np.diff(np.sign(vals))) > 0) == 1


class TestOneRefusal:
    """``epsilon_levels`` alone refuses a complex wall exponent; the eigenfunction builds eps_n first."""

    @pytest.mark.parametrize("family", [swanson_default(beta=2.1).family(), hermitian_family(-0.2, 0.5)],
                             ids=["past-beta-c", "fall-to-centre"])
    def test_ladder_and_eigenfunction_refuse_alike(self, family):
        with pytest.raises(ConfigurationError, match="beta is at or past the reality threshold") as ladder:
            family.epsilon_levels()
        with pytest.raises(ConfigurationError, match="beta is at or past the reality threshold") as state:
            family.wavefunction(0)
        assert type(state.value) is type(ladder.value) and str(state.value) == str(ladder.value)

    def test_real_ladder_at_beta_c(self):
        # lambda = delta = 0.2: beta_c = 2 exactly, where B = 1/2 is a double root
        family = swanson_default(beta=2.0).family()
        levels = family.epsilon_levels()(np.arange(4))
        assert np.isrealobj(levels)
        assert np.allclose(family.energy_map.energy(levels), [0.3, 1.5, 3.9, 7.5], rtol=1e-14)
        states = [family.wavefunction(n) for n in range(4)]
        assert [psi.epsilon for psi in states] == list(levels) and states[0].alpha == 0.0


@st.composite
def family_points(draw):
    """Either model, drawn from the box where its closed forms hold."""
    if draw(st.booleans()):
        beta = draw(st.floats(0.02, 0.5))
        lam = draw(st.floats(-1.0, 1.0))
        gamma = draw(st.floats(0.0, beta))
        return DisplacedOscillatorParams(DeformationParams(1.0, beta, gamma), lam=lam)
    lam, delta = draw(st.floats(0.0, 0.35)), draw(st.floats(0.0, 0.35))
    beta = draw(st.floats(0.05, 0.9)) * swanson_beta_c(swanson_default(lam=lam, delta=delta))
    gamma = draw(st.floats(0.0, beta))
    return SwansonParams(DeformationParams(1.0, beta, gamma), lam=lam, delta=delta)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(family_points())
def test_metric_matches_the_printed_form_and_the_quadrature_of_chi(params):
    # at the 11 points where the metric was once checked against a second formula of itself
    p = np.linspace(-7.0, 7.0, 11)
    family = params.family()
    eta = family.metric()(p)
    assert np.all(np.isfinite(eta)) and np.all(eta > 0)
    assert np.max(np.abs(eta / printed_metric(family)(p) - 1.0)) <= 1e-12
    assert np.max(np.abs(eta / quadrature_metric(family, p) - 1.0)) <= 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(family_points())
def test_family_derivation_matches_published_closed_forms(params):
    # ties the published E_n to the derived nu and offset, the derived
    # potential to nu sec^2 + offset, and the eigenfunctions to the ODE
    family = params.family()
    levels = family.epsilon_levels()
    coeffs = family.coefficients()
    problem = family.transform()
    sqb = np.sqrt(params.deformation.beta)
    q = np.linspace(-0.9, 0.9, 13) * problem.q_max
    expected = family.nu / np.cos(sqb * q) ** 2 + family.offset
    assert np.max(np.abs(problem.potential(q) - expected)) <= 1e-9 * max(1.0, abs(family.nu))
    for n in range(4):
        eps = float(levels(n))
        emap = family.energy_map
        assert abs(emap.scale * params.energy(n) + emap.offset - eps) <= 1e-10 * max(1.0, abs(eps))
        psi = params.family().wavefunction(n)
        assert ode_residual(psi, coeffs, psi.epsilon).value < 1e-8


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def box_points(draw):
    """Either model with hbar and the mass on [0.2, 5], beta on [1e-3, 1e2], omega on [0.05, 20] and gamma on [0, beta]."""
    hbar, mass = draw(_log_uniform(0.2, 5.0)), draw(_log_uniform(0.2, 5.0))
    beta, omega = draw(_log_uniform(1e-3, 1e2)), draw(_log_uniform(0.05, 20.0))
    deformation = DeformationParams(hbar, beta, draw(st.floats(0.0, beta)))
    if draw(st.booleans()):
        return DisplacedOscillatorParams(deformation, mu=mass, omega=omega, lam=draw(st.floats(-1.0, 1.0)) * omega)
    lam = draw(st.floats(-0.45, 0.45)) * omega
    delta = draw(st.floats(-0.45, 0.45)) * omega
    return SwansonParams(deformation, m=mass, omega=omega, lam=lam, delta=delta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(box_points())
@example(SwansonParams(DeformationParams(1.0, 0.1, 0.0), m=2.0, lam=0.5))  # the Swanson CLI defaults at m = 2
@example(SwansonParams(DeformationParams(1.0, 2.0, 0.0), lam=0.2, delta=0.2))  # exactly at beta_c = 2
def test_family_ladder_gives_the_published_energies(params):
    # the family's eps ladder, mapped back to E, is the published E_n at every hbar and mass, and
    # the family and the closed form read the same side of the reality threshold
    family = params.family()
    real = not isinstance(params.energy(0), complex)
    assert (not isinstance(family.wall_exponent, complex)) == real
    if real:
        levels = family.epsilon_levels()
        for n in range(6):
            e = params.energy(n)
            assert abs(family.energy_map.energy(float(levels(n))) - e) <= 1e-10 * max(1.0, abs(e))
