"""Point canonical transformation machinery."""

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from mlqm import (
    CoefficientSet,
    ConfigurationError,
    DeformationParams,
    DisplacedOscillatorParams,
    EnergyMap,
    GupFamily,
    NumericError,
    SwansonParams,
    build_potential,
    transform,
)
from mlqm.pct import _snapped_sqrt
from oracles import quadrature_log_rho, quadrature_q_map


def quartic_coeffs(beta=0.25):
    """The f = (1+beta p^2)^2 family with trivial g, h."""
    return CoefficientSet(
        f=Polynomial([1.0, 0.0, beta]) ** 2,
        g=Polynomial([0.0]),
        h=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
    )


class TestRealityRule:
    def test_snapped_sqrt_is_a_float_when_real_and_complex_otherwise(self):
        assert type(_snapped_sqrt(4.0, 4.0)) is float and _snapped_sqrt(4.0, 4.0) == 2.0
        assert type(_snapped_sqrt(-4.0, 4.0)) is complex and _snapped_sqrt(-4.0, 4.0) == 2j

    def test_snapped_sqrt_takes_its_rounding_for_zero(self):
        # 16 ulp of the scale by default: 1.1e-16 is inside that of 0.32, as the Swanson margin at beta_c is
        assert _snapped_sqrt(-1.1e-16, 0.32) == 0.0 and type(_snapped_sqrt(-1.1e-16, 0.32)) is float
        assert type(_snapped_sqrt(-1.1e-16, 0.01)) is complex
        assert _snapped_sqrt(1e-12, 1.0, snap=1e-11) == 0.0


class TestEnergyMap:
    def test_round_trip(self):
        emap = EnergyMap(scale=2.5, offset=-0.75)
        e = np.linspace(-3, 3, 7)
        assert np.allclose(emap.energy(emap.scale * e + emap.offset), e)

    def test_zero_scale_rejected(self):
        with pytest.raises(ConfigurationError, match=r"energy map must be invertible \(scale != 0\)"):
            EnergyMap(scale=0.0, offset=1.0)


class TestCoefficientSet:
    @pytest.mark.parametrize("beta", [3e-5, 1e-7])
    def test_small_beta_coefficients_validate(self, beta):
        # f' and g' are about beta, far below f and g; a finite-difference check of hand-written derivatives
        # rounded at that scale and refused spectrum --beta 3e-5 (exit 2) before f and g became polynomials
        for params in (DisplacedOscillatorParams(DeformationParams(1.0, beta, 0.0), lam=0.5),
                       SwansonParams(DeformationParams(1.0, beta, 0.0), lam=0.5)):
            params.family().coefficients()

    def test_nonpositive_f_rejected(self):
        with pytest.raises(NumericError, match=r"f\(p\) must be strictly positive on the working domain"):
            CoefficientSet(f=Polynomial([-1.0]), g=Polynomial([0.0]), h=lambda p: np.zeros_like(p))

    @pytest.mark.parametrize("nan_fields, error, match", [
        # a NaN f is not positive, so the ellipticity check refuses it
        (("f", "g", "h"), NumericError, r"f\(p\) must be strictly positive"),
    ], ids=["nan_fields0"])
    def test_nan_coefficients_rejected(self, nan_fields, error, match):
        good = quartic_coeffs()
        nan = {"f": Polynomial([np.nan]), "g": Polynomial([np.nan]),
               "h": lambda p: np.full_like(np.asarray(p, dtype=float), np.nan)}
        fields = {name: nan[name] if name in nan_fields else getattr(good, name) for name in ("f", "g", "h")}
        with pytest.raises(error, match=match):
            CoefficientSet(**fields)


class TestQMap:
    def test_quadrature_matches_closed_form(self):
        beta = 0.25
        q_of_p, q_min, q_max = quadrature_q_map(quartic_coeffs(beta))
        closed = DeformationParams(1.0, beta, 0.0)
        p = np.linspace(-4, 4, 9)
        assert np.allclose(q_of_p(p), closed.q_of_p(p), atol=1e-10)
        assert q_max == pytest.approx(np.pi / (2 * np.sqrt(beta)), rel=1e-8)
        assert q_min == pytest.approx(-np.pi / (2 * np.sqrt(beta)), rel=1e-8)

    def test_inverse_round_trip(self):
        deformation = DeformationParams(1.0, 0.25, 0.0)
        q = np.linspace(-0.8, 0.8, 7) * deformation.q_half
        assert np.allclose(deformation.q_of_p(deformation.p_of_q(q)), q, atol=1e-10)


#: One family per similarity part: the power law (sigma, Swanson) and the arctan (ell, displaced).
FAMILIES = (
    SwansonParams(DeformationParams(1.0, 0.25, 0.1), lam=0.3, delta=0.1).family(),
    DisplacedOscillatorParams(DeformationParams(1.0, 0.25, 0.1), lam=0.7).family(),
)


class TestRho:
    def test_quadrature_matches_hint(self):
        # the closed-form log rho of each model against the quadrature of its chi
        p = np.linspace(-3, 3, 7)
        for family in FAMILIES:
            rho_generic = np.exp(quadrature_log_rho(family.coefficients(), p))
            rho_hinted = np.exp(family.log_rho()(p))
            assert np.allclose(rho_generic, rho_hinted, rtol=1e-9)

    def test_rho_is_one_at_origin(self):
        for family in FAMILIES:
            assert np.exp(family.log_rho()(0.0)) == pytest.approx(1.0)


class TestPotential:
    def test_pure_quartic_f_gives_sec_squared_plus_constant(self):
        # -((1+b p^2) d/dp)^2 maps to -d^2/dq^2 + V with
        # V(q) = -(b/4)(1 - 3 sec^2(sqrt(b) q)) + ... derived via the chi route;
        # verify against the direct formula at sampled points instead.
        beta = 0.25
        coeffs = quartic_coeffs(beta)
        deformation = DeformationParams(1.0, beta, 0.0)
        problem = transform(coeffs, deformation)
        q = np.linspace(-0.9, 0.9, 11) * problem.q_max
        p = deformation.p_of_q(q)
        w = 1.0 + beta * p**2
        f, f1, f2 = w**2, 4.0 * beta * p * w, 4.0 * beta * (1.0 + 3.0 * beta * p**2)
        expected = 3.0 * f1**2 / (16.0 * f) - f2 / 4.0
        assert np.allclose(problem.potential(q), expected, atol=1e-12)

    def test_domain_error_outside_box(self):
        coeffs = quartic_coeffs(0.25)
        deformation = DeformationParams(1.0, 0.25, 0.0)
        V = build_potential(coeffs, deformation)
        with pytest.raises(ConfigurationError, match="q outside"):
            V(deformation.q_half * 1.01)


def hermitian_family(nu, beta):
    """The Hermitian (sigma = ell = 0) GUP family with c = 0, whose sec^2 strength is nu = a / beta."""
    return GupFamily(
        deformation=DeformationParams(1.0, beta, 0.0),
        sigma=0.0,
        ell=0.0,
        a=nu * beta,
        c=0.0,
        energy_map=EnergyMap(scale=1.0, offset=0.0),
    )


class TestSecantSquaredLevels:
    def test_fall_to_center_rejected(self):
        # nu < -beta/4 makes B complex: no real bound-state ladder
        with pytest.raises(ConfigurationError, match="beta is at or past the reality threshold"):
            hermitian_family(-0.2, 0.5).epsilon_levels()

    def test_beta_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="spectral ladder parameters require beta > 0"):
            hermitian_family(1.0, 0.0).epsilon_levels()
