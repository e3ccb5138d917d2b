"""The fault matrix: each planted model fault must fail the verify records that can see it.

One fault at a time is planted in ``GupFamily`` and ``verify.battery`` runs
at four points: both models' CLI defaults, the displaced model at
gamma = 0.05, and Swanson at gamma = 0.05, lambda 0.3, delta 0.1.  Each row
pins the exact set of records that fail, so a record that stops seeing its
fault, or starts failing a correct model, shows here.
"""

import dataclasses

import pytest

from mlqm import verify
from mlqm.algebra import DeformationParams
from mlqm.models import DisplacedOscillatorParams, GupFamily, SwansonParams

POINTS = {
    "displaced": DisplacedOscillatorParams(DeformationParams(1.0, 0.1, 0.0), lam=0.5),
    "swanson": SwansonParams(DeformationParams(1.0, 0.1, 0.0), lam=0.5),
    "displaced-gamma": DisplacedOscillatorParams(DeformationParams(1.0, 0.1, 0.05), lam=0.5),
    "swanson-gamma": SwansonParams(DeformationParams(1.0, 0.1, 0.05), lam=0.3, delta=0.1),
}


def wrong_metric(original):
    def log_metric(self):
        log_eta = original(self)
        return lambda p: log_eta(p) + 1e-3 * self.deformation.q_of_p(p)
    return log_metric


def shifted_h(original):
    def coefficients(self):
        coeffs, beta = original(self), self.deformation.beta
        return dataclasses.replace(coeffs, h=lambda p: coeffs.h(p) + 1e-4 * (1.0 + beta * p**2))
    return coefficients


def shifted_jacobi_index(original):
    def wavefunction(self, n):
        psi = original(self, n)
        return dataclasses.replace(psi, alpha=psi.alpha + 1e-6)
    return wavefunction


def shifted_epsilon(original):
    def epsilon_levels(self):
        levels = original(self)
        return lambda n: levels(n) + 0.1
    return epsilon_levels


#: (fault, the GupFamily method it replaces, {point: the records that fail there})
FAULTS = [
    (None, None, dict.fromkeys(POINTS, set())),
    (wrong_metric, "log_metric", dict.fromkeys(POINTS, {"pseudo-hermiticity", "gram-identity"})),
    (shifted_h, "coefficients", dict.fromkeys(POINTS, {"ode-residual"})),
    # the quadrature reads 1.1e-7 at the displaced points and 5.9-7.5e-8 at the Swanson ones, against 1e-7
    (shifted_jacobi_index, "wavefunction", {
        "displaced": {"ode-residual", "gram-identity"},
        "swanson": {"ode-residual"},
        "displaced-gamma": {"ode-residual", "gram-identity"},
        "swanson-gamma": {"ode-residual"},
    }),
    (shifted_epsilon, "epsilon_levels", dict.fromkeys(POINTS, {"ode-residual", "closed-form-ladder"})),
]


@pytest.mark.parametrize("fault, method, expected", FAULTS,
                         ids=["none", "log-eta-plus-q", "h-plus-w", "jacobi-index", "epsilon-plus-0.1"])
def test_each_fault_fails_its_records(monkeypatch, fault, method, expected):
    if fault is not None:
        monkeypatch.setattr(GupFamily, method, fault(getattr(GupFamily, method)))
    failed = {name: {r.name for r in verify.battery(params, 4) if not r.passed} for name, params in POINTS.items()}
    assert failed == expected
