"""The fault matrix: each planted model fault must fail the verify records that can see it.

One fault at a time is planted in ``GupFamily``, its ``EnergyMap`` or the ``Wavefunction`` norm, and
``verify.battery`` runs at four points: both models' CLI defaults, the displaced model at
gamma = 0.05, and Swanson at gamma = 0.05, lambda 0.3, delta 0.1.  Each row
pins the exact set of records that fail, so a record that stops seeing its
fault, or starts failing a correct model, shows here.  The numeric-layer faults,
planted in ``eigensolver``, also pin the exit of ``spectrum --levels 4`` at the same points.
A gamma-blind theta-axis solve, planted in both ``eigensolver`` and ``verify``, has a test of
its own, because the records and the exit it fails differ from point to point.
"""

import dataclasses

import pytest
from numpy.polynomial import Polynomial

from mlqm import eigensolver, verify
from mlqm.cli import EXIT_OK, EXIT_VERIFY_FAIL, main
from mlqm.algebra import DeformationParams
from mlqm.models import DisplacedOscillatorParams, GupFamily, SwansonParams, Wavefunction
from mlqm.pct import EnergyMap

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


def scaled_norm(original):
    return property(lambda self: original.fget(self) * (1.0 + 1e-6))


def shifted_epsilon(original):
    def epsilon_levels(self):
        levels = original(self)
        return lambda n: levels(n) + 0.1
    return epsilon_levels


def gamma_dropped_from_g(original):
    """g = -2w((kappa - gamma) p + ell): the ODE of gamma = 0, while the metric and the closed forms keep gamma."""
    def coefficients(self):
        coeffs, beta, gamma = original(self), self.deformation.beta, self.deformation.gamma
        return dataclasses.replace(coeffs, g=coeffs.g + 2.0 * gamma * Polynomial([0.0, 1.0, 0.0, beta]))
    return coefficients


def hermitian_g(original):
    """g = -2w(beta + gamma) p, with which (f mu)' + g mu = 0: H is Hermitian, while the metric is kept."""
    def coefficients(self):
        coeffs, beta, gamma = original(self), self.deformation.beta, self.deformation.gamma
        return dataclasses.replace(coeffs, g=-2.0 * (beta + gamma) * Polynomial([0.0, 1.0, 0.0, beta]))
    return coefficients


def scaled_energy_map(original):
    def energy(self, epsilon):
        return original(dataclasses.replace(self, scale=self.scale * (1.0 + 1e-6)), epsilon)
    return energy


#: (fault, the class and method it replaces, {point: the records that fail there})
FAULTS = [
    (None, None, None, dict.fromkeys(POINTS, set())),
    (wrong_metric, GupFamily, "log_metric", dict.fromkeys(POINTS, {"pseudo-hermiticity", "gram-identity"})),
    (shifted_h, GupFamily, "coefficients", dict.fromkeys(POINTS, {"ode-residual"})),
    # at gamma = 0 the ODE is unchanged, and only gamma-independence, which solves at gamma = beta/2 and beta, sees it
    (gamma_dropped_from_g, GupFamily, "coefficients", {
        "displaced": {"gamma-independence"},
        "swanson": {"gamma-independence"},
        "displaced-gamma": {"gamma-independence", "pseudo-hermiticity", "ode-residual"},
        "swanson-gamma": {"gamma-independence", "pseudo-hermiticity", "ode-residual"},
    }),
    # the norm follows the shifted index while the envelope's a2 and the metric do not, so the Gram matrix reads
    # 1.6-2.8e-7 against 1e-7, its diagonal too
    (shifted_jacobi_index, GupFamily, "wavefunction", dict.fromkeys(POINTS, {"ode-residual", "gram-identity"})),
    # the closed-form norm is the one normalization, so its error reaches the Gram diagonal (2.0e-6) and nothing else
    (scaled_norm, Wavefunction, "norm", dict.fromkeys(POINTS, {"gram-identity"})),
    (shifted_epsilon, GupFamily, "epsilon_levels", dict.fromkeys(POINTS, {"ode-residual", "closed-form-ladder"})),
    (scaled_energy_map, EnergyMap, "energy", dict.fromkeys(POINTS, {"closed-form-ladder"})),
    # eta = 1 meets the identity (defect ~3e-11) while the kept metric fails it, so the defect's floor reads the
    # pseudo-hermiticity gate; the p-space levels move with gamma, and the states no longer solve the ODE
    (hermitian_g, GupFamily, "coefficients", dict.fromkeys(
        POINTS, {"hermiticity-defect", "pseudo-hermiticity", "ode-residual", "gamma-independence"})),
]


@pytest.mark.parametrize("fault, owner, method, expected", FAULTS, ids=[
    "none", "log-eta-plus-q", "h-plus-w", "gamma-dropped-from-g", "jacobi-index", "norm-times-1-plus-1e-6",
    "epsilon-plus-0.1",
    "energy-map-scale", "g-made-hermitian",
])
def test_each_fault_fails_its_records(monkeypatch, fault, owner, method, expected):
    if fault is not None:
        monkeypatch.setattr(owner, method, fault(getattr(owner, method)))
    failed = {name: {r.name for r in verify.battery(params, 4) if not r.passed} for name, params in POINTS.items()}
    assert failed == expected


#: `spectrum` argv of each point
SPECTRUM_ARGV = {
    "displaced": (),
    "swanson": ("--model", "swanson"),
    "displaced-gamma": ("--gamma", "0.05"),
    "swanson-gamma": ("--model", "swanson", "--gamma", "0.05", "--lambda", "0.3", "--delta", "0.1"),
}

#: (solver function, misread added to the exponent it returns, the records that fail, spectrum's exit and column)
NUMERIC_FAULTS = [
    # The wall factor (1 - z^2)^(B/2) and the decay factor cos(theta)^s precondition an exact change of
    # variable: misread by half a unit, u is no longer the low-degree polynomial that N = 16 + 2 n resolves,
    # and level 3 reads 4.9e-4 off at the displaced points and 0.03-0.36 at the Swanson ones, which only
    # spectrum's gate sees: verify runs no q-box solve, and the theta-axis levels move alike at every gamma
    ("_indicial_root", 0.5, set(), (EXIT_VERIFY_FAIL, "err_q")),
    ("_decay_exponent", 0.5, set(), (EXIT_VERIFY_FAIL, "err_p")),
    # A whole unit leaves u singular at the walls: the q-box levels read 9-20 off, which only spectrum's err_q
    # sees (verify runs no q-box solve); the theta-axis levels read 9-20 off as well, by amounts that differ
    # across gamma, so gamma-independence sees it too
    ("_indicial_root", 1.0, set(), (EXIT_VERIFY_FAIL, "err_q")),
    ("_decay_exponent", 1.0, {"gamma-independence"}, (EXIT_VERIFY_FAIL, "err_p")),
]


@pytest.mark.parametrize("name, misread, records, spectrum", NUMERIC_FAULTS, ids=[
    "wall-exponent-plus-0.5", "decay-exponent-plus-0.5", "wall-exponent-plus-1", "decay-exponent-plus-1",
])
def test_each_numeric_fault_fails_its_records_and_gate(monkeypatch, capsys, name, misread, records, spectrum):
    original = getattr(eigensolver, name)
    monkeypatch.setattr(eigensolver, name, lambda *args: original(*args) + misread)
    for point, params in POINTS.items():
        assert {r.name for r in verify.battery(params, 4) if not r.passed} == records, point
        assert spectrum_gate(capsys, point) == spectrum, point


def spectrum_gate(capsys, point):
    """The exit of ``spectrum`` at the point, and the column its stderr names (None when it names none)."""
    code = main(["spectrum", *SPECTRUM_ARGV[point]])
    err = capsys.readouterr().err
    return code, err.split(" has ")[1].split(" = ")[0] if err else None


def gamma_blind(solve, params):
    """The theta-axis solve at the point's gamma = 0 coefficients and deformation, whatever gamma it is given."""
    blind = dataclasses.replace(params, deformation=dataclasses.replace(params.deformation, gamma=0.0))
    coeffs = blind.family().coefficients()
    return lambda _coeffs, _deformation, n_levels: solve(coeffs, blind.deformation, n_levels)


#: {point: (the records that fail, spectrum's exit and column)} with a gamma-blind theta-axis solve planted.
#: The displaced energy map carries gamma, so gamma-independence sees the displaced points, and spectrum's err_p
#: sees the one at gamma = 0.05 (0.025 at level 0); Swanson's energy map carries no gamma, so there the fault
#: passes every record and gate
GAMMA_BLIND = {
    "displaced": ({"gamma-independence"}, (EXIT_OK, None)),
    "swanson": (set(), (EXIT_OK, None)),
    "displaced-gamma": ({"gamma-independence"}, (EXIT_VERIFY_FAIL, "err_p")),
    "swanson-gamma": (set(), (EXIT_OK, None)),
}


def test_gamma_blind_solve_is_seen_only_where_the_energy_map_carries_gamma(monkeypatch, capsys):
    solve = eigensolver.solve_p_space
    for point, params in POINTS.items():
        fault = gamma_blind(solve, params)
        monkeypatch.setattr(eigensolver, "solve_p_space", fault)
        monkeypatch.setattr(verify, "solve_p_space", fault)
        failed = {r.name for r in verify.battery(params, 4) if not r.passed}
        assert (failed, spectrum_gate(capsys, point)) == GAMMA_BLIND[point], point
