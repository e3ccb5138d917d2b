"""Random-box contract of `mlqm spectrum`: each exit code is checked against a 50-digit evaluation of the published E_n.

Over the same box, at 4 levels, `mlqm verify` exits 0 only where `mlqm spectrum` does, and where
`spectrum` exits 0, `verify` exits 0 or refuses with a typed numeric failure (exit 3), never 1.
`verify`'s verdicts also obey the Swanson units law.

    PYTHONPATH=src python -m pytest -q tests/test_contract.py --hypothesis-show-statistics

The statistics name the share of each exit code over the box.
"""

import contextlib
import io
import json
import re

import mpmath
import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mlqm import DeformationParams, DisplacedOscillatorParams, SwansonParams, solve_p_space, solve_q_space
from mlqm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY_FAIL, main
from mlqm.verify import TOLERANCES
from test_models import _log_uniform

#: Gate on E_closed against the 50-digit E_n; E_q and E_p meet `spectrum`'s own 1e-6 gate.
CLOSED_GATE = 1e-12
GATE = TOLERANCES["spectrum-error"]
_FAILURE = re.compile(r"verification failure: level (\d+) has (err_q|err_p) = \S+, above the \S+ gate\n")
_PAST_BETA_C = re.compile(r"configuration error: beta = \S+ is past the reality threshold beta_c = \S+: ")
#: verify's typed refusal where the metric or a state overflows at the quadrature's outer nodes (ROADMAP item 6)
_NODE_DOUBLING = re.compile(r"numeric failure: inner product failed node doubling: .+\n")


def published_energy(p: dict, n: int):
    """The published E_n at 50 digits, from the same floats the argv carries; complex past beta_c."""
    with mpmath.workdps(50):
        hbar, mass, beta, omega, lam, delta = (mpmath.mpf(p[k]) for k in
                                               ("hbar", "mass", "beta", "omega", "lambda", "delta"))
        if p["model"] == "displaced":
            t = beta * hbar * omega * mass / 2
            return hbar * omega * (t * (n * n + n + 0.5) + (n + 0.5) * mpmath.sqrt(1 + t * t)) + lam**2 / (
                2 * mass * omega**2
            )
        t = hbar * mass * omega * beta * (omega - lam - delta) / 2
        return t * (n * n + n + 0.5) + (n + 0.5) * mpmath.sqrt((omega - t) ** 2 - 4 * lam * delta)


@st.composite
def spectrum_points(draw):
    """Either model: hbar and the mass on [0.2, 5], beta on [1e-3, 1e3], omega on [1e-2, 1e2], 1-59 levels.

    gamma is drawn on [0, beta] in 3 draws of 10; lambda (and delta) are fractions of omega.
    """
    p = {"model": draw(st.sampled_from(("displaced", "swanson")))}
    p["hbar"], p["mass"] = draw(_log_uniform(0.2, 5.0)), draw(_log_uniform(0.2, 5.0))
    p["beta"], p["omega"] = draw(_log_uniform(1e-3, 1e3)), draw(_log_uniform(1e-2, 1e2))
    p["gamma"] = draw(st.floats(0.0, p["beta"])) if draw(st.integers(0, 9)) < 3 else 0.0
    if p["model"] == "displaced":
        p["lambda"], p["delta"] = draw(st.floats(-1.0, 1.0)) * p["omega"], 0.0
    else:
        p["lambda"] = draw(st.floats(-0.45, 0.45)) * p["omega"]
        p["delta"] = draw(st.floats(-0.45, 0.45)) * p["omega"]
    p["levels"] = draw(st.integers(1, 59))
    return p


def _main(command: str, p: dict):
    argv = [command, "--model", p["model"], "--levels", str(p["levels"])]
    for key in ("hbar", "mass", "beta", "gamma", "omega", "lambda", "delta"):
        argv += [f"--{key}", repr(p[key])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _rel(got: complex, want) -> float:
    return float(abs(mpmath.mpc(got) - want) / max(1, abs(want)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spectrum_points())
@example({"model": "swanson", "hbar": 1.0, "mass": 2.0, "beta": 0.1, "gamma": 0.0, "omega": 1.0,
          "lambda": 0.5, "delta": 0.0, "levels": 4})  # the Swanson defaults at m = 2
@example({"model": "swanson", "hbar": 1.0, "mass": 1.0, "beta": 2.0, "gamma": 0.0, "omega": 1.0,
          "lambda": 0.2, "delta": 0.2, "levels": 4})  # exactly at beta_c = 2
def test_spectrum_exit_code_holds_against_50_digits(p):
    code, out, err = _main("spectrum", p)
    event(f"exit {code}")
    if code == EXIT_CONFIG:
        assert _PAST_BETA_C.match(err), err
        assert mpmath.im(published_energy(p, 0)) != 0  # the levels really are complex pairs
        return
    rows = [[float(cell) for cell in line.split(",")] for line in out.strip().split("\n")[1:]]
    assert len(rows) == p["levels"]
    energies = [published_energy(p, n) for n in range(p["levels"])]
    if code == EXIT_OK:
        assert err == ""
        for row, want in zip(rows, energies):
            assert _rel(row[1], want) <= CLOSED_GATE
            assert _rel(row[2], want) <= GATE and _rel(complex(row[3], row[4]), want) <= GATE
    elif code == EXIT_VERIFY_FAIL:
        failure = _FAILURE.fullmatch(err)
        assert failure, err
        level, column = failure.groups()
        row = rows[int(level)]
        got = row[2] if column == "err_q" else complex(row[3], row[4])
        assert _rel(got, energies[int(level)]) > GATE
    else:
        pytest.fail(f"exit {code}: {err}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spectrum_points().map(lambda p: {**p, "levels": 4}))
def test_verify_exit_0_implies_spectrum_exit_0(p):
    code, _, _ = _main("verify", p)
    event(f"verify exit {code}")
    if code == EXIT_OK:
        spectrum_code, _, err = _main("spectrum", p)
        assert spectrum_code == EXIT_OK, err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spectrum_points().map(lambda p: {**p, "levels": 4}))
def test_spectrum_exit_0_implies_verify_exit_0_or_a_typed_refusal(p):
    # a verify exit 1 where spectrum exits 0 would be a false alarm: hermiticity-defect once failed 23-33 %
    # of these draws against its absolute 1e-2 floor, where H is only weakly non-Hermitian
    spectrum_code, _, _ = _main("spectrum", p)
    if spectrum_code != EXIT_OK:
        return
    code, _, err = _main("verify", p)
    event(f"verify exit {code}")
    assert code in (EXIT_OK, EXIT_NUMERIC), err
    if code == EXIT_NUMERIC:
        assert _NODE_DOUBLING.fullmatch(err), err


def _records(p: dict):
    code, out, _ = _main("verify", p)
    return code, [json.loads(line) for line in out.splitlines()]


def _agree(a: float, b: float, factor: float, tiny: float) -> bool:
    return max(a, b) <= factor * min(a, b) or max(a, b) <= tiny


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spectrum_points().filter(lambda p: p["model"] == "swanson").map(lambda p: {**p, "levels": 4}))
@example({"model": "swanson", "hbar": 1.0, "mass": 2.0, "beta": 0.1, "gamma": 0.0, "omega": 1.0,
          "lambda": 0.5, "delta": 0.0, "levels": 4})  # the Swanson defaults at m = 2
def test_verify_verdicts_obey_the_swanson_units_law(p):
    # (hbar, m, beta, gamma) -> (1, 1, hbar m beta, hbar m gamma) is the same model in units of omega, so each
    # record keeps its verdict.  The defect is a physical ratio and agrees to < 1e-5 (400 draws); the rest are
    # rounding-level residuals and agree within 50x (ode-residual; 16x gram-identity and gamma-independence,
    # 4.4x pseudo-hermiticity) or sit below 1e-13, as the ladder's 0 against 1 ulp does
    k = p["hbar"] * p["mass"]
    code, records = _records(p)
    unit_code, unit = _records({**p, "hbar": 1.0, "mass": 1.0, "beta": k * p["beta"], "gamma": k * p["gamma"]})
    assert code == unit_code
    for a, b in zip(records, unit):
        assert (a["name"], a["pass"], "skipped" in a) == (b["name"], b["pass"], "skipped" in b)
        assert _agree(a["value"], b["value"], 100.0, 1e-13), (a, b)
        if "measured" in a:
            assert _agree(a["measured"], b["measured"], 1.0 + 1e-4, 0.0) and _agree(a["floor"], b["floor"], 100.0, 1e-11)


def _units_params(p: dict, hbar: float, mass: float, beta: float, gamma: float, omega: float, lam: float):
    deformation = DeformationParams(hbar, beta, gamma)
    if p["model"] == "displaced":
        return DisplacedOscillatorParams(deformation, mu=mass, omega=omega, lam=lam)
    return SwansonParams(deformation, m=mass, omega=omega, lam=lam, delta=p["delta"])


def _levels(params) -> np.ndarray:
    """The 4 lowest E_n by the closed form, the q-box solve and the theta-axis solve, one row each."""
    family = params.family()
    q_box = solve_q_space(family.transform(), 4).eigenvalues
    theta = solve_p_space(family.coefficients(), params.deformation, 4).eigenvalues
    closed = [complex(params.energy(n)) for n in range(4)]
    return np.array([closed, family.energy_map.energy(np.array(q_box)), family.energy_map.energy(np.array(theta))])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spectrum_points())
def test_levels_obey_the_units_contract(p):
    # Swanson: E_n(hbar, m, beta) = E_n(1, 1, hbar m beta) in units of omega; displaced, with t = beta hbar mu omega/2:
    # E_n(hbar, mu, omega, lambda, beta) - lambda^2/(2 mu omega^2) = hbar omega E_n(1, 1, 1, 0, beta hbar mu omega).
    # gamma keeps its share of beta, so each side is the other's family with p rescaled.  The solves read E_n
    # off a sec^2 well of strength beta B(B - 1), of which E_n is a share of about (2n + 1)/B, so they resolve
    # it to about 2.5e-12 |B| (400 draws of this box): past |B| = 10 their gate grows as 1e-11 |B|
    hbar, mass, beta, gamma, omega, lam = (p[k] for k in ("hbar", "mass", "beta", "gamma", "omega", "lambda"))
    params = _units_params(p, hbar, mass, beta, gamma, omega, lam)
    levels = _levels(params)
    if p["model"] == "swanson":
        unit = _levels(_units_params(p, 1.0, 1.0, hbar * mass * beta, hbar * mass * gamma, omega, lam))
        shifted = levels
    else:
        k = hbar * mass * omega
        unit = hbar * omega * _levels(_units_params(p, 1.0, 1.0, beta * k, gamma * k, 1.0, 0.0))
        shifted = levels - lam**2 / (2.0 * mass * omega**2)
    rel = np.abs(shifted - unit) / np.maximum(1.0, np.abs(levels))
    solve_gate = max(1e-10, 1e-11 * abs(params.family().wall_exponent))
    assert rel[0].max() <= 1e-12 and rel[1:].max() <= solve_gate, rel.max(axis=1)


#: the five commands, each at --levels 2; sweep runs two beta rows, so a --beta flag is overridden there
COMMANDS = {
    "spectrum": ("spectrum",),
    "sweep": ("sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2"),
    "sweep-numeric": ("sweep", "--numeric", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2"),
    "wavefunction": ("wavefunction", "--samples", "3"),
    "verify": ("verify",),
}
FLOAT_FLAGS = ("hbar", "beta", "gamma", "mass", "omega", "lambda", "delta")
_PREFIX = {EXIT_CONFIG: "configuration error: ", EXIT_NUMERIC: "numeric failure: "}


def _finite_numbers(out: str) -> bool:
    """Every CSV cell (a blank one aside) and every JSON number of the output is finite."""
    try:
        parsed = [json.loads(line, parse_constant=float) for line in out.splitlines()]
    except ValueError:  # CSV: a header, then rows of numbers
        return all(cell == "" or np.isfinite(float(cell)) for line in out.splitlines()[1:] for cell in line.split(","))
    numbers = [v for record in parsed for v in (record.values() if isinstance(record, dict) else [record])]
    return all(np.isfinite(v) for v in numbers if isinstance(v, (int, float)) and not isinstance(v, bool))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    model=st.sampled_from(("displaced", "swanson")),
    flags=st.dictionaries(st.sampled_from(FLOAT_FLAGS), st.floats(), min_size=1, max_size=3),
)
@example(command="spectrum", model="displaced", flags={"omega": 1e200})  # omega**2 overflowed in lam_tilde
@example(command="spectrum", model="displaced", flags={"mass": 1e-320})  # a division by the mass's product is by 0
@example(command="sweep", model="displaced", flags={"hbar": 1e300})  # the closed-form levels were inf
@example(command="sweep", model="swanson", flags={"omega": float("inf")})  # printed inf and nan rows
def test_every_parameter_gets_an_exit_code(command, model, flags):
    # a full-range double in any model setting ends in a verdict, never in a traceback: exit 0 only with finite
    # numbers, 1 after the output it gates, 2 or 3 with one stderr line and nothing on stdout
    argv = [*COMMANDS[command], "--model", model, "--levels", "2"] + [f"--{k}={v!r}" for k, v in flags.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_CONFIG, EXIT_NUMERIC)
    if code in _PREFIX:
        assert out == "" and err.startswith(_PREFIX[code]) and err.count("\n") == 1 and err.endswith("\n"), err
    elif code == EXIT_VERIFY_FAIL:
        assert out != ""
    else:
        assert _finite_numbers(out), out
