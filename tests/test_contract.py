"""Random-box contract of `mlqm spectrum`: each exit code is checked against a 50-digit evaluation of the published E_n.

Over the same box, exit 0 from `mlqm verify` implies exit 0 from `mlqm spectrum --levels 4`.

    PYTHONPATH=src python -m pytest -q tests/test_contract.py --hypothesis-show-statistics

The statistics name the share of each exit code over the box.
"""

import contextlib
import io
import re

import mpmath
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from mlqm.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY_FAIL, main
from mlqm.verify import TOLERANCES
from test_models import _log_uniform

#: Gate on E_closed against the 50-digit E_n; E_q and E_p meet `spectrum`'s own 1e-6 gate.
CLOSED_GATE = 1e-12
GATE = TOLERANCES["spectrum-error"]
_FAILURE = re.compile(r"verification failure: level (\d+) has (err_q|err_p) = \S+, above the \S+ gate\n")
_PAST_BETA_C = re.compile(r"configuration error: beta = \S+ is past the reality threshold beta_c = \S+: ")


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
