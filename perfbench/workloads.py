"""Workloads of the mlqm benchmark: seeded parameter draws, CLI arguments, output checks.

A workload draws its model parameters from fixed boxes with the run's seed,
so one seed always gives the same CLI arguments, and the program sees only
those arguments.  Every output is checked against a reference the benchmark
computes from the library's closed forms, with the gates the repository
already uses.  A check takes the CLI's standard output and returns
``(reason, stats)``: ``reason`` is None when the output passes, and
``stats`` holds the residuals behind the verdict.
"""

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mlqm.algebra import DeformationParams
from mlqm.models import (
    DisplacedOscillatorParams,
    SwansonParams,
    displaced_energy,
    swanson_beta_c,
    swanson_energy,
)

#: |E_q - E_closed| / max(1, |E|) gate of tests/test_cli.py and acceptance criteria 1-2.
ERR_Q_GATE = 1e-6
#: Relative gate on complex-branch energies cited by ROADMAP item 5.
BRANCH_GATE = 1e-2
#: Closed-form columns (E_closed, the beta grid, beta_c) must match the library to this relative error.
CLOSED_FORM_GATE = 1e-12
#: Digits reported for an exact match (relative error 0).
MAX_DIGITS = 17.0

LEVELS = 4
BRANCH_STEPS = 6  # even, so no sweep point sits exactly on the exceptional point beta_c

VERIFY_CHECKS = (
    "commutator-residual",
    "hermiticity-defect",
    "pseudo-hermiticity",
    "gram-identity",
    "ode-residual",
    "gamma-independence",
)
SPECTRUM_HEADER = "n,E_closed,E_q,E_p_re,E_p_im,err_q,err_p"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``kind`` names its timing metric, ``command`` its warm-up group."""

    kind: str
    command: str
    args: tuple
    check: Callable[[str], tuple]


@dataclass(frozen=True)
class Workload:
    """Drawn parameters, the cycles of ops run round-robin, and the ops per verified result."""

    name: str
    params: dict
    cycles: tuple
    result: dict


def digits(rel_err: float) -> float:
    """Correct decimal digits of a relative error, capped at MAX_DIGITS for an exact match."""
    return min(MAX_DIGITS, -math.log10(rel_err)) if rel_err > 0 else MAX_DIGITS


def _num(x: float) -> str:
    return repr(float(x))


def displaced(beta: float, lam: float) -> DisplacedOscillatorParams:
    return DisplacedOscillatorParams(DeformationParams(hbar=1.0, beta=beta, gamma=0.0), lam=lam)


def swanson(beta: float, lam: float, delta: float) -> SwansonParams:
    return SwansonParams(DeformationParams(hbar=1.0, beta=beta, gamma=0.0), lam=lam, delta=delta)


def _model_args(model: str, p: dict) -> tuple:
    args = ("--model", model, "--beta", _num(p["beta"]), "--lambda", _num(p["lambda"]))
    return args + (("--delta", _num(p["delta"])) if model == "swanson" else ())


def _params_at(model: str, p: dict, beta: float):
    if model == "displaced":
        return displaced(beta, p["lambda"])
    return swanson(beta, p["lambda"], p["delta"])


def _energy(model: str, n: int, params) -> complex:
    return complex(displaced_energy(n, params) if model == "displaced" else swanson_energy(n, params))


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def check_setup(stdout: str):
    names = stdout.split()
    if not names:
        return "verify --list printed no check names", {}
    return None, {"checks": names}


def check_spectrum(stdout: str, reference) -> tuple:
    """E_closed must equal the closed form; E_q must meet the 1e-6 gate; err_p is only recorded."""
    lines = stdout.splitlines()
    if not lines or lines[0] != SPECTRUM_HEADER:
        return "unexpected spectrum header", {}
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    if rows.shape != (len(reference), 7):
        return f"spectrum table has shape {rows.shape}, expected ({len(reference)}, 7)", {}
    if not np.all(np.isfinite(rows)):
        return "non-finite value in spectrum output", {}
    ref = np.asarray(reference, dtype=complex)
    scale = np.maximum(1.0, np.abs(ref))
    err_closed = np.abs(rows[:, 1] - ref) / scale
    err_q = np.abs(rows[:, 2] - ref) / scale
    err_p = np.abs(rows[:, 3] + 1j * rows[:, 4] - ref) / scale
    stats = {
        "err_q": err_q.tolist(),
        "err_p": err_p.tolist(),
        "cli_err_q": rows[:, 5].tolist(),
        "cli_err_p": rows[:, 6].tolist(),
        "digits_q": digits(err_q.max()),
        "digits_p": digits(err_p.max()),
    }
    stats["accuracy_digits"] = min(stats["digits_q"], stats["digits_p"])
    if not err_closed.max() <= CLOSED_FORM_GATE:
        return f"E_closed differs from the closed form by {err_closed.max():.3g}", stats
    if not err_q.max() < ERR_Q_GATE:
        return f"err_q = {err_q.max():.3g} is not below {ERR_Q_GATE}", stats
    return None, stats


def check_verify(stdout: str) -> tuple:
    """Every record must pass with a finite value, and every check of the battery must run."""
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    checks = [{k: r[k] for k in ("name", "value", "tolerance", "pass")} for r in records]
    margins = [
        math.log10(c["tolerance"] / c["value"]) if c["value"] > 0 else MAX_DIGITS
        for c in checks
        if c["tolerance"] > 0
    ]
    stats = {"checks": checks, "verify_margin_digits": min(margins, default=MAX_DIGITS)}
    missing = sorted(set(VERIFY_CHECKS) - {c["name"] for c in checks})
    if missing:
        return f"verify did not run {missing}", stats
    for c in checks:
        if not math.isfinite(c["value"]):
            return f"{c['name']} value is not finite", stats
        if c["pass"] is not True:
            return f"{c['name']} did not pass ({c['value']:.3g} > {c['tolerance']:.3g})", stats
    return None, stats


def _sweep_table(stdout: str, start: float, stop: float, steps: int):
    lines = stdout.splitlines()
    header = ["beta"] + [f"E{n}_{part}" for n in range(LEVELS) for part in ("re", "im")] + ["beta_c"]
    if not lines or lines[0].split(",") != header:
        raise ValueError("unexpected sweep header")
    cells = [line.split(",") for line in lines[1:]]
    if len(cells) != steps:
        raise ValueError(f"{len(cells)} sweep rows, expected {steps}")
    betas = np.array([float(c[0]) for c in cells])
    grid = np.linspace(start, stop, steps)
    if not np.max(np.abs(betas - grid) / np.abs(grid)) <= CLOSED_FORM_GATE:
        raise ValueError("sweep beta column differs from the requested grid")
    energies = np.array([[complex(float(c[1 + 2 * n]), float(c[2 + 2 * n])) for n in range(LEVELS)] for c in cells])
    beta_c = [float(c[-1]) if c[-1] else None for c in cells]
    return betas, energies, beta_c


def _beta_c_error(p: dict, beta_c: list) -> str | None:
    expected = float(swanson_beta_c(swanson(1.0, p["lambda"], p["delta"])))
    for got in beta_c:
        if got is None or not abs(got - expected) <= CLOSED_FORM_GATE * expected:
            return f"beta_c column {got} differs from {expected}"
    return None


def check_sweep_numeric(stdout: str, p: dict, start: float, stop: float, steps: int) -> tuple:
    """Each branch energy must lie within 1e-2 (relative) of a closed-form level or its conjugate."""
    betas, energies, beta_c = _sweep_table(stdout, start, stop, steps)
    if not np.all(np.isfinite(energies)):
        return "non-finite value in sweep output", {}
    dist = []
    for b, row in zip(betas, energies):
        levels = np.array([_energy("swanson", n, _params_at("swanson", p, b)) for n in range(LEVELS + 2)])
        candidates = np.concatenate([levels, levels.conj()])
        dist.append([np.min(np.abs(candidates - e)) / max(1.0, abs(e)) for e in row])
    worst = float(np.max(dist))
    stats = {"branch_rel_err": dist, "digits_branch": digits(worst), "accuracy_digits": digits(worst)}
    if not worst < BRANCH_GATE:
        return f"branch energy {worst:.3g} from every closed-form level", stats
    return _beta_c_error(p, beta_c), stats


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

SETUP = Op("setup", "verify", ("verify", "--list"), check_setup)


def _draw_displaced(rng: random.Random) -> dict:
    return {"beta": round(rng.uniform(0.05, 0.2), 6), "lambda": round(rng.uniform(0.2, 0.8), 6)}


def _draw_swanson(rng: random.Random) -> dict:
    # beta >= 0.6 with lambda - delta >= 0.2 makes verify refuse for lack of p-grid
    # resolution, so the box stays below that; lambda != delta keeps hermiticity-defect on
    return {
        "beta": round(rng.uniform(0.3, 0.5), 6),
        "lambda": round(rng.uniform(0.25, 0.3), 6),
        "delta": round(rng.uniform(0.1, 0.15), 6),
    }


def _spectrum_op(model: str, p: dict) -> Op:
    params = _params_at(model, p, p["beta"])
    reference = [_energy(model, n, params) for n in range(LEVELS)]
    args = ("spectrum",) + _model_args(model, p) + ("--levels", str(LEVELS))
    return Op(f"spectrum_{model}", "spectrum", args, lambda out: check_spectrum(out, reference))


def _verify_op(model: str, p: dict) -> Op:
    args = ("verify",) + _model_args(model, p) + ("--levels", str(LEVELS))
    return Op(f"verify_{model}", "verify", args, check_verify)


def _check(rng: random.Random) -> Workload:
    d, s = _draw_displaced(rng), _draw_swanson(rng)
    return Workload(
        name="check",
        params={"displaced": d, "swanson": s},
        cycles=(
            (_spectrum_op("displaced", d), _verify_op("displaced", d)),
            (_spectrum_op("swanson", s), _verify_op("swanson", s)),
        ),
        result={"spectrum_displaced": 1, "verify_displaced": 1, "spectrum_swanson": 1, "verify_swanson": 1},
    )


def _sweep_numeric(rng: random.Random) -> Workload:
    p = {"lambda": round(rng.uniform(0.15, 0.25), 6), "delta": round(rng.uniform(0.15, 0.25), 6)}
    beta_c = float(swanson_beta_c(swanson(1.0, p["lambda"], p["delta"])))
    start, stop = 0.75 * beta_c, 1.25 * beta_c
    args = (
        "sweep", "--model", "swanson", "--numeric", "--param", "beta",
        "--from", _num(start), "--to", _num(stop), "--steps", str(BRANCH_STEPS),
        "--lambda", _num(p["lambda"]), "--delta", _num(p["delta"]), "--levels", str(LEVELS),
    )
    op = Op("sweep_numeric", "sweep", args, lambda out: check_sweep_numeric(out, p, start, stop, BRANCH_STEPS))
    return Workload(
        name="sweep-numeric",
        params={"swanson": dict(p, beta_c=beta_c, beta_from=start, beta_to=stop)},
        cycles=((op,),),
        result={"sweep_numeric": 1},
    )


WORKLOADS = {"check": _check, "sweep-numeric": _sweep_numeric}


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its parameters drawn from ``seed``."""
    return WORKLOADS[name](random.Random(seed))
