"""Command-line interface: spectra, sweeps, wavefunction exports, verification.

Exit codes: 0 success (all checks pass), 1 verification failure, 2 invalid
configuration, 3 numeric failure.  Tabular output is CSV (LF endings, 17
significant digits); verification reports are JSON records, one per line.
"""

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import DeformationParams, GridFunction, MomentumGrid
from .errors import (
    ComplexSpectrumError,
    ConstraintViolatedError,
    DegenerateModelError,
    DomainError,
    InvalidGridError,
    MlqmError,
    UnsupportedRegimeError,
)
from .inner import QuadratureSpec
from .models import DisplacedOscillatorParams, SwansonParams, wavefunction
from . import eigensolver, verify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CONFIG_ERRORS = (
    DomainError,
    InvalidGridError,
    DegenerateModelError,
    UnsupportedRegimeError,
    ComplexSpectrumError,
    ConstraintViolatedError,
)

_CONFIG_KEYS = {
    "model", "hbar", "beta", "gamma", "mass", "omega", "lambda", "delta",
    "levels", "grid", "nodes", "p_grid", "p_max", "format", "output", "jobs",
}

_DEFAULTS = {
    "model": "displaced",
    "hbar": 1.0,
    "beta": 0.1,
    "gamma": 0.0,
    "mass": 1.0,
    "omega": 1.0,
    "lambda": 0.5,
    "delta": 0.0,
    "levels": 4,
    "grid": 2000,
    "nodes": 512,
    "p_grid": 1200,
    "p_max": 30.0,
    "format": "csv",
    "output": None,
    "jobs": 1,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults < config file < flags)."""

    model: str
    hbar: float
    beta: float
    gamma: float
    mass: float
    omega: float
    lam: float
    delta: float
    levels: int
    grid: int
    nodes: int
    p_grid: int
    p_max: float
    format: str
    output: str | None
    jobs: int

    def __post_init__(self):
        if self.model not in ("displaced", "swanson"):
            raise DomainError(f"unknown model {self.model!r}")
        if self.format not in ("csv", "json"):
            raise DomainError(f"unknown format {self.format!r}")
        if self.levels < 0:
            raise DomainError(f"levels must be non-negative, got {self.levels}")
        if self.jobs < 1:
            raise DomainError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def deformation(self) -> DeformationParams:
        return DeformationParams(hbar=self.hbar, beta=self.beta, gamma=self.gamma)

    def model_params(self):
        if self.model == "displaced":
            return DisplacedOscillatorParams(
                deformation=self.deformation, mu=self.mass, omega=self.omega, lam=self.lam
            )
        return SwansonParams(
            deformation=self.deformation, m=self.mass, omega=self.omega, lam=self.lam, delta=self.delta
        )

    def params_dict(self) -> dict:
        return {
            "model": self.model, "hbar": self.hbar, "beta": self.beta, "gamma": self.gamma,
            "mass": self.mass, "omega": self.omega, "lambda": self.lam, "delta": self.delta,
        }


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in _CONFIG_KEYS:
        flag_val = getattr(args, key if key != "lambda" else "lam", None)
        if flag_val is not None:
            merged[key] = flag_val
    return RunConfig(
        model=str(merged["model"]),
        hbar=float(merged["hbar"]),
        beta=float(merged["beta"]),
        gamma=float(merged["gamma"]),
        mass=float(merged["mass"]),
        omega=float(merged["omega"]),
        lam=float(merged["lambda"]),
        delta=float(merged["delta"]),
        levels=int(merged["levels"]),
        grid=int(merged["grid"]),
        nodes=int(merged["nodes"]),
        p_grid=int(merged["p_grid"]),
        p_max=float(merged["p_max"]),
        format=str(merged["format"]),
        output=merged["output"],
        jobs=int(merged["jobs"]),
    )


def _emit(lines_or_obj, cfg: RunConfig):
    if cfg.format == "csv":
        text = "\n".join(lines_or_obj) + "\n"
    else:
        text = json.dumps(lines_or_obj, indent=2) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _model_pieces(cfg: RunConfig):
    """Params, their family, its coefficients and its metric (self-checked on construction)."""
    params = cfg.model_params()
    family = params.family()
    return params, family, family.coefficients(), family.metric()


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

_SPECTRUM_HEADER = "n,E_closed,E_q,E_p_re,E_p_im,err_q,err_p"


def cmd_spectrum(cfg: RunConfig) -> int:
    params, family, coeffs, _ = _model_pieces(cfg)
    rows = []
    if cfg.levels > 0:
        q_result = eigensolver.solve_q_space(family.transform(), cfg.grid, cfg.levels)
        e_q = coeffs.energy_map.energy(q_result.real_parts)
        p_grid = MomentumGrid.symmetric(cfg.p_max, cfg.p_grid)
        # Swanson bound states decay only polynomially in p, so the spurious
        # filter needs the measure-weighted norm.
        p_result = eigensolver.solve_p_space(
            eigensolver.build_p_space_matrix(coeffs, p_grid),
            cfg.levels,
            weight=cfg.deformation.measure_weight(p_grid.points),
        )
        e_p = coeffs.energy_map.energy(np.array([complex(e) for e in p_result.eigenvalues]))
        for n in range(cfg.levels):
            e_closed = complex(params.energy(n)).real
            scale = max(1.0, abs(e_closed))
            rows.append(
                {
                    "n": n,
                    "E_closed": e_closed,
                    "E_q": float(e_q[n]),
                    "E_p_re": float(e_p[n].real),
                    "E_p_im": float(e_p[n].imag),
                    "err_q": abs(e_q[n] - e_closed) / scale,
                    "err_p": abs(e_p[n] - e_closed) / scale,
                }
            )
    if cfg.format == "csv":
        lines = [_SPECTRUM_HEADER]
        for r in rows:
            lines.append(
                ",".join([str(r["n"])] + [_fmt(r[k]) for k in ("E_closed", "E_q", "E_p_re", "E_p_im", "err_q", "err_p")])
            )
        _emit(lines, cfg)
    else:
        _emit(rows, cfg)
    return EXIT_OK


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

_SWEEP_PARAMS = ("beta", "lambda", "delta", "omega")


def _replace_param(cfg: RunConfig, name: str, value: float) -> RunConfig:
    key = "lam" if name == "lambda" else name
    return dataclasses.replace(cfg, **{key: value})


def _sweep_row(cfg: RunConfig, name: str, value: float, numeric: bool):
    local = _replace_param(cfg, name, value)
    params = local.model_params()
    if numeric:
        family = params.family()
        problem = family.transform()
        # past beta_c the Swanson levels are complex, which only the branch solver follows
        if isinstance(params, SwansonParams):
            result = eigensolver.solve_q_space_branch(
                problem,
                wall_exponent=family.spectral().a_const / np.sqrt(local.beta),
                n_grid=min(local.grid, 700),
                n_levels=local.levels,
            )
        else:
            result = eigensolver.solve_q_space(problem, local.grid, local.levels)
        energies = [family.energy_map.energy(complex(e)) for e in result.eigenvalues]
    else:
        energies = [complex(params.energy(n)) for n in range(local.levels)]
    try:
        bc = params.beta_c()
    except ConstraintViolatedError:
        bc = None
    return value, energies, bc


def cmd_sweep(cfg: RunConfig, param: str, start: float, stop: float, steps: int, numeric: bool) -> int:
    if param not in _SWEEP_PARAMS:
        raise DomainError(f"sweep parameter must be one of {_SWEEP_PARAMS}, got {param!r}")
    if steps < 2:
        raise DomainError(f"need steps >= 2, got {steps}")
    if start == stop:
        raise DomainError("constant sweep (from == to) rejected")
    values = np.linspace(start, stop, steps)
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        results = list(pool.map(lambda v: _sweep_row(cfg, param, float(v), numeric), values))
    header = [param] + [f"E{n}_{part}" for n in range(cfg.levels) for part in ("re", "im")] + ["beta_c"]
    if cfg.format == "csv":
        lines = [",".join(header)]
        for value, energies, bc in results:
            cells = [_fmt(value)]
            for e in energies:
                cells.extend([_fmt(e.real), _fmt(e.imag)])
            cells.append("" if bc is None else _fmt(bc))
            lines.append(",".join(cells))
        _emit(lines, cfg)
    else:
        records = []
        for value, energies, bc in results:
            rec = {param: value, "beta_c": bc}
            for n, e in enumerate(energies):
                rec[f"E{n}_re"] = e.real
                rec[f"E{n}_im"] = e.imag
            records.append(rec)
        _emit(records, cfg)
    return EXIT_OK


# --------------------------------------------------------------------------
# wavefunction
# --------------------------------------------------------------------------

def cmd_wavefunction(cfg: RunConfig, n: int, samples: int) -> int:
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if samples < 2:
        raise DomainError(f"need samples >= 2, got {samples}")
    params = cfg.model_params()
    psi = wavefunction(n, params, QuadratureSpec(node_count=cfg.nodes))
    eta = params.family().metric()
    sqb = np.sqrt(cfg.beta)
    q_half = np.pi / (2.0 * sqb)
    q = np.linspace(-0.995 * q_half, 0.995 * q_half, samples)
    p = np.tan(sqb * q) / sqb
    vals = psi(p)
    eta_vals = eta(p)
    if cfg.format == "csv":
        lines = ["p,re_psi,im_psi,eta,q"]
        for k in range(samples):
            lines.append(",".join(_fmt(x) for x in (p[k], vals[k].real, vals[k].imag, eta_vals[k], q[k])))
        _emit(lines, cfg)
    else:
        _emit(
            [
                {"p": p[k], "re_psi": float(vals[k].real), "im_psi": float(vals[k].imag),
                 "eta": float(eta_vals[k]), "q": float(q[k])}
                for k in range(samples)
            ],
            cfg,
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

_CHECK_NAMES = (
    "commutator-residual",
    "hermiticity-defect",
    "pseudo-hermiticity",
    "gram-identity",
    "ode-residual",
    "gamma-independence",
)


def _battery(cfg: RunConfig, metric_override: str | None):
    """Run the full verification battery; yields (report, grid-descriptor)."""
    params, family, coeffs, metric = _model_pieces(cfg)
    deformation = cfg.deformation
    spec = QuadratureSpec(node_count=cfg.nodes)

    comm_grid = MomentumGrid.symmetric(10.0, 4097)
    phi = GridFunction.from_callable(comm_grid, lambda p: np.exp(-0.5 * p**2))
    yield verify.commutator_report(deformation, phi), {"n_points": 4097, "p_max": 10.0}

    p_grid = MomentumGrid.symmetric(cfg.p_max, cfg.p_grid)
    grid_desc = {"n_points": cfg.p_grid, "p_max": cfg.p_max}
    hmat = eigensolver.build_p_space_matrix(coeffs, p_grid)
    # sigma and ell are the two parts of the metric; both vanish exactly when H is Hermitian
    if family.sigma != 0 or family.ell != 0:
        yield verify.hermiticity_defect_report(hmat, deformation, p_grid), grid_desc

    if metric_override is not None:
        base = dataclasses.replace(cfg, model=metric_override)
        metric = _model_pieces(base)[3]
    yield verify.pseudo_hermiticity_residual(hmat, metric, deformation, p_grid), grid_desc

    n_states = min(cfg.levels, 4) or 4
    states = [wavefunction(k, params, spec) for k in range(n_states)]
    _, gram_report = verify.gram_matrix(states, metric, deformation, spec)
    yield gram_report, {"nodes": cfg.nodes}

    worst = max(
        verify.ode_residual(psi, coeffs, psi.epsilon).value for psi in states
    )
    yield verify.ResidualReport(
        name="ode-residual", value=worst, tolerance=verify.TOLERANCES["ode-residual"]
    ), {"samples": 1000}

    # the gamma spread is O(h^4) in the p-spacing, so cap h at 0.025 to land
    # safely below the 1e-6 tolerance at the strongest supported deformations
    gamma_max = min(cfg.p_max, 15.0)
    gamma_n = max(int(2.0 * gamma_max / 0.025) + 1, 256)
    gamma_grid = MomentumGrid.symmetric(gamma_max, gamma_n)
    gammas = (0.0, cfg.beta / 2.0, cfg.beta)
    yield verify.gamma_independence(params, gammas, min(cfg.levels, 4) or 4, gamma_grid), {
        "n_points": gamma_grid.n_points,
        "p_max": gamma_max,
    }


def cmd_verify(cfg: RunConfig, list_only: bool, metric_override: str | None) -> int:
    if list_only:
        for name in _CHECK_NAMES:
            sys.stdout.write(name + "\n")
        return EXIT_OK
    all_pass = True
    lines = []
    for report, grid_desc in _battery(cfg, metric_override):
        record = report.to_record(params=cfg.params_dict(), grid=grid_desc)
        lines.append(json.dumps(record, sort_keys=True))
        all_pass = all_pass and report.passed
    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--model", choices=("displaced", "swanson"))
    parser.add_argument("--hbar", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--mass", type=float)
    parser.add_argument("--omega", type=float)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--levels", type=int)
    parser.add_argument("--grid", type=int, help="q-space grid size")
    parser.add_argument("--nodes", type=int, help="quadrature node count")
    parser.add_argument("--p-grid", dest="p_grid", type=int, help="p-space grid size")
    parser.add_argument("--p-max", dest="p_max", type=float, help="p-space half-width")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--output")
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--config", help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlqm",
        description="Minimal-length quantum mechanics of two non-Hermitian models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="closed-form vs numeric eigenvalues")
    _add_common(sp)

    sw = sub.add_parser("sweep", help="parameter sweep of the low-lying spectrum")
    _add_common(sw)
    sw.add_argument("--param", required=True, help="one of beta, lambda, delta, omega")
    sw.add_argument("--from", dest="start", type=float, required=True)
    sw.add_argument("--to", dest="stop", type=float, required=True)
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--numeric", action="store_true", help="numeric solver instead of closed forms")

    wf = sub.add_parser("wavefunction", help="sample one eigenfunction on a q-uniform grid")
    _add_common(wf)
    wf.add_argument("--n", type=int, default=0)
    wf.add_argument("--samples", type=int, default=200)

    vf = sub.add_parser("verify", help="run the verification battery (JSON records)")
    _add_common(vf)
    vf.add_argument("--list", action="store_true", help="print check names and exit")
    vf.add_argument("--metric-override", choices=("displaced", "swanson"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the config-error contract
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _resolve_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.param, args.start, args.stop, args.steps, args.numeric)
        if args.command == "wavefunction":
            return cmd_wavefunction(cfg, args.n, args.samples)
        if args.command == "verify":
            return cmd_verify(cfg, args.list, args.metric_override)
        raise DomainError(f"unknown command {args.command!r}")
    except _CONFIG_ERRORS as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except MlqmError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
