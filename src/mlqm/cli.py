"""Command-line interface: spectra, sweeps, wavefunction exports, verification.

Exit codes: 0 success (all checks pass), 1 verification failure (a failed
``verify`` check, or a ``spectrum`` or ``sweep --numeric`` level off its
closed form), 2 invalid configuration (a ``ConfigurationError``, or parameters
whose derived values leave double precision), 3 numeric failure (any other
``MlqmError``).  Tabular output is CSV (LF endings, 17 significant digits);
verification reports are JSON records, one per line.
"""

import argparse
import dataclasses
import functools
import gc
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field

from .errors import ConfigurationError, MlqmError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

MODELS = ("displaced", "swanson")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (defaults < config file < flags).

    Each field is one setting and declares both its flag and its config key:
    its default is the default, its annotation types the flag and casts a
    config-file value, and its name is the config key and, with ``-`` for
    ``_``, the flag.  Field metadata may add a ``key`` (``lam`` is spelled
    ``lambda``) and the ``choices`` that flags and config files are both
    checked against.
    """

    model: str = field(default="displaced", metadata={"choices": MODELS})
    hbar: float = 1.0
    beta: float = 0.1
    gamma: float = 0.0
    mass: float = 1.0
    omega: float = 1.0
    lam: float = field(default=0.5, metadata={"key": "lambda"})
    delta: float = 0.0
    levels: int = 4
    format: str = field(default="csv", metadata={"choices": ("csv", "json")})
    output: str | None = None

    def __post_init__(self):
        for f in _SETTINGS.values():
            if "choices" in f.metadata and getattr(self, f.name) not in f.metadata["choices"]:
                raise ConfigurationError(f"unknown {f.name} {getattr(self, f.name)!r}")
        if self.levels < 0:
            raise ConfigurationError(f"levels must be non-negative, got {self.levels}")

    def model_params(self):
        _load_library()  # every model, and so every command that computes, starts here
        if self.levels > eigensolver._MAX_LEVELS:  # the most levels any solve returns, refused before any work
            raise ConfigurationError(f"need levels <= {eigensolver._MAX_LEVELS}, got {self.levels}")
        for key, value in self.params_dict().items():
            if key != "model" and not np.isfinite(value):
                raise ConfigurationError(f"{key} must be finite, got {value}")
        deformation = DeformationParams(hbar=self.hbar, beta=self.beta, gamma=self.gamma)
        if self.model == "displaced":
            return DisplacedOscillatorParams(
                deformation=deformation, mu=self.mass, omega=self.omega, lam=self.lam
            )
        return SwansonParams(
            deformation=deformation, m=self.mass, omega=self.omega, lam=self.lam, delta=self.delta
        )

    def params_dict(self) -> dict:
        return {key: getattr(self, _SETTINGS[key].name) for key in _MODEL_KEYS}


@functools.cache
def _load_library():
    """Import numpy and the numeric library into this module, once.

    Importing them is most of the start-up of a process, so ``import mlqm.cli``,
    ``--help``, ``verify --list`` and configuration errors, which compute nothing,
    do without them.
    """
    global np, DeformationParams, DisplacedOscillatorParams, SwansonParams, wavefunction, eigensolver, verify
    import numpy as np

    from . import eigensolver, verify
    from .algebra import DeformationParams
    from .models import DisplacedOscillatorParams, SwansonParams, wavefunction


#: config key -> RunConfig field
_SETTINGS = {f.metadata.get("key", f.name): f for f in dataclasses.fields(RunConfig)}
#: the settings that define the model, echoed in every verify record
_MODEL_KEYS = ("model", "hbar", "beta", "gamma", "mass", "omega", "lambda", "delta")


def _integral(value) -> int:
    if type(value) not in (int, float) or not float(value).is_integer():  # exact types: True is refused
        raise TypeError(f"expected an integral number, got {value!r}")
    return int(value)


def _real(value) -> float:
    if type(value) not in (int, float):  # exact types: True and "0.3" are refused
        raise TypeError(f"expected a real number, got {value!r}")
    return float(value)


def _str_or_none(value):
    if value is not None and type(value) is not str:
        raise TypeError(f"expected a string or null, got {value!r}")
    return value


#: field annotation -> cast of a setting's resolved value
_CASTS = {str: str, float: _real, int: _integral, str | None: _str_or_none}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = {key: f.default for key, f in _SETTINGS.items()}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(_SETTINGS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    values = {}
    for key, f in _SETTINGS.items():
        flag_val = getattr(args, f.name)
        value = merged[key] if flag_val is None else flag_val
        try:
            values[f.name] = _CASTS[f.type](value)
        except TypeError as exc:
            raise ConfigurationError(f"config key {key!r}: {exc}") from None
    return RunConfig(**values)


def _write(text: str, cfg: RunConfig):
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(header, rows, cfg: RunConfig):
    """Write dict rows as CSV in header order (None is a blank cell) or as a JSON array."""
    if cfg.format == "json":
        text = json.dumps(rows, indent=2)
    else:
        lines = [",".join(header)]
        lines += [",".join("" if row[k] is None else _fmt(row[k]) for k in header) for row in rows]
        text = "\n".join(lines)
    _write(text + "\n", cfg)


def _require_finite_box(cfg: RunConfig):
    """The numeric solves work on the q-box |q| < pi/(2 sqrt(beta)), which beta = 0 stretches to the whole line."""
    if not cfg.beta > 0:
        raise ConfigurationError(f"the numeric solves need beta > 0, got beta = {cfg.beta:g}")


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

_SPECTRUM_HEADER = ("n", "E_closed", "E_q", "E_p_re", "E_p_im", "err_q", "err_p")


def cmd_spectrum(cfg: RunConfig) -> int:
    params = cfg.model_params()
    family = params.family()
    coeffs = family.coefficients()
    _require_finite_box(cfg)
    # E_closed and E_q are real columns, so complex levels would lose their imaginary part
    if complex(params.energy(0)).imag != 0:
        raise ConfigurationError(
            f"beta = {cfg.beta!r} is past the reality threshold beta_c = {float(params.beta_c())!r}: the levels are "
            "complex-conjugate pairs; follow them with `sweep --numeric`"
        )
    e_closed = [e.real for e in _closed_form(params, cfg.levels)]
    for n in range(1, cfg.levels):
        lower, upper = e_closed[n - 1], e_closed[n]
        # the ladder's spacing is then at the rounding of the levels themselves, so no error can be measured
        if abs(upper - lower) <= 16 * np.spacing(max(abs(lower), abs(upper))):
            raise ConfigurationError(
                f"closed-form levels E_{n - 1} = {_fmt(lower)} and E_{n} = {_fmt(upper)} are within 16 ulp "
                "of each other: the ladder is not resolved in double precision"
            )
    rows = []
    if cfg.levels > 0:
        q_result = eigensolver.solve_q_space(family.transform(), cfg.levels)
        e_q = family.energy_map.energy(q_result.real_parts)
        p_result = eigensolver.solve_p_space(coeffs, params.deformation, cfg.levels)
        e_p = family.energy_map.energy(np.array(p_result.eigenvalues))
        for n, e in enumerate(e_closed):
            scale = max(1.0, abs(e))
            rows.append(
                {
                    "n": n,
                    "E_closed": e,
                    "E_q": float(e_q[n]),
                    "E_p_re": float(e_p[n].real),
                    "E_p_im": float(e_p[n].imag),
                    "err_q": abs(e_q[n] - e) / scale,
                    "err_p": abs(e_p[n] - e) / scale,
                }
            )
    _emit(_SPECTRUM_HEADER, rows, cfg)
    return _gate(((row[col], row["n"], col) for row in rows for col in ("err_q", "err_p")), "level {} has {}".format)


def _closed_form(params, levels: int) -> list:
    """The closed-form E_0 ... E_{levels - 1} as complex numbers, refused where one leaves double precision."""
    energies = [complex(params.energy(n)) for n in range(levels)]
    for n, e in enumerate(energies):
        if not np.isfinite(e):
            raise ConfigurationError(f"closed-form level E_{n} = {e:g} is not finite in double precision")
    return energies


def _gate(errors, what) -> int:
    """Exit 1 if an (error, *key) is above the gate, after a stderr line naming the worst (NaN first) by what(*key)."""
    gate = verify.TOLERANCES["spectrum-error"]
    misses = [miss for miss in errors if not miss[0] <= gate]
    if not misses:
        return EXIT_OK
    err, *key = max(misses, key=lambda miss: (np.isnan(miss[0]), miss[0]))
    sys.stderr.write(f"verification failure: {what(*key)} = {err:.3g}, above the {gate:g} gate\n")
    return EXIT_VERIFY_FAIL


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

_SWEEP_PARAMS = ("beta", "lambda", "delta", "omega")
#: Most rows of a sweep or a wavefunction table, which is built in memory before it is written.
_MAX_SWEEP_STEPS = 100_000


def _sweep_row(cfg: RunConfig, name: str, value: float, numeric: bool) -> tuple:
    """One sweep row, and each numeric level's error relative to max(1, |E|) off its closed-form E."""
    local = dataclasses.replace(cfg, **{_SETTINGS[name].name: value})
    params = local.model_params()
    if numeric:
        _require_finite_box(local)
    energies, errors = _closed_form(params, local.levels), ()
    if numeric and local.levels > 0:
        family = params.family()
        result = eigensolver.solve_q_space(family.transform(), local.levels)
        # the closed form, merged with its conjugates where the solve merged its own, in the solve's order
        want = np.array(eigensolver._lowest(np.array(energies), local.levels, merge=result.has_conjugate_pair))
        energies = [family.energy_map.energy(complex(e)) for e in result.eigenvalues]
        errors = np.abs(np.array(energies) - want) / np.maximum(1.0, np.abs(want))
    try:
        bc = params.beta_c()
    except ConfigurationError:
        bc = None
    row = {name: value, "beta_c": bc}
    for n, e in enumerate(energies):
        row[f"E{n}_re"], row[f"E{n}_im"] = e.real, e.imag
    return row, errors


def cmd_sweep(cfg: RunConfig, param: str, start: float, stop: float, steps: int, numeric: bool) -> int:
    if param not in _SWEEP_PARAMS:
        raise ConfigurationError(f"sweep parameter must be one of {_SWEEP_PARAMS}, got {param!r}")
    if param == "delta" and cfg.model == "displaced":
        raise ConfigurationError("the displaced model has no delta to sweep; delta is a Swanson parameter")
    if not 2 <= steps <= _MAX_SWEEP_STEPS:
        raise ConfigurationError(f"need 2 <= steps <= {_MAX_SWEEP_STEPS}, got {steps}")
    if start == stop:
        raise ConfigurationError("constant sweep (from == to) rejected")
    for flag, value in (("--from", start), ("--to", stop)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{flag} must be finite, got {value}")
    _load_library()
    rows, row_errors = zip(*(_sweep_row(cfg, param, float(v), numeric) for v in np.linspace(start, stop, steps)))
    header = [param] + [f"E{n}_{part}" for n in range(cfg.levels) for part in ("re", "im")] + ["beta_c"]
    _emit(header, list(rows), cfg)
    errors = ((err, row[param], n) for row, errs in zip(rows, row_errors) for n, err in enumerate(errs))
    return _gate(errors, lambda value, n: f"at {param} = {_fmt(value)} level {n} has error")


# --------------------------------------------------------------------------
# wavefunction
# --------------------------------------------------------------------------

_WAVEFUNCTION_HEADER = ("p", "re_psi", "im_psi", "eta", "q")


def cmd_wavefunction(cfg: RunConfig, n: int, samples: int) -> int:
    if n < 0:
        raise ConfigurationError(f"need n >= 0, got {n}")
    if not 2 <= samples <= _MAX_SWEEP_STEPS:
        raise ConfigurationError(f"need 2 <= samples <= {_MAX_SWEEP_STEPS}, got {samples}")
    params = cfg.model_params()
    if n >= eigensolver._MAX_LEVELS:
        raise ConfigurationError(f"need n < {eigensolver._MAX_LEVELS}, got {n}")
    psi = wavefunction(n, params)
    eta = params.family().metric()
    d = params.deformation
    q = np.linspace(-0.995 * d.q_half, 0.995 * d.q_half, samples)
    p = d.p_of_q(q)
    vals = psi(p)
    columns = (p, vals.real, vals.imag, eta(p), q)
    rows = [{key: float(col[k]) for key, col in zip(_WAVEFUNCTION_HEADER, columns)} for k in range(samples)]
    _emit(_WAVEFUNCTION_HEADER, rows, cfg)
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
    "closed-form-ladder",
)


def cmd_verify(cfg: RunConfig, list_only: bool) -> int:
    if list_only:
        # verify.battery emits every check for every model, a skipped one included, so no model is built
        _write("".join(name + "\n" for name in _CHECK_NAMES), cfg)
        return EXIT_OK
    params = cfg.model_params()  # first: it loads the library
    reports = verify.battery(params, cfg.levels)
    _write("".join(json.dumps(r.to_record(cfg.params_dict()), sort_keys=True) + "\n" for r in reports), cfg)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser):
    # a negative number is a flag's value, not an option; argparse's own pattern misses -1e-03, as repr writes it
    parser._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    for key, f in _SETTINGS.items():
        flag_type = str if f.type == str | None else f.type
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=f.name, type=flag_type, choices=f.metadata.get("choices")
        )
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
    sw.add_argument("--param", required=True, help="one of " + ", ".join(_SWEEP_PARAMS))
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow and invalid-value warnings raise
            if args.command == "spectrum":
                return cmd_spectrum(cfg)
            if args.command == "sweep":
                return cmd_sweep(cfg, args.param, args.start, args.stop, args.steps, args.numeric)
            if args.command == "wavefunction":
                return cmd_wavefunction(cfg, args.n, args.samples)
            if args.command == "verify":
                return cmd_verify(cfg, args.list)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except MlqmError as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (ArithmeticError, RuntimeWarning) as exc:  # Python's OverflowError or ZeroDivisionError, numpy's warning
        sys.stderr.write(f"configuration error: a value derived from the parameters leaves double precision: {exc!r}\n")
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:  # outside input: the config file, its JSON, a value float() cannot read
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


def run() -> None:
    """Process entry of the ``mlqm`` script and ``python -m mlqm.cli``: exit with :func:`main`'s code.

    ``gc.freeze()`` moves every live object into the permanent generation, which the
    interpreter's shutdown collections skip; numpy and SciPy leave about 42k tracked objects.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
