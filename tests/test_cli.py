"""CLI contract: subcommands, formats, config resolution, exit codes."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csc_array

import mlqm
from mlqm import cli, eigensolver, verify
from mlqm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY_FAIL, RunConfig, _battery, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_csv_output_and_accuracy(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--levels", "3", "--grid", "800")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "n,E_closed,E_q,E_p_re,E_p_im,err_q,err_p"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(0.6506246098625197, rel=1e-12)
        assert float(first[5]) < 1e-6  # q-space relative error
        assert float(first[6]) < 1e-4  # p-space relative error

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--levels", "2", "--grid", "800", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [0, 1]
        assert rows[0]["err_q"] < 1e-6

    def test_swanson_clean_point(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "swanson", "--beta", "0.5",
            "--lambda", "0.2", "--delta", "0.2", "--levels", "2", "--grid", "800",
        )
        assert code == EXIT_OK
        first = out.strip().split("\n")[1].split(",")
        assert float(first[1]) == pytest.approx(0.45, rel=1e-12)
        assert float(first[5]) < 1e-6

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run(
            capsys, "spectrum", "--levels", "2", "--grid", "800", "--output", str(target)
        )
        assert code == EXIT_OK and out == ""
        text = target.read_text()
        assert text.startswith("n,E_closed") and "\r" not in text

    def test_box_too_small_refuses(self, capsys):
        code, out, err = run(capsys, "spectrum", "--p-max", "3")
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric failure: the box edge holds 4 of the 4 lowest p-space modes; enlarge the grid\n"


class TestSweep:
    def test_closed_form_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "swanson", "--beta", "0.5",
            "--lambda", "0.2", "--delta", "0.2", "--levels", "2",
            "--param", "beta", "--from", "1.5", "--to", "2.5", "--steps", "3",
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "beta,E0_re,E0_im,E1_re,E1_im,beta_c"
        rows = [l.split(",") for l in lines[1:]]
        assert [float(r[0]) for r in rows] == [1.5, 2.0, 2.5]
        # beta_c column is constant at 2.0 for these couplings
        assert all(float(r[-1]) == pytest.approx(2.0) for r in rows)
        # real below the transition, complex pair above it
        assert float(rows[0][2]) == 0.0
        assert float(rows[2][2]) != 0.0

    def test_rows_follow_the_swept_values_in_order(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--levels", "2",
            "--param", "lambda", "--from", "0.0", "--to", "0.6", "--steps", "7",
        )
        assert code == EXIT_OK
        vals = [float(l.split(",")[0]) for l in out.strip().split("\n")[1:]]
        assert vals == pytest.approx(np.linspace(0.0, 0.6, 7).tolist())

    def test_rejects_unknown_parameter(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--param", "mass", "--from", "1", "--to", "2", "--steps", "3"
        )
        assert code == EXIT_CONFIG and "sweep parameter" in err

    def test_rejects_constant_sweep(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--param", "beta", "--from", "0.1", "--to", "0.1", "--steps", "3"
        )
        assert code == EXIT_CONFIG

    def test_rejects_huge_step_count_before_any_work(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a sweep row was computed")

        monkeypatch.setattr(cli, "_sweep_row", no_rows)
        code, out, err = run(
            capsys, "sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "1000000000"
        )
        assert code == EXIT_CONFIG and out == ""
        assert err == "configuration error: need 2 <= steps <= 100000, got 1000000000\n"

    def test_branch_solver_refuses_unresolvable_level_count(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--model", "swanson", "--numeric", "--param", "beta",
            "--from", "1.5", "--to", "1.7", "--steps", "2",
            "--lambda", "0.2", "--delta", "0.2", "--levels", "800",
        )
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric failure: cannot resolve 800 levels on a 700-point grid\n"

    def test_numeric_sweep_refuses_a_grid_coarser_than_the_wall_gap(self, capsys):
        # on this grid the wall closure would degenerate into a Dirichlet wall, which prints
        # E0 = 0.3354 + 0i at beta = 2.5, where the closed form is 0.375 -/+ 0.156i
        code, out, err = run(
            capsys, "sweep", "--model", "swanson", "--numeric", "--grid", "80", "--param", "beta",
            "--from", "1.5", "--to", "2.5", "--steps", "3", "--lambda", "0.2", "--delta", "0.2", "--levels", "2",
        )
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric failure: q-grid of 80 points is not finer than the wall gap; need n_grid >= 100\n"

    def test_numeric_sweep_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--levels", "2", "--grid", "600", "--numeric",
            "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2",
        )
        assert code == EXIT_OK
        row = out.strip().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(0.6506246098625197, rel=1e-6)


class TestSpectrumPastThreshold:
    def test_swanson_complex_levels_refused(self, capsys):
        # the closed form is 0.345 -/+ 0.126i here; its real part alone is not a level
        code, out, err = run(
            capsys, "spectrum", "--model", "swanson", "--beta", "2.3", "--lambda", "0.2", "--delta", "0.2",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err == (
            "configuration error: beta = 2.3 is past the reality threshold beta_c = 2: the levels are "
            "complex-conjugate pairs; follow them with `sweep --numeric`\n"
        )

    def test_real_again_above_the_complex_window(self, capsys):
        # (omega - t)^2 >= 4 lam delta again once t >= omega + 2 sqrt(lam delta): beta >= 14/3 here
        code, out, _ = run(
            capsys, "spectrum", "--model", "swanson", "--beta", "6", "--lambda", "0.2", "--delta", "0.2",
            "--levels", "2",
        )
        assert code == EXIT_OK
        assert float(out.split("\n")[1].split(",")[1]) == pytest.approx(1.2464101615137757, rel=1e-12)


class TestWavefunction:
    def test_sample_columns(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--n", "1", "--samples", "50")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "p,re_psi,im_psi,eta,q"
        assert len(lines) == 51
        mid = lines[26].split(",")  # q ~ 0 for odd sample counts... check finite
        assert all(np.isfinite(float(x)) for x in mid)

    def test_rejects_negative_level(self, capsys):
        code, _, _ = run(capsys, "wavefunction", "--n", "-1")
        assert code == EXIT_CONFIG

    def test_swanson_complex_regime_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "wavefunction", "--model", "swanson", "--beta", "2.5",
            "--lambda", "0.2", "--delta", "0.2",
        )
        assert code == EXIT_CONFIG and "reality threshold" in err


class TestFormats:
    """CSV and JSON are two spellings of the same rows."""

    @pytest.mark.parametrize(
        "argv, blank",
        [
            (("spectrum", "--levels", "2", "--grid", "800"), set()),
            # lambda * delta < 0 has no reality threshold: a blank CSV cell, a JSON null
            (("sweep", "--model", "swanson", "--lambda", "0.2", "--delta", "-0.1", "--levels", "2",
              "--param", "beta", "--from", "0.3", "--to", "0.6", "--steps", "3"), {"beta_c"}),
            (("wavefunction", "--n", "1", "--samples", "9"), set()),
        ],
    )
    def test_csv_and_json_agree(self, capsys, argv, blank):
        code_csv, csv_text, _ = run(capsys, *argv)
        code_json, json_text, _ = run(capsys, *argv, "--format", "json")
        assert code_csv == code_json == EXIT_OK
        header, *lines = csv_text.strip().split("\n")
        keys = header.split(",")
        records = json.loads(json_text)
        assert len(lines) == len(records) > 0
        for line, record in zip(lines, records):
            assert set(record) == set(keys)
            assert {k for k in keys if record[k] is None} == blank
            for key, cell in zip(keys, line.split(",")):
                assert (None if cell == "" else float(cell)) == record[key]


class TestVerify:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == EXIT_OK
        names = out.strip().split("\n")
        assert "pseudo-hermiticity" in names and "gamma-independence" in names

    def test_battery_passes_for_displaced_defaults(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        records = [json.loads(l) for l in out.strip().split("\n")]
        assert all(r["pass"] for r in records)
        names = {r["name"] for r in records}
        assert {"commutator-residual", "hermiticity-defect", "pseudo-hermiticity",
                "gram-identity", "ode-residual", "gamma-independence"} <= names
        for r in records:
            assert set(r) == {"name", "value", "tolerance", "pass", "params", "grid"}

    def test_wrong_metric_fails_battery(self, capsys):
        code, out, _ = run(capsys, "verify", "--metric-override", "swanson")
        assert code == EXIT_VERIFY_FAIL
        records = {r["name"]: r for r in map(json.loads, out.strip().split("\n"))}
        assert not records["pseudo-hermiticity"]["pass"]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "verify.jsonl"
        code, out, _ = run(capsys, "verify", "--output", str(target))
        assert code == EXIT_OK and out == ""
        assert all(json.loads(l)["pass"] for l in target.read_text().strip().split("\n"))

    def test_list_honours_output_file(self, capsys, tmp_path):
        target = tmp_path / "checks.txt"
        code, out, _ = run(capsys, "verify", "--list", "--output", str(target))
        assert code == EXIT_OK and out == ""
        _, listed, _ = run(capsys, "verify", "--list")
        assert target.read_text() == listed and "gamma-independence" in listed.split()

    def test_list_names_the_checks_the_battery_emits(self, capsys):
        _, out, _ = run(capsys, "verify", "--list")
        assert out.split() == [
            "commutator-residual", "hermiticity-defect", "pseudo-hermiticity",
            "gram-identity", "ode-residual", "gamma-independence",
        ]
        # lambda = delta makes the Swanson operator Hermitian, so the defect check is skipped
        hermitian = ("--model", "swanson", "--lambda", "0.2", "--delta", "0.2")
        code, listed, _ = run(capsys, "verify", "--list", *hermitian)
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", *hermitian)
        assert code == EXIT_OK
        assert listed.split() == [json.loads(l)["name"] for l in out.strip().split("\n")]
        assert "hermiticity-defect" not in listed.split()

    def test_nan_ode_residual_is_the_worst(self, monkeypatch):
        # one NaN residual among passing ones must fail the check, not be outranked
        values = iter([1e-12, float("nan"), 1e-12, 1e-12])
        ode_residual = verify.ode_residual
        monkeypatch.setattr(
            verify, "ode_residual", lambda *args: dataclasses.replace(ode_residual(*args), value=next(values))
        )
        report = next(r for r, _ in _battery(RunConfig(), None) if r.name == "ode-residual")
        assert np.isnan(report.value) and not report.passed

    def test_unresolved_low_modes_refuse(self, capsys):
        code, out, err = run(
            capsys, "verify", "--model", "swanson", "--beta", "0.6",
            "--lambda", "0.35", "--delta", "0.05", "--levels", "4",
        )
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric failure: the box edge holds 1 of the 4 lowest p-space modes; enlarge the grid\n"

    def test_displaced_modes_past_the_box_refuse(self, capsys):
        code, out, err = run(capsys, "verify", "--lambda", "5")
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric failure: the box edge holds 4 of the 4 lowest p-space modes; enlarge the grid\n"


class TestNumericFailure:
    def test_singular_shift_exits_numeric(self, capsys, monkeypatch):
        # sigma = 0 is an exact eigenvalue of this stand-in matrix
        monkeypatch.setattr(
            eigensolver, "p_space_operator", lambda coeffs, grid: csc_array(np.diag(np.arange(float(grid.n_points))))
        )
        code, out, err = run(capsys, "spectrum", "--levels", "2", "--grid", "800")
        assert code == EXIT_NUMERIC and out == ""
        assert err.startswith("numeric failure: shift-invert eigensolve failed on a 1200x1200 matrix")


class TestConfigResolution:
    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "displaced", "beta": 0.2, "levels": 2, "grid": 800}))
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg), "--beta", "0.1")
        assert code == EXIT_OK
        # flag wins: E_closed must be the beta=0.1 value
        first = out.strip().split("\n")[1].split(",")
        assert float(first[1]) == pytest.approx(0.6506246098625197, rel=1e-12)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"betaa": 0.2}))
        code, _, err = run(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_CONFIG and "unknown config keys" in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, _ = run(capsys, "spectrum", "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_missing_config_file_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, "spectrum", "--config", str(tmp_path / "absent.json"))
        assert code == EXIT_CONFIG

    def test_invalid_model_parameters_rejected(self, capsys):
        # omega - lambda - delta = 0 is a degenerate Swanson configuration
        code, _, err = run(
            capsys, "spectrum", "--model", "swanson", "--lambda", "0.5", "--delta", "0.5"
        )
        assert code == EXIT_CONFIG and "singular" in err

    @pytest.mark.parametrize(
        "bad", [{"levels": 2.9}, {"levels": True}, {"grid": "800"}, {"output": 2}, {"output": ["x.csv"]}]
    )
    def test_config_value_types_checked(self, capsys, tmp_path, bad):
        # a fractional or boolean count is not truncated, and an integer output is not a file descriptor
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify", "--list", "--config", str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith(f"configuration error: config key {next(iter(bad))!r}: expected")

    def test_integral_config_values_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"levels": 2.0, "grid": 800, "output": None}))
        code, out, _ = run(capsys, "verify", "--list", "--config", str(cfg))
        assert code == EXIT_OK and "gamma-independence" in out.split()

    def test_jobs_setting_removed(self, capsys, tmp_path):
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        code, _, err = run(capsys, "verify", "--list", "--config", str(cfg))
        assert code == EXIT_CONFIG and "unknown config keys: ['jobs']" in err
        assert main(["verify", "--list", "--jobs", "2"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_usage_error_exits_two(self, capsys):
        assert main(["sweep"]) == 2  # missing required sweep arguments
        capsys.readouterr()

    def test_non_finite_metric_self_check_refuses(self, capsys):
        # omega = 1e-8 overflows the metric; its self-check must refuse the NaN, not pass it
        assert main(["spectrum", "--omega", "1e-8", "--levels", "2"]) == EXIT_CONFIG
        assert "closed-form metric disagrees" in capsys.readouterr().err

    #: the flags each subcommand adds to the common settings
    OWN_FLAGS = {
        "spectrum": set(),
        "sweep": {"--param", "--from", "--to", "--steps", "--numeric"},
        "wavefunction": {"--n", "--samples"},
        "verify": {"--list", "--metric-override"},
    }

    @pytest.mark.parametrize("command", OWN_FLAGS)
    def test_flags_are_the_config_keys(self, command):
        # a config key is its flag's name with `_` for `-`, for every setting and no other flag
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = {s: a for a in sub.choices[command]._actions for s in a.option_strings}
        flags = {"--" + key.replace("_", "-"): f.name for key, f in cli._SETTINGS.items()}
        assert set(actions) == set(flags) | {"--config", "-h", "--help"} | self.OWN_FLAGS[command]
        assert {flag: actions[flag].dest for flag in flags} == flags

    #: one setting per field annotation, with a value other than its default
    REPRESENTATIVES = {"model": "swanson", "lambda": 0.25, "p_grid": 800, "output": "out.csv"}

    def test_representatives_cover_every_annotation(self):
        assert {cli._SETTINGS[key].type for key in self.REPRESENTATIVES} == {
            f.type for f in cli._SETTINGS.values()
        }

    @pytest.mark.parametrize("key, value", REPRESENTATIVES.items())
    def test_flag_and_config_key_resolve_alike(self, tmp_path, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        parser = cli.build_parser()
        via_flag = cli._resolve_config(parser.parse_args(["spectrum", "--" + key.replace("_", "-"), str(value)]))
        via_file = cli._resolve_config(parser.parse_args(["spectrum", "--config", str(cfg)]))
        assert via_flag == via_file != RunConfig()


@pytest.mark.parametrize(
    "code, scipy_loaded",
    [
        ("import mlqm", False),
        ("import mlqm.cli", False),
        ("assert main(['verify', '--list']) == 0", False),
        ("assert main(['sweep', '--param', 'beta', '--from', '0.05', '--to', '0.2', '--steps', '4']) == 0", False),
        ("assert main(['spectrum', '--beta', '0']) == 2", False),
        ("assert main(['spectrum', '--levels', '2']) == 0", True),
    ],
    ids=["import-mlqm", "import-cli", "verify-list", "closed-form-sweep", "config-error", "spectrum"],
)
def test_scipy_is_imported_at_the_first_solve(code, scipy_loaded):
    # SciPy's import costs ~0.3 s per process, so a command that solves nothing must not pay it
    src = os.path.dirname(os.path.dirname(mlqm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "\n".join([
        "import contextlib, io, sys",
        "def main(argv):",
        "    from mlqm.cli import main",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        return main(argv)",
        code,
        "print(' '.join(m for m in sys.modules if m.startswith('scipy')))",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    if scipy_loaded:
        assert "scipy.sparse.linalg" in loaded
    else:
        assert loaded == []


@pytest.mark.parametrize(
    "argv, limit_mb",
    [
        (("verify",), 4.0),
        (("verify", "--model", "swanson", "--beta", "0.4", "--lambda", "0.28", "--delta", "0.12"), 4.0),
        (("spectrum",), 3.0),
    ],
    ids=["verify", "verify-swanson", "spectrum"],
)
def test_cli_path_builds_no_dense_operator(capsys, argv, limit_mb):
    # one dense 1200 x 1200 p-space matrix is 11.5 MB; the banded path peaks near 1.4 MB
    assert main(list(argv)) == EXIT_OK  # first call fills the quadrature-node cache
    tracemalloc.start()
    try:
        code = main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == EXIT_OK
    assert peak < limit_mb * 1e6, f"traced allocation peak {peak / 1e6:.1f} MB"
