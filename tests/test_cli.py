"""CLI contract: subcommands, formats, config resolution, exit codes."""

import json

import numpy as np
import pytest

from mlqm import eigensolver
from mlqm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY_FAIL, main


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

    def test_parallel_jobs_preserve_order(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--levels", "2", "--jobs", "4",
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

    def test_numeric_sweep_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--levels", "2", "--grid", "600", "--numeric",
            "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2",
        )
        assert code == EXIT_OK
        row = out.strip().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(0.6506246098625197, rel=1e-6)


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

    def test_unresolved_low_modes_refuse(self, capsys):
        code, out, err = run(
            capsys, "verify", "--model", "swanson", "--beta", "0.6",
            "--lambda", "0.35", "--delta", "0.05", "--levels", "4",
        )
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric failure: only 5 non-spurious low modes found, 8 requested; enlarge the grid\n"


class TestNumericFailure:
    def test_singular_shift_exits_numeric(self, capsys, monkeypatch):
        # sigma = 0 is an exact eigenvalue of this stand-in matrix
        monkeypatch.setattr(
            eigensolver, "build_p_space_matrix", lambda coeffs, grid: np.diag(np.arange(float(grid.n_points)))
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

    def test_usage_error_exits_two(self, capsys):
        assert main(["sweep"]) == 2  # missing required sweep arguments
        capsys.readouterr()

    def test_non_finite_metric_self_check_refuses(self, capsys):
        # omega = 1e-8 overflows the metric; its self-check must refuse the NaN, not pass it
        assert main(["spectrum", "--omega", "1e-8", "--levels", "2"]) == EXIT_CONFIG
        assert "closed-form metric disagrees" in capsys.readouterr().err
