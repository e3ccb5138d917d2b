"""CLI contract: subcommands, formats, config resolution, exit codes."""

import argparse
import builtins
import dataclasses
import gc
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import mlqm
from mlqm import cli, verify
from mlqm.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VERIFY_FAIL, RunConfig, main


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def python(*args, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports mlqm from this source tree, capturing text output.

    Its stdout is block-buffered, as for any pipe, so output that the exit path fails to flush is lost.
    """
    src = os.path.dirname(os.path.dirname(mlqm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, **kwargs)


class TestSpectrum:
    def test_csv_output_and_accuracy(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--levels", "3")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "n,E_closed,E_q,E_p_re,E_p_im,err_q,err_p"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(0.6506246098625197, rel=1e-12)
        assert float(first[5]) < 1e-6  # q-space relative error
        assert float(first[6]) < 1e-12  # p-space relative error

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--levels", "2", "--format", "json")
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [0, 1]
        assert rows[0]["err_q"] < 1e-6

    def test_swanson_clean_point(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--model", "swanson", "--beta", "0.5",
            "--lambda", "0.2", "--delta", "0.2", "--levels", "2",
        )
        assert code == EXIT_OK
        first = out.strip().split("\n")[1].split(",")
        assert float(first[1]) == pytest.approx(0.45, rel=1e-12)
        assert float(first[5]) < 1e-6

    @pytest.mark.parametrize("mass", ["0.5", "2", "5"])
    def test_swanson_mass_levels_on_the_closed_form(self, capsys, mass):
        # both solves and the published form depend on the mass only through hbar m beta
        code, out, err = run(capsys, "spectrum", "--model", "swanson", "--mass", mass)
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 4 and max(float(row[col]) for row in rows for col in (5, 6)) <= 1e-11

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run(
            capsys, "spectrum", "--levels", "2", "--output", str(target)
        )
        assert code == EXIT_OK and out == ""
        text = target.read_text()
        assert text.startswith("n,E_closed") and "\r" not in text

    def test_box_too_small_refuses(self, capsys, tmp_path):
        # no command runs on a p-box any more, so the settings that sized one are refused, a small box included
        for argv in (("spectrum", "--p-max", "3"), ("verify", "--p-max", "3"), ("verify", "--p-grid", "800")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_CONFIG and out == "" and "unrecognized arguments" in err
        cfg = tmp_path / "box.json"
        cfg.write_text(json.dumps({"p_grid": 800}))
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out, err) == (EXIT_CONFIG, "", "configuration error: unknown config keys: ['p_grid']\n")

    @pytest.mark.parametrize("omega", ["0.05", "0.02", "1e-3", "1e-4"])
    def test_small_omega_levels_are_resolved(self, capsys, omega):
        # the metric overflows at these omega, but spectrum does not read it
        code, out, err = run(capsys, "spectrum", "--omega", omega)
        assert code == EXIT_OK and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 4
        assert all(float(row[5]) <= 1e-10 and float(row[6]) <= 1e-10 for row in rows)

    @pytest.mark.parametrize("model, beta", [
        ("displaced", "1e-5"), ("swanson", "1e-5"), ("displaced", "1e-6"), ("swanson", "1e-6"),
    ], ids=["displaced", "swanson", "displaced-1e-6", "swanson-1e-6"])
    def test_small_beta_is_solved(self, capsys, model, beta):
        # a finite-difference check of the coefficients' derivatives once refused this model (exit 2) on its own
        # rounding; at beta = 1e-6 the wall exponent, 1e6-2e6, scales the q-box's rounding, and the levels read 1.1-2.2e-7
        code, out, err = run(capsys, "spectrum", "--model", model, "--beta", beta)
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 4 and max(float(row[col]) for row in rows for col in (5, 6)) <= 1e-6

    @pytest.mark.parametrize("argv", [
        ("spectrum",),
        ("spectrum", "--model", "swanson", "--lambda", "0.3", "--delta", "0.1"),
        ("sweep", "--param", "beta", "--from", "0.05", "--to", "0.2", "--steps", "3", "--numeric"),
    ], ids=["displaced", "swanson", "numeric-sweep"])
    def test_spectrum_and_sweep_never_build_the_metric(self, capsys, monkeypatch, argv):
        def no_metric(family):
            raise AssertionError("the metric was built")

        monkeypatch.setattr(mlqm.GupFamily, "metric", no_metric)
        monkeypatch.setattr(mlqm.GupFamily, "log_metric", no_metric)
        assert run(capsys, *argv)[0] == EXIT_OK

    @pytest.mark.parametrize("argv, n_rows", [
        (("--levels", "300"), 300),
        (("--model", "swanson", "--levels", "80"), 80),
    ], ids=["displaced-300", "swanson-80"])
    def test_levels_off_the_closed_form_exit_1_after_the_table(self, capsys, argv, n_rows):
        # the collocation's rounding grows as N^2, and here it beats both solves; the whole table is still written.
        # The misses are rounding noise that shifts with the BLAS build and thread count, so
        # the stderr line is checked against the worst error in the printed table, not pinned.
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == EXIT_VERIFY_FAIL
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [int(row[0]) for row in rows] == list(range(n_rows))
        worst, n, col = max((float(row[col]), int(row[0]), name) for row in rows
                            for col, name in ((5, "err_q"), (6, "err_p")))
        assert worst > verify.TOLERANCES["spectrum-error"]
        assert err == f"verification failure: level {n} has {col} = {worst:.3g}, above the 1e-06 gate\n"
        # both solves read their levels as two-sided Rayleigh quotients, and the q-box alone fails the gate too
        # (err_q 5e-5 to 1.4e-4 at 300 levels, 1.1-1.6e-3 at Swanson's 80, on 1 or 2 BLAS threads), so the exit
        # code does not rest on the theta-axis solve's rounding
        assert max(float(row[5]) for row in rows) > verify.TOLERANCES["spectrum-error"]

    @pytest.mark.parametrize("argv, bound", [
        ((), 1e-7), (("--levels", "60"), 1e-7), (("--levels", "100"), 1e-8),
        (("--model", "swanson", "--levels", "50"), 1e-7),
    ], ids=["defaults", "levels-60", "levels-100", "swanson-50"])
    def test_levels_on_the_closed_form_exit_0(self, capsys, argv, bound):
        # the collocation's rounding grows as N^2, and both solves' two-sided Rayleigh quotients win it back:
        # 100 levels on N = 216 read err_p 1.3-1.8e-10 and err_q 2.0-2.1e-10 on 1 or 2 BLAS threads (0.8-1.2e-7 and
        # 1.1-1.7e-7 from LAPACK's eigenvalues alone), and Swanson's 50 read err_p 8.8e-9 and err_q 1.5e-8 (3.7e-6
        # without the theta-axis quotient)
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == EXIT_OK and err == ""
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert max(float(row[col]) for row in rows for col in (5, 6)) <= bound

    def test_nan_error_fails_the_gate(self, capsys, monkeypatch):
        solve = mlqm.eigensolver.solve_q_space

        def nan_ground_level(problem, n_levels):
            result = solve(problem, n_levels)
            return dataclasses.replace(result, eigenvalues=(complex("nan"),) + result.eigenvalues[1:])

        monkeypatch.setattr(mlqm.eigensolver, "solve_q_space", nan_ground_level)
        code, out, err = run(capsys, "spectrum", "--levels", "2")
        assert code == EXIT_VERIFY_FAIL and len(out.strip().split("\n")) == 3
        assert err == "verification failure: level 0 has err_q = nan, above the 1e-06 gate\n"

    def test_rejects_huge_level_count_before_any_work(self, capsys, monkeypatch):
        def no_energy(*args):
            raise AssertionError("a closed-form level was computed")

        monkeypatch.setattr(mlqm.DisplacedOscillatorParams, "energy", no_energy)
        code, out, err = run(capsys, "spectrum", "--levels", "1000000000")
        assert code == EXIT_CONFIG and out == ""
        assert err == "configuration error: need levels <= 500, got 1000000000\n"


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
        # the displaced model has no delta, and its delta sweep wrote a constant table (exit 0)
        code, out, err = run(capsys, "sweep", "--param", "delta", "--from", "0.1", "--to", "0.2", "--steps", "3")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "configuration error: the displaced model has no delta to sweep; delta is a Swanson parameter\n"

    def test_rejects_constant_sweep(self, capsys):
        code, _, _ = run(
            capsys, "sweep", "--param", "beta", "--from", "0.1", "--to", "0.1", "--steps", "3"
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("bounds, message", [
        (("--from", "0.1", "--to", "inf"), "--to must be finite, got inf"),
        (("--from=-inf", "--to", "0.2"), "--from must be finite, got -inf"),
        (("--from", "nan", "--to", "0.2"), "--from must be finite, got nan"),
    ], ids=["to-inf", "from-minus-inf", "from-nan"])
    def test_rejects_non_finite_bounds(self, capsys, bounds, message):
        # the refusal names the flag: an infinite bound exited 2 on linspace's warning, a NaN one as "beta"
        argv = ("sweep", "--param", "beta", *bounds, "--steps", "2")
        assert run(capsys, *argv) == (EXIT_CONFIG, "", f"configuration error: {message}\n")

    def test_rejects_huge_step_count_before_any_work(self, capsys, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a sweep row was computed")

        monkeypatch.setattr(cli, "_sweep_row", no_rows)
        code, out, err = run(
            capsys, "sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "1000000000"
        )
        assert code == EXIT_CONFIG and out == ""
        assert err == "configuration error: need 2 <= steps <= 100000, got 1000000000\n"

    def test_closed_form_sweep_refuses_more_levels_than_any_solve_returns(self, capsys, monkeypatch):
        def no_energy(*args):
            raise AssertionError("a closed-form level was computed")

        monkeypatch.setattr(mlqm.DisplacedOscillatorParams, "energy", no_energy)
        argv = ("sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2", "--levels")
        code, out, err = run(capsys, *argv, "1000000000")
        assert code == EXIT_CONFIG and out == ""
        assert err == "configuration error: need levels <= 500, got 1000000000\n"
        with pytest.raises(AssertionError, match="a closed-form level was computed"):
            main([*argv, "500"])

    def test_branch_solver_refuses_unresolvable_level_count(self, capsys, monkeypatch):
        def no_energy(*args):
            raise AssertionError("a closed-form level was computed")

        # the model's parameters refuse the count before a solve or the gate's closed-form level runs
        monkeypatch.setattr(mlqm.SwansonParams, "energy", no_energy)
        monkeypatch.setattr(mlqm.eigensolver, "solve_q_space", no_energy)
        code, out, err = run(
            capsys, "sweep", "--model", "swanson", "--numeric", "--param", "beta",
            "--from", "1.5", "--to", "1.7", "--steps", "2",
            "--lambda", "0.2", "--delta", "0.2", "--levels", "800",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err == "configuration error: need levels <= 500, got 800\n"

    @pytest.mark.parametrize("model, beta_c", [("displaced", ""), ("swanson", "4")])
    def test_numeric_sweep_of_no_levels_solves_nothing(self, capsys, monkeypatch, model, beta_c):
        # as spectrum does at --levels 0, the sweep writes its beta and beta_c columns and solves nothing
        def no_solve(*args):
            raise AssertionError("a q-box solve was run")

        monkeypatch.setattr(mlqm.eigensolver, "solve_q_space", no_solve)
        code, out, err = run(capsys, "sweep", "--numeric", "--model", model, "--param", "beta", "--from", "0.1",
                             "--to", "0.2", "--steps", "2", "--levels", "0")
        rows = f"beta,beta_c\n0.10000000000000001,{beta_c}\n0.20000000000000001,{beta_c}\n"
        assert (code, out, err) == (EXIT_OK, rows, "")

    def test_numeric_sweep_matches_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--levels", "2", "--numeric",
            "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2",
        )
        assert code == EXIT_OK
        row = out.strip().split("\n")[1].split(",")
        assert float(row[1]) == pytest.approx(0.6506246098625197, rel=1e-6)

    NUMERIC_200 = ("--numeric", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2", "--levels", "200")
    SWANSON_100 = ("--numeric", "--model", "swanson", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2",
                   "--levels", "100")

    @staticmethod
    def worst_miss(out, model, n_levels):
        """(error, beta, n) of the numeric sweep table's cell farthest from its closed form, as the gate reads it."""
        lines = out.strip().split("\n")
        assert lines[0].split(",")[-1] == "beta_c"
        rows = [[float(cell) for cell in line.split(",")[:-1]] for line in lines[1:]]
        assert [len(row) for row in rows] == [1 + 2 * n_levels] * 2 and [row[0] for row in rows] == [0.1, 0.2]
        misses = []
        for row in rows:
            params = RunConfig(model=model, beta=row[0]).model_params()
            for n in range(n_levels):
                e = params.energy(n)
                misses.append((abs(complex(row[1 + 2 * n], row[2 + 2 * n]) - e) / max(1.0, abs(e)), row[0], n))
        return max(misses, key=lambda miss: miss[0])

    def test_numeric_levels_off_the_closed_form_exit_1_after_the_table(self, capsys):
        # 100 Swanson levels are more than the collocation resolves at the defaults (level 85 or 99 is
        # 2e-2 off); the whole table is still written, and the stderr line is checked against the printed
        # table, since the unresolved digits shift with the BLAS build and thread count
        code, out, err = run(capsys, "sweep", *self.SWANSON_100)
        assert code == EXIT_VERIFY_FAIL
        assert [line.split(",")[-1] for line in out.strip().split("\n")[1:]] == ["4", "4"]  # beta_c = 4
        worst, beta, n = self.worst_miss(out, "swanson", 100)
        assert worst > verify.TOLERANCES["spectrum-error"]
        where = f"at beta = {beta:.17g} level {n} has error = {worst:.3g}"
        assert err == f"verification failure: {where}, above the 1e-06 gate\n"

    def test_json_numeric_sweep_is_gated(self, capsys):
        code, out, err = run(capsys, "sweep", *self.SWANSON_100, "--format", "json")
        assert code == EXIT_VERIFY_FAIL and len(json.loads(out)) == 2
        assert err.startswith("verification failure: at beta = ") and err.endswith(", above the 1e-06 gate\n")

    def test_200_numeric_levels_are_on_the_closed_form(self, capsys):
        # the two-sided Rayleigh quotient on the q-box's own eigenvectors reads every level to 1.7e-7 or
        # better on 1 or 2 BLAS threads; LAPACK's eigenvalues alone were up to 1.8-3.4e-5 off, and this exited 1
        code, out, err = run(capsys, "sweep", *self.NUMERIC_200)
        assert (code, err) == (EXIT_OK, "")
        assert self.worst_miss(out, "displaced", 200)[0] <= verify.TOLERANCES["spectrum-error"]

    def test_numeric_sweep_across_beta_c_exits_0(self, capsys):
        # the README's sweep: at beta_c = 2.0 itself the closed form and the solve both take a reality margin
        # within its rounding of zero as zero and read the real ladder; past beta_c both sides are conjugate
        # pairs, compared in the solve's (Re, Im) order
        code, out, err = run(
            capsys, "sweep", "--model", "swanson", "--beta", "0.5", "--lambda", "0.2", "--delta", "0.2",
            "--param", "beta", "--from", "1.5", "--to", "2.5", "--steps", "21", "--numeric",
        )
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 21 and float(rows[-1][2]) != 0.0

    @pytest.mark.parametrize("lam, delta", [(0.2, 0.2), (0.3125, 0.25), (0.3, 0.1), (0.15, 0.35)])
    def test_numeric_sweep_next_to_beta_c_exits_0(self, capsys, lam, delta):
        # (lambda, delta) from the branch solver's test box; at 1e-11 of beta_c a wall exponent read to 1e-12
        # of its discriminant's scale snapped to the real ladder while the closed form read pairs (exit 1)
        beta_c = float(mlqm.swanson_beta_c(mlqm.SwansonParams(mlqm.DeformationParams(), lam=lam, delta=delta)))
        for k in range(8, 15):
            for side in (1.0, -1.0):
                code, _, err = run(
                    capsys, "sweep", "--model", "swanson", "--numeric", "--lambda", repr(lam), "--delta", repr(delta),
                    "--param", "beta", "--from", repr(beta_c * (1.0 + side * 10.0**-k)),
                    "--to", repr(beta_c * (1.0 + side * 0.05)), "--steps", "2",
                )
                assert (code, err) == (EXIT_OK, ""), (k, side)

    def test_nan_level_fails_the_numeric_sweep(self, capsys, monkeypatch):
        solve = mlqm.eigensolver.solve_q_space

        def nan_top_level(problem, n_levels):
            result = solve(problem, n_levels)
            return dataclasses.replace(result, eigenvalues=result.eigenvalues[:-1] + (complex("nan"),))

        monkeypatch.setattr(mlqm.eigensolver, "solve_q_space", nan_top_level)
        code, out, err = run(capsys, "sweep", "--numeric", "--param", "beta", "--from", "0.1", "--to", "0.2",
                             "--steps", "2", "--levels", "2")
        assert code == EXIT_VERIFY_FAIL and len(out.strip().split("\n")) == 3
        assert err == "verification failure: at beta = 0.10000000000000001 level 1 has error = nan, above the 1e-06 gate\n"


class TestSpectrumPastThreshold:
    def test_swanson_complex_levels_refused(self, capsys):
        # the closed form is 0.345 -/+ 0.126i here; its real part alone is not a level
        code, out, err = run(
            capsys, "spectrum", "--model", "swanson", "--beta", "2.3", "--lambda", "0.2", "--delta", "0.2",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err == (
            "configuration error: beta = 2.3 is past the reality threshold beta_c = 1.9999999999999996: "
            "the levels are complex-conjugate pairs; follow them with `sweep --numeric`\n"
        )

    def test_just_past_beta_c_the_refusal_reads_two_numbers(self, capsys):
        # beta and beta_c are printed with repr: with :g both read 2 here
        code, out, err = run(
            capsys, "spectrum", "--model", "swanson", "--lambda", "0.2", "--delta", "0.2", "--beta", "2.00000000001",
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith(
            "configuration error: beta = 2.00000000001 is past the reality threshold beta_c = 1.9999999999999996: "
        )

    def test_no_threshold_when_reality_fails_for_every_beta(self, capsys):
        # lambda * delta > 0 and omega <= 2 sqrt(lambda * delta): the levels are never real, and no beta_c exists
        code, out, err = run(capsys, "spectrum", "--model", "swanson", "--lambda", "-1", "--delta", "-1")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "configuration error: omega - 2*sqrt(lam*delta) = -1.0 <= 0: reality fails for every beta\n"

    def test_beta_c_itself_is_the_real_ladder(self, capsys):
        # beta_c = 2 exactly, where the float reality margin reads -1.1e-16, within its rounding of zero
        code, out, err = run(
            capsys, "spectrum", "--model", "swanson", "--beta", "2", "--lambda", "0.2", "--delta", "0.2",
        )
        assert (code, err) == (EXIT_OK, "")
        rows = [[float(cell) for cell in line.split(",")] for line in out.strip().split("\n")[1:]]
        assert [row[1] for row in rows] == pytest.approx([0.3, 1.5, 3.9, 7.5], rel=1e-14)
        assert all(row[4] == 0.0 for row in rows)

    def test_closed_form_sweep_is_real_at_beta_c_and_paired_past_it(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--model", "swanson", "--lambda", "0.2", "--delta", "0.2",
            "--param", "beta", "--from", "2", "--to", "2.1", "--steps", "2",
        )
        assert code == EXIT_OK
        at_beta_c, past = ([float(cell) for cell in line.split(",")[2:-1:2]] for line in out.strip().split("\n")[1:])
        assert at_beta_c == [0.0] * 4 and all(im > 0 for im in past)

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

    @pytest.mark.parametrize(
        "flag, refused, largest, err",
        [
            ("--samples", "1000000000", "100000", "need 2 <= samples <= 100000, got 1000000000"),
            ("--n", "10000000", "499", "need n < 500, got 10000000"),
        ],
    )
    def test_rejects_huge_counts_before_any_state(self, capsys, monkeypatch, flag, refused, largest, err):
        def no_state(*args):
            raise AssertionError("an eigenfunction was built")

        monkeypatch.setattr(mlqm.GupFamily, "wavefunction", no_state)
        code, out, stderr = run(capsys, "wavefunction", flag, refused)
        assert code == EXIT_CONFIG and out == ""
        assert stderr == f"configuration error: {err}\n"
        with pytest.raises(AssertionError, match="an eigenfunction was built"):
            main(["wavefunction", flag, largest])

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
            (("spectrum", "--levels", "2"), set()),
            # lambda * delta < 0 has no reality threshold: a blank CSV cell, a JSON null
            (("sweep", "--model", "swanson", "--lambda", "0.2", "--delta", "-0.1", "--levels", "2",
              "--param", "beta", "--from", "0.3", "--to", "0.6", "--steps", "3"), {"beta_c"}),
            # omega <= 2 sqrt(lambda * delta): reality fails for every beta, which spectrum refuses (exit 2)
            (("sweep", "--model", "swanson", "--lambda", "-1", "--delta", "-1", "--levels", "2",
              "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2"), {"beta_c"}),
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
            # an exceed-check record also carries what it measured and its floor
            exceed = {"measured", "floor"} if r["name"] == "hermiticity-defect" else set()
            assert set(r) == {"name", "value", "tolerance", "pass", "params", "grid"} | exceed

    def test_exceed_record_shows_the_measured_defect(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        records = {r["name"]: r for r in map(json.loads, out.strip().split("\n"))}
        defect = records["hermiticity-defect"]
        assert defect["floor"] == verify.HERMITICITY_DEFECT_FACTOR * records["pseudo-hermiticity"]["value"]
        assert defect["measured"] > defect["floor"] and defect["value"] == 0.0

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
            "gram-identity", "ode-residual", "gamma-independence", "closed-form-ladder",
        ]
        # lambda = delta makes the Swanson operator Hermitian: the defect check still emits its record, skipped
        hermitian = ("--model", "swanson", "--lambda", "0.2", "--delta", "0.2")
        code, listed, _ = run(capsys, "verify", "--list", *hermitian)
        assert code == EXIT_OK and listed.split() == list(cli._CHECK_NAMES)
        code, out, _ = run(capsys, "verify", *hermitian)
        assert code == EXIT_OK
        records = [json.loads(l) for l in out.strip().split("\n")]
        assert [r["name"] for r in records] == list(cli._CHECK_NAMES)
        defect = records[cli._CHECK_NAMES.index("hermiticity-defect")]
        assert defect["skipped"] and defect["value"] == 0.0 and defect["pass"] is True
        assert not {"measured", "floor"} & set(defect)

    def test_rejects_more_levels_than_any_solve_returns(self, capsys, monkeypatch):
        def no_battery(*args):
            raise AssertionError("the battery ran")

        monkeypatch.setattr(verify, "battery", no_battery)
        code, out, err = run(capsys, "verify", "--levels", "1000000000")
        assert code == EXIT_CONFIG and out == ""
        assert err == "configuration error: need levels <= 500, got 1000000000\n"
        with pytest.raises(AssertionError, match="the battery ran"):
            main(["verify", "--levels", "500"])

    def test_list_builds_no_model(self, capsys):
        # a mass the model refuses is no error for a list of check names
        listed = "".join(name + "\n" for name in cli._CHECK_NAMES)
        assert run(capsys, "verify", "--list", "--mass", "-1") == (EXIT_OK, listed, "")
        assert run(capsys, "verify", "--list", "--delta", "inf") == (EXIT_OK, listed, "")
        assert run(capsys, "verify", "--mass", "-1")[0] == EXIT_CONFIG

    def test_nan_ode_residual_is_the_worst(self, monkeypatch):
        # one NaN residual among passing ones must fail the check, not be outranked
        values = iter([1e-12, float("nan"), 1e-12, 1e-12])
        ode_residual = verify.ode_residual
        monkeypatch.setattr(
            verify, "ode_residual", lambda *args: dataclasses.replace(ode_residual(*args), value=next(values))
        )
        report = next(r for r in verify.battery(RunConfig().model_params(), 4) if r.name == "ode-residual")
        assert np.isnan(report.value) and not report.passed

    def test_ladder_off_the_published_energies_fails(self, capsys, monkeypatch):
        # a shifted energy map leaves the eigenfunctions on their own ladder, and gamma-independence
        # compares levels that all shift alike: only closed-form-ladder sees the published E_n
        family = mlqm.DisplacedOscillatorParams.family

        def shifted(params):
            fam = family(params)
            shift = dataclasses.replace(fam.energy_map, offset=fam.energy_map.offset + 1e-6)
            return dataclasses.replace(fam, energy_map=shift)

        monkeypatch.setattr(mlqm.DisplacedOscillatorParams, "family", shifted)
        code, out, _ = run(capsys, "verify")
        records = [json.loads(line) for line in out.strip().split("\n")]
        assert code == EXIT_VERIFY_FAIL
        assert [r["name"] for r in records if not r["pass"]] == ["closed-form-ladder"]
        assert records[-1]["value"] == pytest.approx(5e-7, rel=1e-6)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--model", "swanson"),
            ("--model", "swanson", "--beta", "0.65", "--lambda", "0.35", "--delta", "0.05", "--levels", "4"),
            ("--beta", "10", "--lambda", "0.5"),
        ],
        ids=["swanson-defaults", "swanson-past-the-old-box-corner", "displaced-beta-10"],
    )
    def test_runs_past_the_old_p_grid_pass(self, capsys, argv):
        # the finite-difference p-grid read a stencil error of 2.9e-6 at the Swanson defaults (exit 1)
        # and refused the two other points (exit 3); the pointwise identity has no grid
        code, out, _ = run(capsys, "verify", *argv)
        assert code == EXIT_OK
        records = {r["name"]: r for r in map(json.loads, out.strip().split("\n"))}
        assert set(records) == set(cli._CHECK_NAMES) and all(r["pass"] for r in records.values())
        assert records["pseudo-hermiticity"]["value"] <= 1e-9

    def test_swanson_box_corner_passes(self, capsys):
        # the corner of the old p-box, where the eighth projection mode held 9e-5 of its norm
        # past |p| = 30: every check runs, and every one passes
        code, out, _ = run(
            capsys, "verify", "--model", "swanson", "--beta", "0.6",
            "--lambda", "0.35", "--delta", "0.05", "--levels", "4",
        )
        assert code == EXIT_OK
        records = [json.loads(l) for l in out.strip().split("\n")]
        assert [r["name"] for r in records] == list(cli._CHECK_NAMES) and all(r["pass"] for r in records)

    def test_displaced_modes_past_the_box_refuse(self, capsys, tmp_path):
        # lambda = 5 moved the modes past a box of |p| <= 10; with no box left, a config that asks for one is refused
        cfg = tmp_path / "box.json"
        cfg.write_text(json.dumps({"lambda": 5, "p_max": 10}))
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out, err) == (EXIT_CONFIG, "", "configuration error: unknown config keys: ['p_max']\n")

    def test_displaced_lambda_5_passes(self, capsys):
        # lambda = 5 moves the modes far off-centre
        code, out, _ = run(capsys, "verify", "--lambda", "5")
        assert code == EXIT_OK
        records = {r["name"]: r for r in map(json.loads, out.strip().split("\n"))}
        assert set(records) == set(cli._CHECK_NAMES) and all(r["pass"] for r in records.values())
        assert records["gamma-independence"]["value"] <= 1e-10


class TestNumericFailure:
    def test_non_finite_coefficient_exits_numeric(self, capsys, monkeypatch):
        # h is NaN only past |p| = 40, where the theta-axis solve samples it
        coefficients = mlqm.GupFamily.coefficients

        def broken(family):
            coeffs = coefficients(family)
            return dataclasses.replace(coeffs, h=lambda p: np.where(np.abs(p) > 40.0, np.nan, coeffs.h(p)))

        monkeypatch.setattr(mlqm.GupFamily, "coefficients", broken)
        code, out, err = run(capsys, "verify")
        assert code == EXIT_NUMERIC and out == ""
        assert err == "numeric failure: p-space eigensolve failed: Array must not contain infs or NaNs\n"

    @pytest.mark.parametrize("argv, code, line", [
        (("verify", "--omega", "0.05"), EXIT_NUMERIC, "numeric failure: inner product failed node doubling"),
        (("wavefunction", "--omega", "0.05", "--samples", "3"), EXIT_CONFIG,
         "configuration error: a value derived from the parameters leaves double precision"),
        (("verify", "--model", "swanson", "--beta", "0.02", "--lambda", "0.05", "--delta", "0.45"), EXIT_NUMERIC,
         "numeric failure: inner product failed node doubling"),
    ], ids=["verify", "wavefunction", "verify-swanson"])
    def test_overflowing_metric_norm_refuses_without_warnings(self, argv, code, line):
        # verify's Gram quadrature overflows at the outer nodes and fails node doubling; wavefunction runs no
        # quadrature, its norm is closed-form, and the exp of the eta column it prints overflows
        proc = python("-m", "mlqm.cli", *argv)
        assert proc.returncode == code and proc.stdout == ""
        assert proc.stderr.startswith(line)
        assert proc.stderr.count("\n") == 1


#: each class of mlqm.errors, and Python's arithmetic errors, against the exit code main gives it
EXIT_BY_ERROR = {
    "MlqmError": EXIT_NUMERIC,
    "ConfigurationError": EXIT_CONFIG,
    "NumericError": EXIT_NUMERIC,
    "OverflowError": EXIT_CONFIG,
    "ZeroDivisionError": EXIT_CONFIG,
}


def test_every_error_class_is_pinned():
    classes = {name for name, value in vars(mlqm.errors).items() if isinstance(value, type)}
    assert classes == set(EXIT_BY_ERROR) - {"OverflowError", "ZeroDivisionError"}


def _raise_the_message(name):
    error = getattr(mlqm.errors, name, None) or getattr(builtins, name)

    def raise_it(monkeypatch):
        raise error("the message")

    return raise_it


def _zero(p):
    return np.zeros_like(np.asarray(p, dtype=float))


def _growing(p):
    return 1.0 + 0.5 * np.asarray(p, dtype=float) ** 2


#: each class that mlqm.errors had before it was cut to its three, against one raise that class carried, the exit
#: code that raise had then and the message it gives; the first six now raise ConfigurationError, the last three
#: NumericError, and each keeps its code; DivergenceError's one raise, the quadrature norm of an eigenfunction, is
#: gone with that quadrature
FORMER_CLASS_RAISES = {
    "ComplexSpectrumError": (
        EXIT_CONFIG,
        lambda mp: mlqm.SwansonParams(mlqm.DeformationParams(1.0, 2.1, 0.0), lam=0.2, delta=0.2).family()
        .epsilon_levels(),
        "beta is at or past the reality threshold; bound-state eigenfunctions are not real-parameter Jacobi forms",
    ),
    "ConstraintViolatedError": (
        EXIT_CONFIG,
        lambda mp: mlqm.SwansonParams(mlqm.DeformationParams(), lam=-1.0, delta=-1.0).beta_c(),
        "omega - 2*sqrt(lam*delta) = -1.0 <= 0: reality fails for every beta",
    ),
    "DegenerateModelError": (
        EXIT_CONFIG,
        lambda mp: mlqm.SwansonParams(mlqm.DeformationParams(), lam=0.5, delta=0.5),
        "omega - lam - delta = 0 makes the momentum-space reduction singular",
    ),
    "DomainError": (EXIT_CONFIG, lambda mp: RunConfig(levels=-1), "levels must be non-negative, got -1"),
    "InvalidGridError": (EXIT_CONFIG, lambda mp: mlqm.MomentumGrid(1.0, 0.0, 5), "need p_min < p_max, got [1.0, 0.0]"),
    "UnsupportedRegimeError": (
        EXIT_CONFIG,
        lambda mp: mlqm.SwansonParams(mlqm.DeformationParams(), lam=0.8, delta=0.5),
        "omega - lam - delta = -0.30000000000000004 < 0 flips the energy-map orientation; not supported",
    ),
    "EllipticityError": (
        EXIT_NUMERIC,
        lambda mp: mlqm.CoefficientSet(f=Polynomial([-1.0]), g=Polynomial([0.0]), h=_zero),
        "f(p) must be strictly positive on the working domain",
    ),
    "NonConvergenceError": (
        EXIT_NUMERIC,
        lambda mp: mlqm.eta_inner(_growing, _growing, None, mlqm.DeformationParams(1.0, 0.5, 0.0)),
        "inner product failed node doubling: |I(2N)-I(N)|/|I| = 9.844e-01",
    ),
    "ResolutionError": (
        EXIT_NUMERIC,
        lambda mp: mlqm.solve_q_space_branch(
            mlqm.swanson_transform(mlqm.SwansonParams(mlqm.DeformationParams(1.0, 0.5, 0.0), lam=0.2, delta=0.2)),
            n_levels=0,
        ),
        "cannot resolve 0 q-box levels; need 1 <= levels <= 500",
    ),
}

#: id -> (exit code, a raise taking the monkeypatch fixture, the line after the stderr prefix)
EXIT_CASES = {
    **{
        name: (
            expected,
            _raise_the_message(name),
            f"a value derived from the parameters leaves double precision: {name}('the message')"
            if name in ("OverflowError", "ZeroDivisionError") else "the message",
        )
        for name, expected in EXIT_BY_ERROR.items()
    },
    **FORMER_CLASS_RAISES,
    # f and g are polynomials, whose derivatives the potential reads: a lambda ended in an AttributeError there
    "lambda-coefficients": (
        EXIT_CONFIG,
        lambda mp: mlqm.CoefficientSet(f=lambda p: _zero(p) + 1.0, g=Polynomial([0.0]), h=_zero),
        "f and g must be numpy.polynomial.Polynomial objects",
    ),
}


@pytest.mark.parametrize("expected, raise_it, line", EXIT_CASES.values(), ids=list(EXIT_CASES))
def test_error_class_decides_the_exit_code(capsys, monkeypatch, expected, raise_it, line):
    monkeypatch.setattr(cli, "cmd_spectrum", lambda cfg: raise_it(monkeypatch))
    code, out, err = run(capsys, "spectrum")
    assert (code, out) == (expected, "")
    prefix = "configuration error: " if expected == EXIT_CONFIG else "numeric failure: "
    assert err == prefix + line + "\n"


class TestConfigResolution:
    @pytest.mark.parametrize("levels", ["501", "1000000000"])
    @pytest.mark.parametrize("argv", [
        ("spectrum",),
        ("sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2"),
        ("sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2", "--numeric"),
        ("verify",),
        ("wavefunction",),
    ], ids=["spectrum", "sweep", "sweep-numeric", "verify", "wavefunction"])
    def test_level_cap_exits_2_before_any_work(self, capsys, monkeypatch, argv, levels):
        # every computing command builds its model through RunConfig.model_params, which refuses the count first
        def no_work(*args):
            raise AssertionError("a family, closed-form level or solve was built")

        monkeypatch.setattr(mlqm.DisplacedOscillatorParams, "family", no_work)
        monkeypatch.setattr(mlqm.DisplacedOscillatorParams, "energy", no_work)
        monkeypatch.setattr(mlqm.eigensolver, "solve_q_space", no_work)
        code, out, err = run(capsys, *argv, "--levels", levels)
        assert (code, out, err) == (EXIT_CONFIG, "", f"configuration error: need levels <= 500, got {levels}\n")

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "displaced", "beta": 0.2, "levels": 2}))
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
        "bad", [
            {"levels": 2.9}, {"levels": True}, {"levels": "800"}, {"output": 2}, {"output": ["x.csv"]},
            {"beta": True}, {"lambda": "0.3"},
        ]
    )
    def test_config_value_types_checked(self, capsys, tmp_path, bad):
        # a fractional or boolean count is not truncated, and an integer output is not a file descriptor;
        # a boolean or string real setting ran as beta = 1 or lambda = 0.3 (exit 0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify", "--list", "--config", str(cfg))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith(f"configuration error: config key {next(iter(bad))!r}: expected")

    def test_integral_config_values_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"levels": 2.0, "output": None}))
        code, out, _ = run(capsys, "verify", "--list", "--config", str(cfg))
        assert code == EXIT_OK and "gamma-independence" in out.split()

    def test_jobs_setting_removed(self, capsys, tmp_path):
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        code, _, err = run(capsys, "verify", "--list", "--config", str(cfg))
        assert code == EXIT_CONFIG and "unknown config keys: ['jobs']" in err
        assert main(["verify", "--list", "--jobs", "2"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_nodes_setting_removed(self, capsys, tmp_path):
        # the quadrature has one fixed rule: Fejer's 1023 nodes, checked against every other one of them
        cfg = tmp_path / "nodes.json"
        cfg.write_text(json.dumps({"nodes": 2048}))
        code, _, err = run(capsys, "verify", "--list", "--config", str(cfg))
        assert code == EXIT_CONFIG and "unknown config keys: ['nodes']" in err
        assert main(["verify", "--nodes", "2048"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_usage_error_exits_two(self, capsys):
        assert main(["sweep"]) == 2  # missing required sweep arguments
        # gone: a wrong metric failing its check is test_verify's test_wrong_metric_is_discriminated
        assert main(["verify", "--metric-override", "swanson"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("omega", ["1e-8", "1e-6"])
    def test_unresolved_ladder_refuses(self, capsys, omega):
        # the levels sit near lambda^2/(2 omega^2) and are spaced by ~omega, below their own rounding here
        code, out, err = run(capsys, "spectrum", "--omega", omega, "--levels", "2")
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("configuration error: closed-form levels E_0 = ") and "within 16 ulp" in err

    @pytest.mark.parametrize("key", ["hbar", "beta", "gamma", "mass", "omega", "lambda", "delta"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("command", [
        ("spectrum",),
        ("sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2"),
        ("verify",),
    ], ids=["spectrum", "sweep", "verify"])
    def test_every_model_setting_must_be_finite(self, capsys, command, key, value):
        if command[0] == "sweep" and key == "beta":  # a sweep row's own value replaces the swept flag
            command = ("sweep", "--param", "lambda") + command[3:]
        message = f"configuration error: {key} must be finite, got {float(value)}\n"
        assert run(capsys, *command, "--model", "swanson", f"--{key}={value}") == (EXIT_CONFIG, "", message)

    @pytest.mark.parametrize("argv, message", [
        (("sweep", "--param", "beta", "--from", "0.1", "--to", "0.2", "--steps", "2", "--hbar", "1e300"),
         "closed-form level E_0 = inf+0j is not finite in double precision"),
        (("spectrum", "--omega", "1e200"),
         "a value derived from the parameters leaves double precision: OverflowError(34, 'Numerical result out of range')"),
        (("sweep", "--model", "swanson", "--mass", "1e-320", "--param", "beta", "--from", "0.1", "--to", "0.2",
          "--steps", "2"),  # beta_c's division by the mass overflows
         "a value derived from the parameters leaves double precision: RuntimeWarning('overflow encountered in scalar divide')"),
    ], ids=["closed-form-sweep", "parameter-arithmetic", "beta-c"])
    def test_values_past_double_precision_exit_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_CONFIG, "", f"configuration error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--beta", "0"),
        ("spectrum", "--beta", "0", "--levels", "0"),
        ("sweep", "--numeric", "--param", "beta", "--from", "0", "--to", "0.2", "--steps", "3"),
        ("sweep", "--numeric", "--param", "beta", "--from", "0", "--to", "0.2", "--steps", "3", "--levels", "0"),
    ], ids=["spectrum", "spectrum-no-levels", "numeric-sweep", "numeric-sweep-no-levels"])
    def test_numeric_solves_refuse_beta_zero(self, capsys, argv):
        # beta = 0 stretches the q-box to the whole line; the closed-form sweep still runs there
        message = "configuration error: the numeric solves need beta > 0, got beta = 0\n"
        assert run(capsys, *argv) == (EXIT_CONFIG, "", message)

    #: the flags each subcommand adds to the common settings
    OWN_FLAGS = {
        "spectrum": set(),
        "sweep": {"--param", "--from", "--to", "--steps", "--numeric"},
        "wavefunction": {"--n", "--samples"},
        "verify": {"--list"},
    }

    @pytest.mark.parametrize("command", OWN_FLAGS)
    def test_flags_are_the_config_keys(self, command):
        # a config key is its flag's name with `_` for `-`, for every setting and no other flag
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        actions = {s: a for a in sub.choices[command]._actions for s in a.option_strings}
        flags = {"--" + key.replace("_", "-"): f.name for key, f in cli._SETTINGS.items()}
        assert set(actions) == set(flags) | {"--config", "-h", "--help"} | self.OWN_FLAGS[command]
        assert {flag: actions[flag].dest for flag in flags} == flags

    #: (command, flag) of every flag that takes a float: the float settings, and the sweep's range
    FLOAT_FLAGS = [("spectrum", "--" + key) for key, f in cli._SETTINGS.items() if f.type is float]
    FLOAT_FLAGS += [("sweep", "--from"), ("sweep", "--to")]

    @pytest.mark.parametrize("command, flag", FLOAT_FLAGS, ids=[flag for _, flag in FLOAT_FLAGS])
    def test_negative_exponent_notation_is_a_value(self, capsys, command, flag):
        # repr writes small negative floats in exponent notation; -1e-3 as its own token is the flag's value
        argv = [command, flag, "-1e-3", "--levels", "1"]
        if command == "sweep":
            argv += ["--param", "lambda", "--steps", "2", "--to" if flag == "--from" else "--from", "0.1"]
        args = cli.build_parser().parse_args(argv)
        if command == "sweep":
            assert (args.start if flag == "--from" else args.stop) == -1e-3
        else:
            assert getattr(cli._resolve_config(args), cli._SETTINGS[flag[2:]].name) == -1e-3
        code, _, err = run(capsys, *argv)
        if flag in ("--hbar", "--beta", "--mass", "--omega"):
            assert code == EXIT_CONFIG and err.startswith("configuration error: ") and "got -0.001\n" in err
        else:
            assert (code, err) == (EXIT_OK, "")

    @pytest.mark.parametrize("spelling", [["--lambda", "-1e-3"], ["--lambda=-1e-3"], ["--lambda", "-0.001"],
                                          ["--lambda", "-1E-03"], ["--lambda", "-.1e-2"]])
    def test_negative_value_spellings_agree(self, spelling):
        assert cli._resolve_config(cli.build_parser().parse_args(["spectrum", *spelling])).lam == -1e-3

    def test_malformed_negative_value_is_an_option(self, capsys):
        assert main(["spectrum", "--lambda", "-1e-3x"]) == EXIT_CONFIG
        assert "argument --lambda: expected one argument" in capsys.readouterr().err

    #: one setting per field annotation, with a value other than its default
    REPRESENTATIVES = {"model": "swanson", "lambda": 0.25, "levels": 3, "output": "out.csv"}

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


class TestProcessExit:
    """`python -m mlqm.cli` and the `mlqm` script exit through `run`, which freezes the collector first."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("verify", "--list"), EXIT_OK),
            (("spectrum", "--levels", "2"), EXIT_OK),
            (("spectrum", "--beta", "0"), EXIT_CONFIG),
            (("verify", "--omega", "0.05"), EXIT_NUMERIC),  # the metric overflows and fails node doubling
        ],
        ids=["verify-list", "spectrum", "config-error", "numeric-failure"],
    )
    def test_process_matches_in_process_main(self, capsys, argv, expected):
        in_process = run(capsys, *argv)
        assert in_process[0] == expected
        proc = python("-m", "mlqm.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process

    def test_output_file_is_complete(self, capsys, tmp_path):
        argv = ("spectrum", "--levels", "2", "--output")
        assert run(capsys, *argv, str(tmp_path / "in.csv")) == (EXIT_OK, "", "")
        proc = python("-m", "mlqm.cli", *argv, str(tmp_path / "out.csv"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
        written = (tmp_path / "out.csv").read_bytes()
        assert written == (tmp_path / "in.csv").read_bytes() and written.count(b"\n") == 3

    def test_run_freezes_after_main_and_exits_with_its_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or EXIT_NUMERIC)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == EXIT_NUMERIC and calls == ["main", "freeze"]

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--omega", "1e200"),
        ("spectrum", "--mass", "1e-320"),
        ("wavefunction", "--hbar", "1e300", "--samples", "3"),
    ], ids=["omega-overflow", "mass-underflow", "hbar-overflow"])
    def test_parameters_past_double_precision_exit_2_without_a_traceback(self, argv):
        # Python's OverflowError and ZeroDivisionError, and numpy's warnings, of the parameters' arithmetic
        proc = python("-m", "mlqm.cli", *argv)
        assert (proc.returncode, proc.stdout) == (EXIT_CONFIG, "")
        assert proc.stderr.startswith("configuration error: a value derived from the parameters leaves double precision")
        assert proc.stderr.count("\n") == 1

    def test_escaping_exception_prints_a_traceback_and_exits_one(self):
        probe = "import mlqm.cli as cli\ndef main():\n    raise RuntimeError('escaped main')\ncli.main = main\ncli.run()"
        proc = python("-c", probe)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("Traceback (most recent call last):\n")
        assert proc.stderr.endswith("RuntimeError: escaped main\n")

    def test_in_process_main_leaves_the_collector_alone(self, capsys):
        # tests and the traced benchmark replay call main() in-process, many times over
        before = gc.get_freeze_count()
        assert run(capsys, "spectrum", "--levels", "2")[0] == EXIT_OK
        assert gc.get_freeze_count() == before


def console_script_commands() -> list:
    """(argv, exit code) of each `mlqm` line of the workflow's "Installed console script" step.

    A bare `mlqm ...` line must exit 0; `rc=0; mlqm ... || rc=$?; test "$rc" -eq N` must exit N.
    """
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    step = lines.index("      - name: Installed console script")
    start = next(i for i in range(step, len(lines)) if lines[i].strip() == "run: |") + 1
    commands = []
    for line in lines[start:]:
        if not line.startswith(" " * 10):  # the end of the run block
            break
        line = line.strip()
        if line.startswith("mlqm "):
            commands.append((tuple(shlex.split(line)[1:]), EXIT_OK))
        elif "mlqm " in line:
            match = re.fullmatch(r'rc=0; mlqm (.+) \|\| rc=\$\?; test "\$rc" -eq (\d)', line)
            assert match, line
            commands.append((tuple(shlex.split(match[1])), int(match[2])))
    return commands


CONSOLE_SCRIPT = console_script_commands()


@pytest.mark.parametrize("argv, expected", CONSOLE_SCRIPT, ids=[" ".join(argv) for argv, _ in CONSOLE_SCRIPT])
def test_console_script_step_exit_codes(argv, expected, tmp_path):
    # the CI step runs the installed script; this runs the same lines from the source tree
    proc = python("-m", "mlqm.cli", *argv, cwd=tmp_path)
    assert proc.returncode == expected, proc.stderr


def modules_loaded_by(code: str) -> list:
    """The modules a fresh interpreter holds after running ``code``, in which ``main`` runs the CLI silently."""
    probe = "\n".join([
        "import contextlib, io, sys",
        "def main(argv):",
        "    from mlqm.cli import main",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        return main(argv)",
        code,
        "print(' '.join(sys.modules))",
    ])
    return python("-c", probe, check=True).stdout.split()


#: the SciPy solver packages a command may load
SOLVERS = {"scipy.linalg", "scipy.sparse.linalg"}


@pytest.mark.parametrize(
    "code, solvers",
    [
        ("import mlqm", set()),
        ("import mlqm.cli", set()),
        ("assert main(['verify', '--list']) == 0", set()),
        ("assert main(['verify']) == 0", set()),
        ("assert main(['verify', '--model', 'swanson', '--beta', '0.4', '--lambda', '0.28', '--delta', '0.12']) == 0",
         set()),
        ("assert main(['sweep', '--param', 'beta', '--from', '0.05', '--to', '0.2', '--steps', '4']) == 0", set()),
        ("assert main(['spectrum', '--beta', '0']) == 2", set()),
        ("assert main(['spectrum', '--levels', '2']) == 0", {"scipy.linalg"}),
        (
            "assert main(['sweep', '--model', 'swanson', '--numeric', '--param', 'beta', '--from', '1.5',"
            " '--to', '2.5', '--steps', '2', '--lambda', '0.2', '--delta', '0.2']) == 0",
            {"scipy.linalg"},
        ),
    ],
    ids=[
        "import-mlqm", "import-cli", "verify-list", "verify", "verify-swanson", "closed-form-sweep", "config-error",
        "spectrum", "numeric-sweep",
    ],
)
def test_scipy_is_imported_at_the_first_solve(code, solvers):
    # SciPy's import costs ~0.3 s per process, so a command that solves nothing must not pay it;
    # verify solves with numpy alone, and the q-box solve of spectrum and of a numeric sweep
    # needs only scipy.linalg, not scipy.sparse
    loaded = [m for m in modules_loaded_by(code) if m.startswith("scipy")]
    assert SOLVERS & set(loaded) == solvers
    if not solvers:
        assert loaded == []
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


@pytest.mark.parametrize(
    "code",
    [
        "import mlqm",
        "import mlqm.cli",
        "assert main(['verify', '--list']) == 0",
        "assert main(['--help']) == 0",
        "assert main(['sweep']) == 2",
        "assert main(['spectrum', '--config', {config!r}]) == 2",
    ],
    ids=["import-mlqm", "import-cli", "verify-list", "help", "usage-error", "config-error"],
)
def test_numpy_is_imported_at_the_first_computing_command(code, tmp_path):
    # numpy and the numeric library are most of a process's start-up, so a command that computes nothing skips them
    config = tmp_path / "bad-type.json"
    config.write_text('{"levels": "four"}')
    loaded = modules_loaded_by(code.format(config=str(config)))
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []


def _trace_span_modules() -> set:
    spec = importlib.util.spec_from_file_location("_perfbench_trace_replay", PERFBENCH / "trace_replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {module_name for targets in module.SPANS.values() for module_name, _ in targets}


@pytest.mark.parametrize(
    "code, unloaded",
    [
        ("assert main(['spectrum', '--levels', '2']) == 0", set()),
        ("assert main(['verify']) == 0", {"scipy.linalg"}),
        (
            "assert main(['sweep', '--model', 'swanson', '--numeric', '--param', 'beta', '--from', '1.5',"
            " '--to', '2.5', '--steps', '2', '--lambda', '0.2', '--delta', '0.2']) == 0",
            set(),
        ),
    ],
    ids=["spectrum", "verify", "numeric-sweep"],
)
def test_computing_commands_load_every_traced_module(code, unloaded):
    # the traced benchmark wraps the SPANS functions in the modules its replayed commands have loaded
    assert _trace_span_modules() - set(modules_loaded_by(code)) == unloaded


def test_package_names_resolve_lazily():
    probe = "\n".join([
        "import importlib, mlqm",
        "assert set(mlqm.__all__) <= set(dir(mlqm))",
        "for name in mlqm.__all__:",
        "    namespace = {}",
        "    exec(f'from mlqm import {name}', namespace)",
        "    defined = getattr(importlib.import_module(f'mlqm.{mlqm._SOURCE[name]}'), name)",
        "    assert getattr(mlqm, name) is namespace[name] is defined, name",
        "print(len(mlqm.__all__))",
    ])
    assert python("-c", probe, check=True).stdout == f"{len(mlqm.__all__)}\n"
    with pytest.raises(AttributeError):
        getattr(mlqm, "no_such_name")


@pytest.mark.parametrize(
    "argv, limit_mb",
    [
        (("verify",), 4.0),
        (("verify", "--model", "swanson", "--beta", "0.4", "--lambda", "0.28", "--delta", "0.12"), 4.0),
        (("spectrum",), 3.0),
        (("wavefunction", "--n", "300", "--samples", "20000"), 30.0),
    ],
    ids=["verify", "verify-swanson", "spectrum", "wavefunction-300"],
)
def test_cli_path_builds_no_dense_operator(capsys, argv, limit_mb):
    # one dense 1200 x 1200 p-space matrix is 11.5 MB; these commands build no p-space operator at all,
    # and the Jacobi recurrence keeps two degrees, not a 301 x 20000 table of them (98.5 MB at n = 300)
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
