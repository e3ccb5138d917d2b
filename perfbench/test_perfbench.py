"""The benchmark's own tests; they start no CLI workload and run in seconds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def in_repo(monkeypatch, tmp_path):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _fake_invoke(program, kind, phase, check, args=()):
    return run.Invocation(kind, phase, tuple(args), 0.01, 0, 100.0, None, {"accuracy_digits": 5.0})


def _printed(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_metrics(result, declared):
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(in_repo, monkeypatch, capsys, workload):
    monkeypatch.setattr(run, "invoke", _fake_invoke)
    result = _printed(capsys, ["--workload", workload, "--seconds", "0", "--trace", "0"])
    _assert_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_printed_with_unit(in_repo, monkeypatch, capsys, workload):
    spans = [
        {"id": 0, "name": "cli.import", "start": 0.0, "end": 0.5, "parent": None, "inv": 0, "error": 0},
        {"id": 1, "name": "cli.main", "start": 1.0, "end": 2.0, "parent": None, "inv": 1, "error": 0},
        {"id": 2, "name": "eigensolver.solve_p_space", "start": 1.1, "end": 1.9, "parent": 1, "inv": 1,
         "error": 0, "useful": 4, "computed": 1200},
        {"id": 3, "name": "kernel.dense_eig", "start": 1.2, "end": 1.8, "parent": 2, "inv": 1, "error": 0,
         "n3": 1200**3},
    ]
    data = {"spans": spans, "untraced": [{"wall_s": 0.9}], "traced": [{"wall_s": 1.0}]}
    values = run.layer_metrics(data)
    assert values["eigensolver.solve_p_space.self_s"] == pytest.approx(0.2)
    assert values["eigensolver.solve_p_space.useful_ratio"] == pytest.approx(4 / 1200)
    assert values["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-12)
    assert values["trace.overhead_s"] == pytest.approx(0.1)
    monkeypatch.setattr(run, "traced", lambda ops: ([_fake_invoke(None, "k", "traced", None)], values))
    result = _printed(capsys, ["--workload", workload, "--trace", "1"])
    _assert_metrics(result, SPEC["per_layer"])


def _spectrum_csv(energies, shift_q=1e-9, shift_p=1e-7):
    lines = [workloads.SPECTRUM_HEADER]
    for n, e in enumerate(energies):
        cells = [e, e + shift_q, e + shift_p, 0.0, shift_q, shift_p]
        lines.append(",".join([str(n)] + [repr(float(x)) for x in cells]))
    return "\n".join(lines) + "\n"


def test_shifted_reference_energy_fails_the_operation(in_repo):
    params = workloads.displaced(0.1, 0.5)
    reference = [workloads.displaced_energy(n, params) for n in range(4)]
    program = [sys.executable, "-c", f"import sys; sys.stdout.write({_spectrum_csv(reference)!r})"]
    good = run.invoke(program, "spectrum_displaced", "timed", lambda out: workloads.check_spectrum(out, reference))
    assert good.ok, good.reason
    shifted = [e + 0.1 for e in reference]  # the fault verify.ode_fault_detection_report injects
    bad = run.invoke(program, "spectrum_displaced", "timed", lambda out: workloads.check_spectrum(out, shifted))
    assert not bad.ok and bad.stats["digits_q"] == pytest.approx(1.0)
    assert run.result_line([good, bad], {}, {})["failed"] == 1


def test_nonzero_exit_is_failed_and_not_timed(in_repo):
    ok = run.invoke([sys.executable, "-c", "pass"], "sweep_numeric", "timed", lambda out: (None, {}))
    failed = run.invoke([sys.executable, "-c", "import sys; sys.exit(3)"], "sweep_numeric", "timed",
                        lambda out: (None, {}))
    assert ok.ok and not failed.ok and failed.rc == 3
    assert run.timings([ok, failed]) == {"sweep_numeric": [ok.wall_s]}
    result = run.result_line([ok, failed], {}, {})
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_refuses_to_run_outside_a_source_tree(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", WORKLOADS[0]]) != 0
    assert capsys.readouterr().out == ""
