"""Benchmark of the mlqm command-line program, run the way its users run it.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Run it from the root of an mlqm source tree.  Each invocation is a fresh
``python -m mlqm.cli ...`` process with ``src/`` on PYTHONPATH.  Invocations
run one at a time: a closed loop with one client, ``--jobs`` left at 1 and
BLAS threads at the library default.  Every output is checked against a
reference (see workloads.py).  The first invocation of each CLI command is
a warm-up, recorded but left out of the medians.  The timed loop then runs
the workload's cycles for ``--seconds`` seconds, with a ``verify --list``
set-up probe before each cycle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
trace_replay.py in a fresh process instead and prints the per-layer
metrics.  The last line of standard output is the result JSON.  The line
before it summarises the run, with per-command medians and accuracy.  The
full record, with every residual, is written to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path("src")
OUT_DIR = Path(".perfbench_out")
SETUP_PROBES = 5
INVOCATION_TIMEOUT_S = 150.0
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

#: name -> (unit, better); the end-to-end metrics every workload prints.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "time_to_result_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_digits": ("digits", "higher"),
}
#: name -> (unit, better) of the per-layer counters that are not calls, self time or errors.
SPAN_COUNTERS = {
    "eigensolver.solve_p_space.useful_ratio": ("ratio", "higher"),
    "eigensolver.solve_q_space_branch.useful_ratio": ("ratio", "higher"),
    "eigensolver.build_p_space_matrix.bytes": ("B", "lower"),
    "kernel.dense_eig.n3_sum": ("count", "lower"),
}
TRACE_TOTALS = {
    "trace.traced_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
NOTE = (
    "the benchmark pins no CPU, drops no page cache and changes no machine setting; "
    "timings include whatever else the host runs at the same time"
)


@dataclass
class Invocation:
    kind: str
    phase: str  # "warmup", "timed" or "setup"; "untraced" or "traced" in a traced run
    args: tuple
    wall_s: float
    rc: int
    maxrss_mb: float
    reason: str | None
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.reason is None


def per_layer_metrics() -> dict:
    """name -> (unit, better) of every per-layer metric, in print order."""
    from trace_replay import IMPORT_SPAN, SPANS

    metrics = {}
    for span in (IMPORT_SPAN, *SPANS):
        metrics[f"{span}.calls"] = ("count", "lower")
        metrics[f"{span}.self_s"] = ("s", "lower")
        metrics[f"{span}.errors"] = ("count", "lower")
    return {**metrics, **SPAN_COUNTERS, **TRACE_TOTALS}


def _check_output(check, stdout: str):
    try:
        return check(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}", {}


def invoke(program, kind: str, phase: str, check, args=()) -> Invocation:
    """Run ``program`` to completion, time it, read its peak RSS with os.wait4, check its output."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(program, stdout=out, stderr=err, env=ENV)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", errors="replace")
        stderr = err.read().decode("utf-8", errors="replace")
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:]
        reason, stats = f"exit code {rc}: {' '.join(tail)}", {}
    else:
        reason, stats = _check_output(check, stdout)
    return Invocation(kind, phase, tuple(args), wall, rc, usage.ru_maxrss / 1024.0, reason, stats)


def cli_program(args) -> list:
    return [sys.executable, "-m", "mlqm.cli", *args]


def measure(workload, seconds: float, setup_op) -> list:
    """Warm up, then run the workload's cycles round-robin for ``seconds`` seconds."""
    runs = []

    def run(op, phase):
        runs.append(invoke(cli_program(op.args), op.kind, phase, op.check, op.args))

    warmed = set()
    for cycle in workload.cycles:
        for op in cycle:
            if op.command not in warmed:
                warmed.add(op.command)
                run(op, "warmup")
    start = time.perf_counter()
    i = 0
    # every cycle runs at least once; after that a cycle starts while time is left
    while i < len(workload.cycles) or time.perf_counter() - start < seconds:
        run(setup_op, "setup")
        for op in workload.cycles[i % len(workload.cycles)]:
            run(op, "timed")
        i += 1
    while sum(r.phase == "setup" for r in runs) < SETUP_PROBES:
        run(setup_op, "setup")
    return runs


def timings(runs) -> dict:
    """kind -> wall times of its successful, non-warm-up invocations."""
    samples = {}
    for r in runs:
        if r.ok and r.phase != "warmup":
            samples.setdefault(r.kind, []).append(r.wall_s)
    return samples


def end_to_end(workload, runs) -> dict:
    """The end-to-end metrics, or only those that could be computed when operations failed."""
    samples = timings(runs)
    metrics = {}
    if samples.get("setup"):
        metrics["setup_s"] = statistics.median(samples["setup"])
    if all(samples.get(kind) for kind in workload.result):
        metrics["time_to_result_s"] = sum(statistics.median(samples[k]) * n for k, n in workload.result.items())
    metrics["peak_rss_mb"] = max(r.maxrss_mb for r in runs)
    accuracy = [r.stats["accuracy_digits"] for r in runs if r.ok and "accuracy_digits" in r.stats]
    if accuracy:
        metrics["accuracy_digits"] = min(accuracy)
    return metrics


def summary(runs) -> dict:
    """Per-command medians with sample counts and warm-up times, the accuracy figures and op counts."""
    samples = timings(runs)
    commands = {
        f"{kind}_s": {"median": statistics.median(times), "n": len(times)} for kind, times in samples.items()
    }
    for r in runs:
        if r.phase == "warmup":
            commands.setdefault(f"{r.kind}_s", {})["warmup"] = r.wall_s
    out = {"commands": commands}
    for key in ("digits_q", "digits_p", "digits_branch", "verify_margin_digits"):
        values = [r.stats[key] for r in runs if r.ok and key in r.stats]
        if values:
            out[key] = min(values)
    out["ops_failed"] = sum(not r.ok for r in runs)
    out["ops_total"] = len(runs)
    return out


def traced(ops) -> tuple:
    """Replay ``ops`` in a fresh traced process; return (checked invocations, per-layer metrics)."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        spec_path, data_path = Path(tmp, "spec.json"), Path(tmp, "trace.json")
        spec_path.write_text(json.dumps({"argvs": [list(op.args) for op in ops]}), encoding="utf-8")
        child = invoke([sys.executable, str(HERE / "trace_replay.py"), str(spec_path), str(data_path)],
                       "trace", "trace", lambda out: (None, {}))
        if not child.ok:
            sys.exit(f"perfbench: traced replay failed: {child.reason}")
        data = json.loads(data_path.read_text(encoding="utf-8"))
    self_s = span_self_times(data["spans"])
    runs = []
    for phase in ("untraced", "traced"):
        for i, (op, rec) in enumerate(zip(ops, data[phase]), start=1):
            if rec["rc"] != 0:
                reason, stats = f"exit code {rec['rc']}: {rec['error']}", {}
            else:
                reason, stats = _check_output(op.check, rec["stdout"])
            if phase == "traced":
                covered = sum(self_s[s["id"]] for s in data["spans"] if s["inv"] == i)
                stats["unattributed_s"] = rec["wall_s"] - covered
            runs.append(Invocation(op.kind, phase, op.args, rec["wall_s"], rec["rc"], child.maxrss_mb, reason, stats))
    return runs, layer_metrics(data)


def span_self_times(spans) -> list:
    """Self time of each span, indexed by span id: its duration minus its children's."""
    self_s = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]
    return self_s


def layer_metrics(data) -> dict:
    """Calls, self time and errors per span; the span counters; and the trace's own totals.

    The unattributed time is the traced invocations' wall time minus the
    self times of their spans; the overhead is the traced replay's wall time
    minus the untraced one's.
    """
    spans = data["spans"]
    self_s = span_self_times(spans)
    values = {name: 0 for name in per_layer_metrics()}
    sums = {}
    for s in spans:
        values[f"{s['name']}.calls"] += 1
        values[f"{s['name']}.self_s"] += self_s[s["id"]]
        values[f"{s['name']}.errors"] += s["error"]
        for key in ("useful", "computed", "bytes", "n3"):
            if key in s:
                sums[(s["name"], key)] = sums.get((s["name"], key), 0) + s[key]
    for span in ("eigensolver.solve_p_space", "eigensolver.solve_q_space_branch"):
        computed = sums.get((span, "computed"), 0)
        values[f"{span}.useful_ratio"] = sums[(span, "useful")] / computed if computed else 0.0
    values["eigensolver.build_p_space_matrix.bytes"] = sums.get(("eigensolver.build_p_space_matrix", "bytes"), 0)
    values["kernel.dense_eig.n3_sum"] = sums.get(("kernel.dense_eig", "n3"), 0)
    traced_wall = sum(r["wall_s"] for r in data["traced"])
    span_self = sum(self_s[s["id"]] for s in spans if s["inv"] > 0)
    values["trace.traced_s"] = traced_wall
    values["trace.unattributed_s"] = traced_wall - span_self
    values["trace.overhead_s"] = traced_wall - sum(r["wall_s"] for r in data["untraced"])
    return values


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "note": NOTE,
    }


def result_line(runs, values, spec) -> dict:
    failed = sum(not r.ok for r in runs)
    return {
        "correct": failed == 0 and set(values) == set(spec),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": spec[name][0]} for name in spec if name in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("check", "sweep-numeric"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mlqm" / "cli.py").is_file():
        sys.stderr.write("perfbench: src/mlqm/cli.py not found; run from the root of an mlqm source tree\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.build(args.workload, args.seed)
    if args.trace:
        ops = [op for cycle in workload.cycles for op in cycle]
        runs, values = traced(ops)
        spec = per_layer_metrics()
    else:
        runs = measure(workload, args.seconds, workloads.SETUP)
        values = end_to_end(workload, runs)
        spec = END_TO_END
    result = result_line(runs, values, spec)
    detail = {"workload": workload.name, "seed": args.seed, "params": workload.params, **summary(runs)}
    record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        **detail,
        "seconds": args.seconds,
        "environment": environment(),
        "invocations": [asdict(r) for r in runs],
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for r in runs:
        if not r.ok:
            sys.stderr.write(f"perfbench: failed {r.kind} ({r.phase}) {' '.join(r.args)}: {r.reason}\n")
    print(json.dumps({**detail, "record": str(record_path)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
