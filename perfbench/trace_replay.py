"""Traced in-process replay of mlqm CLI invocations: the benchmark's per-layer run.

    PYTHONPATH=src python3 perfbench/trace_replay.py SPEC.json OUT.json

SPEC holds ``{"argvs": [[...], ...]}``.  In this fresh process the script
times ``import mlqm.cli`` and replays every argv through ``mlqm.cli.main``
three times: once to pay first-call costs and fill caches, once untraced,
and once with each function named in SPANS wrapped in a span.  OUT receives the spans and, for both replays, each
invocation's exit code, wall time and standard output.
"""

import contextlib
import functools
import io
import json
import sys
import time

#: span name -> the (module, attribute) pairs it wraps; model-specific pairs share one name.
SPANS = {
    "cli.main": (("mlqm.cli", "main"),),
    "models.transform": (("mlqm.models", "displaced_transform"), ("mlqm.models", "swanson_transform")),
    "models.coefficients": (("mlqm.models", "displaced_coefficients"), ("mlqm.models", "swanson_coefficients")),
    "models.metric": (("mlqm.models", "displaced_metric"), ("mlqm.models", "swanson_metric")),
    "models.wavefunction": (("mlqm.models", "displaced_wavefunction"), ("mlqm.models", "swanson_wavefunction")),
    "pct.transform": (("mlqm.pct", "transform"),),
    "inner.eta_inner": (("mlqm.inner", "eta_inner"),),
    "jacobi.jacobi_eval": (("mlqm.jacobi", "jacobi_eval"),),
    "algebra.derivative_matrix": (
        ("mlqm.algebra", "first_derivative_matrix"), ("mlqm.algebra", "second_derivative_matrix"),
    ),
    "algebra.commutator_residual": (("mlqm.algebra", "commutator_residual"),),
    "eigensolver.solve_q_space": (("mlqm.eigensolver", "solve_q_space"),),
    "eigensolver.solve_q_space_branch": (("mlqm.eigensolver", "solve_q_space_branch"),),
    "eigensolver.build_p_space_matrix": (("mlqm.eigensolver", "build_p_space_matrix"),),
    "eigensolver.solve_p_space": (("mlqm.eigensolver", "solve_p_space"),),
    "verify.commutator_report": (("mlqm.verify", "commutator_report"),),
    "verify.hermiticity_defect_report": (("mlqm.verify", "hermiticity_defect_report"),),
    "verify.low_mode_basis": (("mlqm.verify", "_low_mode_basis"),),
    "verify.pseudo_hermiticity_residual": (("mlqm.verify", "pseudo_hermiticity_residual"),),
    "verify.gram_matrix": (("mlqm.verify", "gram_matrix"),),
    "verify.ode_residual": (("mlqm.verify", "ode_residual"),),
    "verify.gamma_independence": (("mlqm.verify", "gamma_independence"),),
    "kernel.dense_eig": (("numpy.linalg", "eig"), ("numpy.linalg", "eigvals")),
    "kernel.eigh_tridiagonal": (("scipy.linalg", "eigh_tridiagonal"),),
}
IMPORT_SPAN = "cli.import"


def _spectrum_counts(args, kwargs, result):
    # eigenvalues returned against eigenvalues computed (the matrix order)
    return {"useful": len(result.eigenvalues), "computed": result.resolution}


def _matrix_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


def _order_cubed(args, kwargs, result):
    return {"n3": args[0].shape[0] ** 3}


#: span name -> function of (args, kwargs, result) giving the span's counters.
COUNTERS = {
    "eigensolver.solve_p_space": _spectrum_counts,
    "eigensolver.solve_q_space_branch": _spectrum_counts,
    "eigensolver.build_p_space_matrix": _matrix_bytes,
    "kernel.dense_eig": _order_cubed,
}


class Tracer:
    """Spans kept in memory: id, name, start, end, parent id, invocation id, error flag, counters.

    One stack serves every thread.  That is exact because the replay runs
    one invocation at a time with ``--jobs`` at 1, so the sweep's pool worker
    runs only while the calling thread waits for it.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.invocation = 0

    def record(self, name, start, end, parent=None):
        span = {"id": len(self.spans), "name": name, "start": start, "end": end,
                "parent": parent, "inv": self.invocation, "error": 0}
        self.spans.append(span)
        return span

    def wrap(self, name, fn):
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.record(name, time.perf_counter(), None, self.stack[-1] if self.stack else None)
            self.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span["error"] = 1
                raise
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if counters is not None:
                span.update(counters(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every SPANS function and rebind it in each module namespace that holds it."""
        namespaces = [m for n, m in list(sys.modules.items()) if n == "mlqm" or n.startswith("mlqm.")]
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for namespace in namespaces + [module]:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)


def replay(argvs, tracer=None):
    """Run each argv through mlqm.cli.main, capturing standard output."""
    cli = sys.modules["mlqm.cli"]
    runs = []
    for i, argv in enumerate(argvs, start=1):
        if tracer is not None:
            tracer.invocation = i
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except Exception as exc:  # an escaped exception is a failed invocation, not a crashed replay
            rc, error = -1, repr(exc)
        runs.append({"argv": list(argv), "rc": rc, "error": error,
                     "wall_s": time.perf_counter() - start, "stdout": buf.getvalue()})
    return runs


def main(spec_path, out_path):
    with open(spec_path, encoding="utf-8") as fh:
        argvs = json.load(fh)["argvs"]
    tracer = Tracer()
    start = time.perf_counter()
    import mlqm.cli  # noqa: F401  (timed: the cli.import span)
    tracer.record(IMPORT_SPAN, start, time.perf_counter())
    replay(argvs)
    untraced = replay(argvs)
    tracer.install()
    traced = replay(argvs, tracer)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "untraced": untraced, "traced": traced}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
