"""The README library tour runs as written and gives what its comments say."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_tour() -> dict:
    """Run the tour's Python block; return each expression statement's value, keyed by its source."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), str(README), "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), namespace)
    return values


def test_library_tour_claims():
    values = _run_tour()
    assert values["osc.family().nu"] == 10.0
    assert values["displaced_energy(0, osc)"] == 0.6506246098625197
    assert values["swanson_energy(0, sw)"] == pytest.approx(0.45, rel=1e-14)
    assert values["swanson_beta_c(sw)"] == pytest.approx(2.0, rel=1e-14)
    assert values["r.has_conjugate_pair"]
    assert abs(values["eta_inner(psi0, psi1, eta, d)"]) <= 1e-12
