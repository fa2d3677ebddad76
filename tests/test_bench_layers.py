"""The benchmark's traced layers still name functions of raagdyn.

bench/harness.py's LAYERS maps each layer to a dotted path under raagdyn,
and a `--trace 1` run finds each one by its __code__.  This reads LAYERS
with ast, so the benchmark itself is neither imported nor run.
"""

import ast
import importlib
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent.parent / "bench" / "harness.py"


def layers() -> dict[str, str]:
    for node in ast.parse(HARNESS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            # a literal dict expression: evaluating it runs nothing of bench/
            return eval(compile(ast.Expression(node.value), str(HARNESS), "eval"), {"__builtins__": {}})
    raise AssertionError("bench/harness.py assigns no LAYERS")


def test_layers_are_read():
    assert len(layers()) >= 20


@pytest.mark.parametrize("layer, path", sorted(layers().items()))
def test_layer_resolves_to_code(layer, path):
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"raagdyn.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert hasattr(obj, "__code__"), f"{layer}: raagdyn.{path} has no __code__"
