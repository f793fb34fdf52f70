"""The benchmark traces named layer functions (``LAYERS`` in
``perfbench/tracer.py``) by their module-level bindings in qkz.  A layer that
is renamed, moved or folded away would silently drop out of the trace, so
every entry must still resolve to a function defined in qkz."""

from pathlib import Path

from loader import load_module

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves_to_a_qkz_function():
    tracer = load_module("perfbench_tracer", TRACER)
    assert tracer.LAYERS
    for module, path in tracer.LAYERS:
        found = tracer._resolve(module, path)
        assert found is not None, f"{module}.{path} is not bound in qkz.{module}"
        fn = found[2]
        assert callable(fn) and fn.__module__ == f"qkz.{module}", f"{module}.{path}"
