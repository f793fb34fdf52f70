"""Load a Python file that is not part of an importable package, such as
the benchmark's tracer and runner under `perfbench/`."""

import importlib.util
import sys


def load_module(name, path):
    """The module `name` executed from the file `path`.  It is registered in
    `sys.modules` before it runs, because dataclasses look their module up
    by name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
