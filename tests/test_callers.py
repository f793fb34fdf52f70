"""Code that only tests call does not stay in the package: every function,
class and method defined in ``src/qkz`` is referenced by name somewhere
else in ``src/qkz``.  A re-export in ``__init__.py`` is not a caller, so it
keeps no test-only code alive.  Exempt are dunder methods (Python calls them), the
layers the benchmark traces (``LAYERS`` in ``perfbench/tracer.py``, read
here and not edited), and ``cone.apply_full_step``, the solver's operator,
which the Hamiltonian-representation check is to call.

The README names no code that is gone: every backticked ``_name`` and
``module.name`` (for a module of the package) in it is defined in the
package, apart from the few it quotes from elsewhere."""

import ast
import re
import sys
from pathlib import Path

from loader import load_module

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qkz"
EXEMPT = {("cone", "apply_full_step")}
# private names the README quotes from outside the package, each with the
# file that defines it: the partition sum's twelve-factor oracle
QUOTED_ELSEWHERE = {"_weight_12": ROOT / "tests" / "test_laumon.py"}


def _traced_layers():
    return set(load_module("perfbench_tracer", ROOT / "perfbench" / "tracer.py").LAYERS)


def _definitions(tree):
    """(qualified name, node) of every function and class, nested ones too."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _references(tree):
    """(name, line) of every name the module reads, imports or takes as an
    attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced():
    """Qualified names, as (module, name), of the definitions in the package
    that nothing outside their own body and the package's re-exports refers
    to."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    sites = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, line in _references(tree):
            sites.setdefault(name, []).append((module, line))
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if all(other == module and line in inside for other, line in sites.get(name, ())):
                found.append((module, qualname))
    return found


def test_every_definition_has_a_caller_in_the_package():
    exempt = _traced_layers() | EXEMPT
    assert [entry for entry in unreferenced() if entry not in exempt] == []


def _copy_with(tmp_path, monkeypatch, additions):
    """Point the scan at a copy of the package with `additions` {file name:
    text} appended to its files."""
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text() + additions.get(path.name, ""))
    monkeypatch.setattr(sys.modules[__name__], "PACKAGE", tmp_path)


def test_the_scan_reports_a_definition_without_a_caller(tmp_path, monkeypatch):
    # the scan can fail: it reports the exempt definitions that no package
    # code calls, and a definition planted in a copy of the package
    found = unreferenced()
    assert ("cone", "apply_full_step") in found
    assert ("qseries", "qbracket_poch") in found
    _copy_with(tmp_path, monkeypatch, {"laumon.py": "\n\ndef planted():\n    return 1\n"})
    assert sorted(unreferenced()) == sorted(found + [("laumon", "planted")])


def test_a_re_export_is_not_a_caller(tmp_path, monkeypatch):
    # a function that only ``__init__.py`` names is reported
    _copy_with(tmp_path, monkeypatch, {
        "scalars.py": "\n\ndef exported_only():\n    return 1\n",
        "__init__.py": "\nfrom .scalars import exported_only  # noqa: F401\n"})
    assert ("scalars", "exported_only") in unreferenced()


def _defined_names(tree):
    """Every function and class name of a module, nested ones too, and the
    names its top level assigns."""
    names = {node.name for _, node in _definitions(tree)}
    return names | {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}


def undefined_readme_names(text):
    """The backticked names of `text`, as (module or None, name), that the
    package does not define: a ``module.name`` in that module of the
    package, a ``_name`` (not a dunder) in any of its modules."""
    defined = {path.stem: _defined_names(ast.parse(path.read_text(), str(path)))
               for path in PACKAGE.glob("*.py")}
    anywhere = set().union(*defined.values())
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for name in re.findall(r"(?<![\w.])(_[A-Za-z]\w*)", span):
            if name not in anywhere and name not in QUOTED_ELSEWHERE:
                found.append((None, name))
        for module, name in re.findall(r"(?<![\w.])(\w+)\.(\w+)", span):
            if module in defined and name != "py" and name not in defined[module]:
                found.append((module, name))
    return found


def test_the_readme_names_only_defined_code():
    assert undefined_readme_names((ROOT / "README.md").read_text()) == []
    for name, path in QUOTED_ELSEWHERE.items():
        assert name in _defined_names(ast.parse(path.read_text(), str(path))), (name, path)


def test_the_readme_scan_reports_a_deleted_name():
    # names of code that is gone, bare and module-qualified, are reported;
    # a module's file name, a dunder and a public bare name are not names
    # of this form
    text = ("`_floor_residue` and `Rat(*laumon._vector_pair(k, lam))`, "
            "`laumon._orb_pair`, `suites.py`, `__init__`, `elementary_bracket`")
    assert undefined_readme_names(text) == [(None, "_floor_residue"), ("laumon", "_vector_pair")]
