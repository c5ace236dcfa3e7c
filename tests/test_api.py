"""The package holds nothing that only the tests use.  ``detcalc.__all__``
holds exactly the names its callers read: ``cli.py``, the README's library
example and the benchmark's ``bench/workloads.py``; every other name is
imported from its own module.  Every public method of a public class is read
by the package itself or by the README's library example, and every
function and method the package defines, private ones included, is read by
the package itself.  Term maps have one owner: no module but ``chow`` reads
``.terms`` or the kernel's private names.  Every ``ConsistencyError`` is
raised in ``invariants._agree``, the one comparison of routes.  Importing
the command line leaves ``fractions`` unimported."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import detcalc

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "detcalc"


class _Uses(ast.NodeVisitor):
    """Names and attributes loaded in a module, outside the function or class
    that defines them."""

    def __init__(self):
        self.used = set()
        self.attributes = set()
        self.defining = []

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.defining:
            self.used.add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self.defining:
            self.attributes.add(node.attr)
        self.generic_visit(node)


def _package_uses() -> _Uses:
    uses = _Uses()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            uses.visit(ast.parse(path.read_text()))
    return uses


def _term_map_users() -> dict[str, list[str]]:
    """Per module of the package other than ``chow``, the term-map names it
    imports or loads: the attribute ``terms`` and the kernel's private
    ``_accumulate_terms``, ``_finish`` and ``_make``."""
    kernel = {"_accumulate_terms", "_finish", "_make"}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "chow.py":
            continue
        tree = ast.parse(path.read_text())
        uses = _Uses()
        uses.visit(tree)
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        loaded = uses.used | imported | uses.attributes
        names = (loaded & kernel) | (uses.attributes & {"terms"})
        if names:
            found[path.name] = sorted(names)
    return found


class _Raises(ast.NodeVisitor):
    """``module.function`` of every place a module constructs or raises
    ``ConsistencyError``, by the innermost enclosing definition."""

    def __init__(self, module):
        self.module = module
        self.enclosing = ["<module>"]
        self.sites = []

    def _definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _site(self, node):
        name = getattr(node, "id", getattr(node, "attr", None))
        if name == "ConsistencyError":
            self.sites.append(f"{self.module}.{self.enclosing[-1]}")

    def visit_Call(self, node):
        self._site(node.func)
        self.generic_visit(node)

    def visit_Raise(self, node):
        self._site(node.exc)
        self.generic_visit(node)


def test_route_comparisons_raise_in_one_place():
    # every comparison of two routes goes through invariants._agree, and
    # nothing else raises ConsistencyError
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Raises(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.sites
    assert sites == ["invariants._agree"]


def test_only_chow_touches_term_maps():
    # a class's term map is read, filled and handed over in chow alone, so
    # the rule that keeps classes immutable is one module's business
    assert _term_map_users() == {}


def _readme_example() -> str:
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    return example


def test_every_public_name_has_a_user():
    uses = _package_uses()
    example = _readme_example()
    unused = [
        name
        for name in detcalc.__all__
        if name not in uses.used and not re.search(rf"\b{name}\b", example)
    ]
    assert unused == []


def _caller_names() -> tuple[set[str], set[str], set[str]]:
    """The names each caller of the package reads: those ``cli.py`` loads,
    those the README's example imports from ``detcalc``, and the
    ``api.<name>`` of ``bench/workloads.py`` that are not modules."""
    cli = _Uses()
    cli.visit(ast.parse((PACKAGE / "cli.py").read_text()))
    readme = {
        alias.name
        for node in ast.walk(ast.parse(_readme_example()))
        if isinstance(node, ast.ImportFrom) and node.module == "detcalc"
        for alias in node.names
    }
    bench = {
        node.attr
        for node in ast.walk(ast.parse((ROOT / "bench" / "workloads.py").read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "api"
        and not (PACKAGE / f"{node.attr}.py").exists()
    }
    return cli.used, readme, bench


def test_public_names_are_the_names_callers_read():
    # both ways: an exported name nobody reads is only the tests' business,
    # and a name the README or the benchmark reads must stay exported
    cli, readme, bench = _caller_names()
    assert [n for n in detcalc.__all__ if n not in cli | readme | bench] == []
    assert sorted((readme | bench) - set(detcalc.__all__)) == []


def test_importing_the_cli_does_not_import_fractions():
    # coefficients are plain ints, so a cold start never loads fractions
    code = "import sys, detcalc.cli; print('fractions' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def _public_methods(cls):
    """Methods and properties defined on ``cls`` whose names do not start with
    an underscore; dunder methods, which the interpreter calls, are exempt."""
    for name, value in vars(cls).items():
        if not name.startswith("_") and (
            inspect.isfunction(value)
            or isinstance(value, (property, staticmethod, classmethod))
        ):
            yield name


def test_every_public_method_has_a_user():
    uses = _package_uses()
    example = _readme_example()
    unused = [
        f"{name}.{method}"
        for name in detcalc.__all__
        if inspect.isclass(getattr(detcalc, name))
        for method in _public_methods(getattr(detcalc, name))
        if method not in uses.attributes
        and not re.search(rf"\.{method}\b", example)
    ]
    assert unused == []


def _defined_functions():
    """``module.name`` of every function and method defined in the package;
    dunder methods, which the interpreter calls, are exempt."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield path.stem, name


def test_every_function_and_method_has_a_user_in_the_package():
    uses = _package_uses()
    unused = [
        f"{module}.{name}"
        for module, name in _defined_functions()
        if name not in uses.used and name not in uses.attributes
    ]
    assert unused == []
