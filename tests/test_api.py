"""The public library API holds nothing that only the tests use: every name
in ``detcalc.__all__`` is read by the package itself, outside its own
definition and ``__init__.py``, or by the README's library example."""

import ast
import re
from pathlib import Path

import detcalc

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "detcalc"


class _Uses(ast.NodeVisitor):
    """Names read in a module, outside the function or class that defines them."""

    def __init__(self):
        self.used = set()
        self.defining = []

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        if node.id not in self.defining:
            self.used.add(node.id)


def test_every_public_name_has_a_user():
    uses = _Uses()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            uses.visit(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    unused = [
        name
        for name in detcalc.__all__
        if name not in uses.used and not re.search(rf"\b{name}\b", example)
    ]
    assert unused == []
