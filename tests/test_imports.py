"""Every name a ``chshkit`` module imports is used in that module.

No linter runs on the package, so this reads each module's syntax tree: a
top-level ``import`` or ``from ... import`` binds names, and each must be
read somewhere in the module, as a name or as the base of an attribute.
A test that patches a module attribute does not count as a use.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "chshkit")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports at top level and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os, numpy.linalg\n"
              "from .linalg import a, b as c\n"
              "c(numpy.pi)\n")
    assert unused_imports(source) == ["os", "a"]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_names_it_uses(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
