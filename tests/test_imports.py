"""Every name a ``chshkit`` module imports is used in that module, and every
public function or class it defines is reached.

No linter runs on the package, so this reads each module's syntax tree: a
top-level ``import`` or ``from ... import`` binds names, and each must be
read somewhere in the module, as a name or as the base of an attribute.
A test that patches a module attribute does not count as a use.  A
top-level ``def`` or ``class`` whose name has no leading ``_`` must be read
by some ``chshkit`` module or exported by ``chshkit.__all__``, unless
``UNREACHED`` says why it stays.  No module imports a ``_``-prefixed name
from another, unless ``PRIVATE_IMPORTS`` says why it does, and each
module's relative imports are the ones ``MODULE_GRAPH`` lists.
"""

import ast
import os

import pytest

import chshkit

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


#: Public names no ``chshkit`` module reads and ``chshkit.__all__`` does not
#: export, each with the reason it stays.
UNREACHED = {
    "basis_state": "configuration-basis states; the README's integer rule names its checks",
    "haar_unitary": "Haar inputs for the README's dilate limits table and the dilation tests",
    "spectral_norm": "the operator-norm side of the Tsirelson acceptance check",
    "random_setup": "one restart's random start, the building block of the optimizer and box oracles",
    "product_joint": "a non-interacting joint for the causal-influence acceptance check",
    "swap_joint": "an interacting joint for the causal-influence acceptance check",
    "one_way_copy_joint": "a one-way-influence joint for the causal-influence acceptance check",
    "correlated_noise_joint": "correlated but non-interacting joint for the causal-influence acceptance check",
    "score_from_loss_terms": "one of the three score formulas kept as cross-checks",
    "score_from_correlators": "one of the three score formulas kept as cross-checks",
}


def unreached_names(sources: list[str], exported: set[str]) -> list[str]:
    """The public top-level functions and classes ``sources`` define that no
    source reads, as a name or an attribute, and ``exported`` leaves out."""
    trees = [ast.parse(source) for source in sources]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return [node.name for tree in trees for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read | exported]


def test_unreached_names_flags_only_public_names_nothing_reads():
    sources = ["def used(): pass\ndef exported(): pass\nclass Lone: pass\ndef _private(): pass\n",
               "import m\nm.used\ndef lone(): pass\n"]
    assert unreached_names(sources, {"exported"}) == ["Lone", "lone"]


def test_every_public_name_is_read_exported_or_allowed():
    sources = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            sources.append(fh.read())
    assert sorted(unreached_names(sources, set(chshkit.__all__))) == sorted(UNREACHED)


#: ``(importing module, source module, name)`` of each ``_``-prefixed name one
#: ``chshkit`` module imports from another, with the reason it stays.
PRIVATE_IMPORTS = {}


def private_imports(source: str) -> list[tuple[str, str]]:
    """``(source module, name)`` of each ``_``-prefixed name that ``source``
    imports by a relative import, at top level or inside a function."""
    return [(node.module or "", alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_private_imports_flags_only_relative_underscore_names():
    source = ("from ._x import a\n"
              "from .linalg import _k, b as _c, d\n"
              "from os import _exit\n"
              "def f():\n"
              "    from .game import _score\n")
    assert private_imports(source) == [("linalg", "_k"), ("game", "_score")]


def test_no_module_imports_a_private_name_from_another_unless_allowed():
    found = []
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            found += [(module[:-3], *pair) for pair in private_imports(fh.read())]
    assert sorted(found) == sorted(PRIVATE_IMPORTS)


#: The ``chshkit`` modules each module imports by a relative import, at top
#: level or inside a function.  A new edge is a declared edit here.
MODULE_GRAPH = {
    "__init__": [],
    "__main__": ["cli"],
    "causality": ["linalg", "stochastic"],
    "cli": ["configio", "game", "linalg", "stochastic", "tsirelson"],
    "configio": ["game", "tsirelson"],
    "game": ["linalg", "tsirelson"],
    "linalg": [],
    "stochastic": ["linalg"],
    "tsirelson": ["linalg"],
}


def relative_imports(source: str) -> list[str]:
    """The sibling modules ``source`` imports by a relative import, sorted."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return sorted(found)


def test_relative_imports_reads_both_import_forms():
    source = ("from . import game, stochastic\n"
              "from .linalg import a, b\n"
              "from os import path\n"
              "def f():\n"
              "    from .cli import main\n")
    assert relative_imports(source) == ["cli", "game", "linalg", "stochastic"]


def test_each_module_imports_exactly_its_pinned_modules():
    graph = {}
    for module in MODULES:
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            graph[module[:-3]] = relative_imports(fh.read())
    assert graph == MODULE_GRAPH
