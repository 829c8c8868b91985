"""Every name a ``photonlink`` module imports is used in it.

Each module is parsed with ``ast``; a name bound by an ``import`` that no
expression of the module reads fails the test.  ``from __future__``
imports bind nothing, and in ``__init__`` a name listed in ``__all__``
counts as used, since the package exports it.
"""

import ast
from pathlib import Path

import pytest

import photonlink

MODULES = sorted(Path(photonlink.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # import a.b binds a
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [ast.unparse(target) for target in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_name_left_behind_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "from . import __version__\n"
        "__all__ = ['__version__']\n"
        "def f(x: Sequence[int]) -> object:\n"
        "    return os.path.join(str(x))\n"
    )
    assert unused_imports(source) == ["Iterable", "np"]
