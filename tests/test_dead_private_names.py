"""Every private module-level name of ``photonlink`` is read in the package.

Each module is parsed with ``ast``.  A name that starts with one underscore
and is bound at module level by a ``def``, a ``class`` or an assignment
must be read somewhere in the package: as a loaded name, as an attribute,
or through a ``from`` import.  A helper or constant left behind when its
last caller goes fails the test.
"""

import ast
from pathlib import Path

import photonlink

MODULES = sorted(Path(photonlink.__file__).parent.glob("*.py"))


def dead_private_names(sources):
    """The private module-level names that ``sources`` bind and none of them reads, sorted."""
    bound, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(name for name in bound - read if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read():
    assert dead_private_names(path.read_text(encoding="utf-8") for path in MODULES) == []


def test_a_name_left_behind_is_found():
    module = (
        "_LIMIT, _UNUSED = 10, 20\n"
        "_table: dict = {}\n"
        "__all__ = ['f']\n"
        "class _Gone:\n"
        "    pass\n"
        "def _helper(x):\n"
        "    return x < _LIMIT\n"
        "def _only_stored():\n"
        "    pass\n"
        "def f(obj):\n"
        "    obj._only_stored = 1\n"
        "    return _helper(obj)\n"
    )
    other = (
        "from .module import _table\n"
        "import module\n"
        "def g():\n"
        "    return module._shared, _table\n"
        "_shared = 1\n"
    )
    assert dead_private_names([module, other]) == ["_Gone", "_UNUSED", "_only_stored"]
