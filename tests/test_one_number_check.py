"""No ``photonlink`` module checks a number by hand.

``noise._checked`` is the one check that a number is finite and at least
(or above) a bound, and the one place that reads -0.0 as 0.0.  Each module
is parsed with ``ast``; outside that function, a ``raise`` whose message
holds ``must be finite and``, or an addition of the constant 0.0, fails
the test.
"""

import ast
from pathlib import Path

import pytest

import photonlink

MODULES = sorted(Path(photonlink.__file__).parent.glob("*.py"))
PHRASE = "must be finite and"


def is_zero(node):
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 0.0


def hand_written_checks(source, module):
    """Line numbers of the hand-written checks and ``+ 0.0`` copies in
    ``source``, the text of the module named ``module``, sorted."""
    tree = ast.parse(source)
    allowed = set()
    if module == "noise":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "_checked":
                allowed.update(map(id, ast.walk(node)))
    found = set()
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Raise) and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str) and PHRASE in part.value
            for part in ast.walk(node)
        ):
            found.add(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if is_zero(node.left) or is_zero(node.right):
                found.add(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and is_zero(node.value):
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_numbers_are_checked_by_noise_checked(path):
    assert hand_written_checks(path.read_text(encoding="utf-8"), path.stem) == []


def test_a_hand_written_check_is_found():
    source = (
        "def _checked(name, value):\n"
        "    if value < 0:\n"
        "        raise ValueError(f'{name} must be finite and >= 0, got {value!r}')\n"
        "    return value + 0.0\n"
        "def f(x, y):\n"
        "    if x < 0:\n"
        "        raise ValueError(f'x must be finite and >= 0, got {x!r}')\n"
        "    y += 0.0\n"
        "    return 0.0 + x, x + 0, x - 0.0\n"
    )
    assert hand_written_checks(source, "capacity") == [3, 4, 7, 8, 9]
    assert hand_written_checks(source, "noise") == [7, 8, 9]
