"""No module of tespect uses a leading-underscore name of another one."""

import ast
from pathlib import Path

import tespect

PACKAGE = Path(tespect.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """``from .x import _y`` and reads of ``x._y`` where x names a tespect module."""
    tree = ast.parse(source)
    bound, found = set(), []  # the local names of tespect modules; the uses found
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "tespect"):
            package = node.module is None if node.level else node.module == "tespect"
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif package:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tespect":
                    bound.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and ast.unparse(node.value) in bound:
            found.append(ast.unparse(node))
    return found


def test_the_checker_finds_each_form():
    source = (
        "from __future__ import annotations\n"
        "from . import __version__, densela, model as m\n"
        "import tespect.assembly as asm\n"
        "import tespect.counting\n"
        "from .model import _EPS, PotentialSpec\n"
        "from tespect.oracles import _bisect\n"
        "x = densela._hidden(m._y, asm._z, tespect.counting._w, densela.public, m.__doc__)\n"
    )
    assert sorted(private_uses(source)) == sorted(
        ["from .model import _EPS", "from tespect.oracles import _bisect", "densela._hidden", "m._y", "asm._z", "tespect.counting._w"]
    )


def test_no_module_reads_another_modules_private_names():
    found = {path.name: private_uses(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
