"""Module boundaries inside the package, read from the source: no module takes a
private name from a sibling, and only ``tableio`` knows how input text is decoded
and opens a file."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fundgrowth"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES}


def sibling_of(node: ast.ImportFrom):
    """The sibling module an ``import from`` takes names from, or None."""
    if node.level == 1:
        return node.module      # None for ``from . import x``, which imports modules
    if node.level == 0 and (node.module or "").startswith("fundgrowth."):
        return node.module.split(".", 1)[1]
    return None


def private_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and sibling_of(node) in SIBLINGS:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def input_text_uses(tree: ast.AST) -> list[int]:
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id == "INPUT_TEXT"
                   or isinstance(node, ast.Attribute) and node.attr == "INPUT_TEXT"
                   or isinstance(node, ast.alias) and node.name == "INPUT_TEXT"})


def open_calls(tree: ast.AST) -> list[int]:
    """Lines that call ``open``, as a name (``open``, ``io.open``) or a method (``Path.open``)."""
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and (isinstance(node.func, ast.Name) and node.func.id == "open"
                        or isinstance(node.func, ast.Attribute) and node.func.attr == "open")})


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_private_name_from_a_sibling(path):
    assert private_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "tableio"],
                         ids=[p.name for p in MODULES if p.stem != "tableio"])
def test_only_tableio_names_the_input_encoding(path):
    assert input_text_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "tableio"],
                         ids=[p.name for p in MODULES if p.stem != "tableio"])
def test_only_tableio_opens_a_file(path):
    assert open_calls(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_guards_see_what_they_look_for():
    tree = ast.parse("from .marketsim import _parse_matrix, read_table\n"
                     "from fundgrowth.psd import _x\n"
                     "from __future__ import annotations\n"
                     "open(p, **tableio.INPUT_TEXT)\n")
    assert private_imports(tree) == ["marketsim._parse_matrix", "fundgrowth.psd._x"]
    assert input_text_uses(tree) == [4]
    assert input_text_uses(ast.parse("from .tableio import INPUT_TEXT\n")) == [1]
    assert open_calls(tree) == [4]
    assert open_calls(ast.parse("with Path(p).open('w') as f:\n    f.write(open)\n")) == [1]
