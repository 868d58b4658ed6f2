"""Module boundaries inside the package, read from the source: no module takes a
private name from a sibling, and only ``tableio`` knows how input text is decoded
and opens a file.  Importing the package neither imports the float formatter
nor builds its tables."""

import ast
import os
import subprocess
import sys
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


def test_import_builds_no_formatter_table():
    # import time is every subcommand's start-up: tableio imports the formatter when it
    # first writes a float, and the formatter builds its tables on first use
    code = ("import sys, fundgrowth, fundgrowth.cli\n"
            "print('fundgrowth.floattext' in sys.modules)\n"
            "from fundgrowth import floattext as f\n"
            "tables = f._powers, f._exponent_rows, f._layouts, f._digit_words\n"
            "print(*(table.cache_info().currsize for table in tables))\n"
            "[*f.float_lines(f.np.ones((1, 1)))]\n"
            "print(*(table.cache_info().currsize for table in tables))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.splitlines() == ["False", "0 0 0 0", "1 1 1 1"]
