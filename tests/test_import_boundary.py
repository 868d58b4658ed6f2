"""Module boundaries inside the package, read from the source: no module takes a
private name from a sibling, and only ``tableio`` knows how input text is decoded
and opens a file.  Importing the package imports none of its modules, each
subcommand and a Monte Carlo path import only the modules they run, and none of
them builds the float formatter's tables."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fundgrowth import cli, verify

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fundgrowth"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES}


def run_python(code: str, *argv: str, cwd=None) -> str:
    """The output of ``code`` run by a new interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


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
    assert run_python(code).splitlines() == ["False", "0 0 0 0", "1 1 1 1"]


def test_import_loads_no_module_and_no_numpy():
    code = ("import sys, fundgrowth\n"
            "print(sorted(m for m in sys.modules if m.startswith('fundgrowth.')), "
            "'numpy' in sys.modules)\n"
            "print(fundgrowth.psd.CovMatrix.__qualname__, 'fundgrowth.backtest' in sys.modules)\n"
            "print(hasattr(fundgrowth, 'no_such_module'))\n")
    assert run_python(code).splitlines() == ["[] False", "CovMatrix False", "False"]


# The package modules each subcommand loads, cli itself among them: floattext once
# a float is written, marketsim only to simulate, filtering only for a truncated
# posterior, and neither estimators nor verify to run the chain.
SIMULATE = {"cli", "errors", "floattext", "marketsim", "psd", "tableio"}
BACKTEST = {"backtest", "cli", "errors", "floattext", "psd", "shrinkage", "tableio"}
STAGE_MODULES = {"simulate": SIMULATE, "backtest": BACKTEST, "report": BACKTEST | {"svgchart"}}


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    (tmp_path / "scenario.cfg").write_text(
        "dim = 2\ncov_preset = us_one_fund\nnu = 1.0, 0.5\nsteps = 300\nseed = 5\n")
    (tmp_path / "bt.cfg").write_text("burn_in_days = 100\n")
    code = ("import json, sys\n"
            "from fundgrowth import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "modules = sorted(m[11:] for m in sys.modules if m.startswith('fundgrowth.'))\n"
            "print(json.dumps([code, 'statistics' in sys.modules, modules]))\n")
    stages = {"simulate": ["--config", "scenario.cfg"],
              "backtest": ["--input", "simulated.csv", "--config", "bt.cfg"],
              "report": ["--input", "backtest.csv"]}
    for stage, argv in stages.items():
        out = run_python(code, stage, *argv, "--out", ".", cwd=tmp_path)
        exit_code, statistics_loaded, modules = json.loads(out.splitlines()[-1])
        assert (exit_code, statistics_loaded) == (0, False), stage
        assert set(modules) == STAGE_MODULES[stage], stage


def test_a_monte_carlo_path_loads_no_text_io():
    # criterion 10's loop: simulate a K = 1 path and backtest it, reading and writing no text
    code = ("import datetime, sys\n"
            "from fundgrowth import backtest, marketsim, psd\n"
            "loaded = lambda: sorted(m[11:] for m in sys.modules if m.startswith('fundgrowth.'))\n"
            "days = tuple(datetime.date(2001, 1, 1) + datetime.timedelta(i) for i in range(60))\n"
            "path = marketsim.simulate_path([2.0], psd.CovMatrix([[0.03]]), "
            "marketsim.uniform_clock(60), 1)\n"
            "series = backtest.ReturnSeries(days, path.increments, [0.0] * 60)\n"
            "backtest.run_backtest(series, backtest.BacktestConfig(burn_in_days=30))\n"
            "print(*loaded())\n"
            "backtest.run_backtest(series, backtest.BacktestConfig(burn_in_days=30, "
            "truncation_l=0.0))\n"
            "print(*loaded())\n")
    path = {"backtest", "errors", "marketsim", "psd", "shrinkage"}
    assert [set(line.split()) for line in run_python(code).splitlines()] == [
        path, path | {"filtering"}]


def test_a_truncated_prior_draw_loads_no_filtering():
    # the normal CDF of the draw's tail mapping is marketsim's own: by rejection on (0, inf)
    # and through the inverse CDF on (9, inf)
    code = ("import sys\n"
            "from fundgrowth.marketsim import SimScenario, draw_prior\n"
            "for lower in (0.0, 9.0):\n"
            "    draw_prior(SimScenario(dim=1, cov_preset='identity', truncation_l=lower), 0)\n"
            "    print('fundgrowth.filtering' in sys.modules)\n")
    assert run_python(code).splitlines() == ["False", "False"]


def test_verify_help_names_every_check(capsys):
    assert cli.main(["verify", "--help"]) == 0
    assert set(verify.CHECKS) <= set(capsys.readouterr().out.replace(",", " ").split())
