"""README against the code: it names every config key, subcommand, output file
and exit code that the code has, and its end-to-end example runs on its two
config blocks."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from fundgrowth import backtest, cli, marketsim

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# what the chain writes: simulate, backtest, then report's table and its four panels
OUTPUTS = ["simulated.csv", "backtest.csv", "panels.csv", "portfolio.svg", "shrink_factor.svg",
           "wealth.svg", "quadratic_variation.svg"]


def fenced_blocks(language: str) -> list[str]:
    """The bodies of README's fenced code blocks of ``language``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def inline_code() -> set[str]:
    """The text of every inline code span outside the fenced blocks."""
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.MULTILINE | re.DOTALL)
    return set(re.findall(r"`([^`\n]+)`", prose))


def config_keys() -> set[str]:
    """The keys of the ``key = value`` lines of the config blocks, commented out or not."""
    return {match for block in fenced_blocks("ini")
            for match in re.findall(r"^#? *(\w+) *=", block, re.MULTILINE)}


def subcommands() -> list[str]:
    parser = cli.build_parser()
    return [name for action in parser._actions if isinstance(action, argparse._SubParsersAction)
            for name in action.choices]


@pytest.mark.parametrize("key", [*marketsim._SCENARIO_KINDS, *backtest._CONFIG_KINDS])
def test_every_config_key_is_named(key):
    assert key in inline_code() | config_keys()


@pytest.mark.parametrize("name", [*subcommands(), *OUTPUTS, "0", "1", "2"])
def test_every_subcommand_output_file_and_exit_code_is_named(name):
    assert name in inline_code()


def test_the_end_to_end_example_runs_on_the_config_blocks(tmp_path, monkeypatch, capsys):
    scenario_text, config_text = fenced_blocks("ini")
    scenario = marketsim.parse_scenario(scenario_text)
    config = backtest.parse_backtest_config(config_text)
    example = README.split("\n## End-to-end example\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", example, re.MULTILINE | re.DOTALL)[1]
    commands = [shlex.split(line)[1:] for line in block.splitlines()]
    assert [argv[0] for argv in commands] == ["simulate", "backtest", "report"]
    monkeypatch.chdir(tmp_path)
    for argv, text in zip(commands, [scenario_text, config_text, None]):
        if text is not None:
            Path(argv[argv.index("--config") + 1]).write_text(text, encoding="utf-8")
        assert cli.main(argv) == 0, capsys.readouterr().err
    out = Path(commands[-1][commands[-1].index("--out") + 1])
    lines = (out / "backtest.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) - 1 == scenario.steps - config.burn_in_days
    assert sorted(path.name for path in out.iterdir()) == sorted(OUTPUTS)
