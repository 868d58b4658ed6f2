"""Batch command line interface.

Subcommands
-----------
``simulate``   write a synthetic market path as a backtest-schema CSV
``verify``     run the randomised property sweeps and report a table
``backtest``   run the daily pipeline on a returns CSV
``report``     render a backtest output CSV into four SVG panels + CSV

All randomness flows from a single ``--seed`` (default ``DEFAULT_SEED``);
per-task seeds are derived by documented offsets, so every subcommand is
deterministic and idempotent on identical inputs.  Exit codes: 0 success,
1 verify-check failure, 2 usage/config/IO errors.
"""

from __future__ import annotations

import argparse
import contextlib
import operator
import os
import sys
from collections import Counter
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from . import backtest as bt
from . import marketsim, svgchart, verify
from .errors import ConfigError, EmptyRange, FundgrowthError

DEFAULT_SEED = 43210


def non_negative_int(text: str) -> int:
    """``--seed`` values; numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundgrowth",
        description="Growth-optimal portfolio estimation in fund models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a market path to CSV")
    p_sim.add_argument("--config", required=True, help="scenario file (key = value)")
    p_sim.add_argument("--seed", type=non_negative_int, default=None,
                       help="override the scenario seed")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run property sweeps")
    p_ver.add_argument("--checks", default=None,
                       help=f"comma list from: {', '.join(verify.CHECKS)}")
    p_ver.add_argument("--instances", type=int, default=None)
    p_ver.add_argument("--seed", type=non_negative_int, default=DEFAULT_SEED,
                       help=f"sweep seed (default: {DEFAULT_SEED})")
    p_ver.add_argument("--sabotage", default=None, help="(test-only) force a check to fail")
    p_ver.set_defaults(func=cmd_verify)

    p_bt = sub.add_parser("backtest", help="run the daily pipeline on a CSV")
    p_bt.add_argument("--input", required=True, help="returns CSV (date,ret_1..ret_K,rf)")
    p_bt.add_argument("--config", default=None, help="backtest config file (key = value)")
    p_bt.add_argument("--out", required=True, help="output directory")
    p_bt.set_defaults(func=cmd_backtest)

    p_rep = sub.add_parser("report", help="render four SVG panels from a backtest CSV")
    p_rep.add_argument("--input", required=True, help="backtest output CSV")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(func=cmd_report)

    return parser


@contextlib.contextmanager
def replaced(path: Path) -> Iterator[IO[str]]:
    """A text handle on a sibling temporary file, which replaces ``path`` only
    once the block has written all of it; on an error it is removed."""
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", newline="") as handle:
            yield handle
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = marketsim.parse_scenario(Path(args.config).read_text())
    seed = scenario.seed if args.seed is None else args.seed
    path = marketsim.run_scenario(scenario, seed=seed)

    fund = None
    if scenario.f is not None:
        fund = marketsim.build_fund_model(scenario.cov, scenario.f)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = out_dir / "simulated.csv"
    with open(out_csv, "w", newline="") as handle:
        rows = marketsim.write_path_csv(path, handle, fund=fund)

    qv = path.realized_quadratic_covariation()
    horizon = float(path.times[-1] - path.times[0])
    expected = scenario.cov.entries * horizon
    rel_err = float(np.linalg.norm(qv - expected) / np.linalg.norm(expected))
    print(f"wrote {out_csv} rows={rows} dim={scenario.dim} seed={seed}")
    print(f"realized quadratic variation: relative error {rel_err:.3e} over {path.n_steps} steps")

    if fund is not None and scenario.drift_check_paths > 0:
        report = marketsim.residual_drift_check(
            fund, scenario.theta, scenario.drift_check_paths, seed + 2, d_o=scenario.dt
        )
        max_z = float(np.abs(report.z_scores).max())
        print(
            f"residual drift: max |z| = {max_z:.2f} over {report.n_paths} paths "
            f"({fund.funds} fund(s), {fund.assets} assets)"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = None if not args.checks else [s.strip() for s in args.checks.split(",") if s.strip()]
    if args.instances is not None and args.instances < 1:
        print(f"error: --instances must be at least 1, got {args.instances}", file=sys.stderr)
        return 2
    try:
        results = verify.run_checks(
            names=names, seed=args.seed, instances=args.instances, sabotage=args.sabotage
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results)
    print(f"{'check':<{width}}  {'instances':>9}  {'max violation':>14}  {'tolerance':>10}  status")
    failed = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {r.instances:>9}  {r.max_violation:>14.3e}  "
              f"{r.tolerance:>10.1e}  {status}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    config = bt.BacktestConfig()
    if args.config is not None:
        config = bt.parse_backtest_config(Path(args.config).read_text())
    ingest = bt.ingest_csv(args.input, drop_policy=config.drop_policy)
    series = ingest.series
    # c_{i}{j} names collide from K = 111 on: c_1111 is both (1, 111) and (11, 11)
    names = Counter(bt.output_columns(series.k))
    repeated = sorted(name for name, count in names.items() if count > 1)
    if repeated:
        raise ConfigError(f"{series.k} funds give repeated output column names {repeated}; "
                          f"backtest takes at most 110 funds")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = out_dir / "backtest.csv"
    with replaced(out_csv) as handle:
        rows, last = bt.write_backtest_csv(bt.backtest_blocks(series, config), handle)
    print(f"read {ingest.rows_read} rows ({ingest.rows_dropped} dropped), "
          f"{series.k} fund(s); burn-in {config.burn_in_days} days")
    print(f"wrote {out_csv} rows={rows} final a={float(last.a[-1]):.4f} "
          f"floored_steps={last.floored_steps}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    table = bt.read_backtest_csv(args.input)
    if len(table["dates"]) == 0:
        raise EmptyRange(f"{args.input} has no data rows")
    k = table["k"]
    shrunk = [f"shrunk_{j}" for j in range(1, k + 1)]
    table.update({name: table["a"] * table[f"nu_hat_{j}"] for j, name in enumerate(shrunk, 1)})
    c_names = sorted(name for name in table if name.startswith("c_"))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # panels.csv copies the input's cell text and formats only the shrunk columns;
    # it goes first, so that the row texts are freed before the SVGs are drawn
    combined = out_dir / "panels.csv"
    names = ["date"] + [f"nu_hat_{j}" for j in range(1, k + 1)] + shrunk
    names += ["a", "logW_market", "logW_nuhat", "logW_shrunk", "F"] + c_names
    position = {name: i for i, name in enumerate(table["header"] + shrunk)}
    pick = operator.itemgetter(*[position[name] for name in names])
    line = ",".join("%r" if name in shrunk else "%s" for name in names) + "\n"
    lines, shrunk_rows = table.pop("lines"), np.column_stack([table[n] for n in shrunk])
    with replaced(combined) as handle:
        marketsim.write_rows(handle, names, marketsim.row_blocks(len(lines), lambda rows: [
            line % pick(text.split(",") + extra)
            for text, extra in zip(lines[rows], shrunk_rows[rows].tolist())]))
    del lines

    panels = {
        "portfolio.svg": ("Filtered growth-optimal portfolio and its shrunk version",
                          [(name, table[name]) for j in range(1, k + 1)
                           for name in (f"nu_hat_{j}", f"shrunk_{j}")]),
        "shrink_factor.svg": ("Uniform shrink factor a", [("a", table["a"])]),
        "wealth.svg": ("Log wealth (excess of risk-free) and achievable growth F",
                       [("market", table["logW_market"]),
                        ("nu_hat", table["logW_nuhat"]),
                        ("shrunk", table["logW_shrunk"]),
                        ("F", table["F"])]),
        "quadratic_variation.svg": ("Cumulative quadratic variation C",
                                    [(name, table[name]) for name in c_names]),
    }
    for filename, (title, series) in panels.items():
        with replaced(out_dir / filename) as handle:
            svgchart.line_chart(handle, title, table["dates"], series)
    print(f"wrote {len(panels)} panels + {combined}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except FundgrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
