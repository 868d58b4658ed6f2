"""Batch command line interface.

Subcommands
-----------
``simulate``   write a synthetic market path as a backtest-schema CSV
``verify``     run the randomised property sweeps and report a table
``backtest``   run the daily pipeline on a returns CSV
``report``     render a backtest output CSV into four SVG panels + CSV

``simulate`` seeds from ``--seed``, else from the scenario's ``seed`` key (default
0): the prior draw uses ``seed``, the path noise ``seed + 1`` and the residual drift
check ``seed + 2``.  ``verify`` seeds from ``--seed`` (default ``DEFAULT_SEED``) and
sweeps check ``i`` from ``seed + 1000 * i``.  ``backtest`` and ``report`` draw
nothing, so every subcommand is deterministic on identical inputs.  Exit codes: 0
success; 1 only a failed ``verify`` check; 2 any error that stops a subcommand:
usage, config, input/IO, or a library error such as ``NoConvergence``.  Each
subcommand imports the modules it runs when it runs, so no stage loads another's.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import FundgrowthError

DEFAULT_SEED = 43210


def non_negative_int(text: str) -> int:
    """``--seed`` values; numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


class _CheckNames(argparse.HelpFormatter):
    """Appends the names of ``verify``'s checks to the help of ``--checks``: only
    ``verify --help`` imports ``verify`` to build the parser."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.dest != "checks":
            return action.help
        from . import verify
        return f"{action.help} {', '.join(verify.CHECKS)}"


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

    p_ver = sub.add_parser("verify", help="run property sweeps", formatter_class=_CheckNames)
    p_ver.add_argument("--checks", default=None, help="comma list from:")
    p_ver.add_argument("--instances", type=int, default=None,
                       help="instances per check (default: each check's own count)")
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


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from . import marketsim, tableio
    scenario = marketsim.parse_scenario(tableio.read_text(args.config))
    seed = scenario.seed if args.seed is None else args.seed
    path = marketsim.run_scenario(scenario, seed=seed)

    fund = None
    if scenario.f is not None:
        fund = marketsim.build_fund_model(scenario.cov, scenario.f)

    out_csv = Path(args.out) / "simulated.csv"
    with tableio.replaced(out_csv) as handle:
        rows = marketsim.write_path_csv(path, handle, fund=fund)

    qv = path.realized_quadratic_covariation()
    expected = scenario.cov.entries * (scenario.dt * scenario.steps)     # the clock's last point
    rel_err = float(np.linalg.norm(qv - expected) / np.linalg.norm(expected))
    print(f"wrote {out_csv} rows={rows} dim={scenario.dim} seed={seed}")
    print(f"realized quadratic variation: relative error {rel_err:.3e} over {path.n_steps} steps")

    if fund is not None and scenario.drift_check_paths > 0:
        z_scores = marketsim.residual_drift_check(
            fund, fund.f @ scenario.theta, scenario.drift_check_paths, seed + 2, d_o=scenario.dt
        )
        max_z = float(np.abs(z_scores).max())
        print(
            f"residual drift: max |z| = {max_z:.2f} over {scenario.drift_check_paths} paths "
            f"({fund.funds} fund(s), {fund.assets} assets)"
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    names = (None if args.checks is None
             else [s.strip() for s in args.checks.split(",") if s.strip()])
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
    from . import backtest as bt
    from . import tableio
    config = bt.BacktestConfig()
    if args.config is not None:
        config = bt.parse_backtest_config(tableio.read_text(args.config))
    ingest = bt.ingest_csv(args.input, drop_policy=config.drop_policy)
    series = ingest.series
    bt.check_output_columns(series.k)   # before the engine runs

    out_csv = Path(args.out) / "backtest.csv"
    with tableio.replaced(out_csv) as handle:
        rows, last = bt.write_backtest_csv(bt.backtest_blocks(series, config), handle)
    print(f"read {ingest.rows_read} rows ({ingest.rows_dropped} dropped), "
          f"{series.k} fund(s); burn-in {config.burn_in_days} days")
    print(f"wrote {out_csv} rows={rows} final a={float(last.a[-1]):.4f} "
          f"floored_steps={last.floored_steps} rows_wiped_out={ingest.rows_wiped_out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from . import backtest as bt
    from . import svgchart, tableio
    from .errors import EmptyRange
    # panels.csv is written from each block's row texts as the input is read
    combined = Path(args.out) / "panels.csv"
    with tableio.replaced(combined) as handle:
        dates, k, table = bt.read_backtest_csv(args.input, handle)
        if not dates:
            raise EmptyRange(f"{args.input} has no data rows")
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
                                    [(name, column) for name, column in table.items()
                                     if name.startswith("c_")]),
    }
    for filename, (title, series) in panels.items():
        with tableio.replaced(combined.with_name(filename)) as handle:
            svgchart.line_chart(handle, title, dates, series)
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
    except (FundgrowthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
