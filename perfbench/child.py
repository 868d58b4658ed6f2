"""Child processes of the benchmark: one operation each, in a fresh interpreter.

    python3 perfbench/child.py import
    python3 perfbench/child.py cli --trace-out T.json -- backtest --input ...
    python3 perfbench/child.py montecarlo --first-seed S --paths N --out R.json
    python3 perfbench/child.py verify --first-seed S --seeds M --out R.json

``import`` prints the time ``import fundgrowth`` takes.  ``cli`` runs one
``fundgrowth`` subcommand under the tracer (untraced CLI stages run
``python3 -m fundgrowth.cli`` directly instead).  ``montecarlo`` runs the
criterion-10 study and ``verify`` the default verify check set over
consecutive seeds; both write their data (``data``, hashed by the harness)
and timings (kept apart from the data) as JSON.  ``--trace-out`` installs the
tracer and writes its spans.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
import time

# Criterion-10 calibration: 18% annualised volatility, Sharpe ratio 0.4, on a
# trading-day clock.
US_LIKE_COV = 0.18 ** 2
US_LIKE_NU = 0.4 / 0.18
TRADING_DAY = 1.0 / 252.0


def _tracer(path):
    if path is None:
        return None
    import tracer
    t = tracer.Tracer()
    tracer.install(t)
    return t


def cmd_import(args) -> int:
    start = time.perf_counter()
    import fundgrowth  # noqa: F401
    print(json.dumps({"import_s": time.perf_counter() - start, "file": fundgrowth.__file__}))
    return 0


def cmd_cli(args) -> int:
    t = _tracer(args.trace_out)
    from fundgrowth import cli
    try:
        return cli.main(args.argv)
    finally:
        t.dump(args.trace_out)


def cmd_montecarlo(args) -> int:
    """Criterion 10: simulate a path, backtest it with K = 1, compare tracks."""
    t = _tracer(args.trace_out)
    import numpy as np
    from fundgrowth import backtest, marketsim, psd

    n, burn_in = args.days, args.burn_in
    cov = psd.CovMatrix([[US_LIKE_COV]])
    nu = np.array([US_LIKE_NU])
    clock = marketsim.uniform_clock(n, TRADING_DAY)
    start_day = datetime.date(1927, 7, 1)
    dates = tuple(start_day + datetime.timedelta(days=i) for i in range(n))
    zeros = np.zeros(n)
    config = backtest.BacktestConfig(burn_in_days=burn_in)

    rows = []
    start = time.perf_counter()
    for i in range(args.paths):
        path = marketsim.simulate_path(nu, cov, clock, args.first_seed + i)
        series = backtest.ReturnSeries(dates=dates, fund_returns=path.increments,
                                       risk_free=zeros)
        bt = backtest.run_backtest(series, config)
        a_post = bt.a[burn_in:]
        d_nuhat = np.diff(bt.log_wealth_nuhat[burn_in:])
        d_shrunk = np.diff(bt.log_wealth_shrunk[burn_in:])
        d_f = np.diff(bt.f_growth[burn_in:])
        rows.append([
            float(d_nuhat.var()), float(d_shrunk.var()),
            float(np.mean((d_nuhat - d_f) ** 2)), float(np.mean((d_shrunk - d_f) ** 2)),
            float(a_post.min()), float(a_post.max()), float(bt.nu_hat[-1, 0]),
        ])
    loop_s = time.perf_counter() - start
    if t is not None:
        t.dump(args.trace_out)
    _write(args.out, {"data": rows, "paths": args.paths, "loop_s": loop_s})
    return 0


def cmd_verify(args) -> int:
    """The default verify check set, one call per check, over consecutive seeds."""
    t = _tracer(args.trace_out)
    from fundgrowth import verify

    run = {name: verify.run_checks if t is None else t.wrap(f"verify.{name}", verify.run_checks)
           for name in verify.CHECKS}
    rows = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in verify.CHECKS:
            (result,) = run[name](names=[name], seed=seed, sabotage=args.sabotage)
            rows.append([seed, result.name, result.instances, float(result.max_violation),
                         float(result.tolerance), bool(result.passed)])
    if t is not None:
        t.dump(args.trace_out)
    _write(args.out, {"data": rows})
    return 0


def _write(path: str, record: dict) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("import").set_defaults(func=cmd_import)

    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--trace-out", required=True)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_cli.set_defaults(func=cmd_cli)

    p_mc = sub.add_parser("montecarlo")
    p_mc.add_argument("--first-seed", type=int, required=True)
    p_mc.add_argument("--paths", type=int, required=True)
    p_mc.add_argument("--days", type=int, required=True)
    p_mc.add_argument("--burn-in", type=int, required=True)
    p_mc.add_argument("--out", required=True)
    p_mc.add_argument("--trace-out", default=None)
    p_mc.set_defaults(func=cmd_montecarlo)

    p_ver = sub.add_parser("verify")
    p_ver.add_argument("--first-seed", type=int, required=True)
    p_ver.add_argument("--seeds", type=int, required=True)
    p_ver.add_argument("--sabotage", default=None)
    p_ver.add_argument("--out", required=True)
    p_ver.add_argument("--trace-out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
