"""Spans and counters for the traced benchmark runs.

A traced child process calls ``install`` before it runs any fundgrowth code.
``install`` wraps public functions by swapping attributes of the fundgrowth
modules (and ``numpy.linalg.eigh``, to count eigendecompositions), so the
library itself is untouched.  Each wrapper records a span (id, parent, name,
start, end) and, where useful, counts.  Spans stay in memory; ``dump`` writes
them out together with the per-name totals when the child ends.

Untraced runs never import this module, so they carry no wrappers.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.counts: dict[str, float] = {}
        self.enabled = True
        self._stack = [0]          # span id 0 is the root
        self._next_id = 1

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` recording one span per call; ``on_result(result)``
        may add counts."""
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        index = self._name_index[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, index, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Return ``fn`` counting its calls, without a span (for hot paths)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost calls and their inclusive seconds.

        A span nested inside a span of the same name (``mse`` calling
        ``frobenius_objective``) adds to neither the call count nor the time.
        """
        by_id = {span[0]: span for span in self.spans}
        out: dict[str, dict[str, float]] = {}
        for span_id, parent, index, start, end in self.spans:
            entry = out.setdefault(self.names[index], {"calls": 0, "s": 0.0})
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != index:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                entry["calls"] += 1
                entry["s"] += end - start
        return out

    def dump(self, path: str) -> None:
        record = {
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "totals": self.totals(),
        }
        with open(path, "w") as handle:
            json.dump(record, handle)


def install(tracer: Tracer) -> None:
    """Wrap the fundgrowth public functions that the per-layer metrics need."""
    from fundgrowth import (backtest, cli, estimators, filtering, marketsim, psd, shrinkage,
                            svgchart)

    def swap(owner, attr, name, on_result=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    swap(cli, "cmd_simulate", "cli.simulate")
    swap(cli, "cmd_backtest", "cli.backtest")
    swap(cli, "cmd_report", "cli.report")

    def ingested(result):
        tracer.count("backtest.rows_read", result.rows_read)
        tracer.count("backtest.rows_dropped", result.rows_dropped)

    swap(backtest, "ingest_csv", "backtest.ingest", ingested)
    swap(backtest, "write_backtest_csv", "backtest.write_csv")
    swap(backtest, "read_backtest_csv", "backtest.read_csv")
    swap(svgchart, "line_chart", "svgchart.line_chart")
    swap(marketsim, "simulate_path", "marketsim.simulate_path",
         lambda result: tracer.count("marketsim.paths"))
    swap(filtering, "gaussian_posterior", "filtering.posterior")
    swap(filtering, "truncated_posterior_1d", "filtering.posterior")
    swap(psd.CovMatrix, "__init__", "psd.covmatrix")
    np.linalg.eigh = tracer.counter("psd.eigh_count", np.linalg.eigh)

    shrinkage.cardano_a = tracer.counter("shrinkage.cardano_calls", shrinkage.cardano_a)

    def solved(result):
        tracer.count("shrinkage.solve_b_calls")
        tracer.count("shrinkage.solve_b_iterations", result.iterations)

    swap(shrinkage, "solve_b", "shrinkage.solve_b", solved)
    swap(shrinkage, "shrink_portfolio", "shrinkage.shrink_portfolio")
    for attr in ("estimate_theta", "frobenius_objective", "mse", "dis",
                 "mc_distance_from_growth"):
        swap(estimators, attr, "estimators")

    run_backtest = backtest.run_backtest
    traced_run = tracer.wrap("backtest.engine", run_backtest)

    def split_run_backtest(series, config=None):
        """Time the engine on the burn-in prefix, then on the whole series.

        The prefix run covers the burn-in days plus the first displayed day;
        the difference to the full run is the post-burn-in cost.  Spans and
        counts are paused for the prefix so that they describe one backtest.
        """
        cfg = config or backtest.BacktestConfig()
        m = cfg.burn_in_days + 1
        if series.n > m:
            prefix = backtest.ReturnSeries(
                dates=series.dates[:m],
                fund_returns=series.fund_returns[:m],
                risk_free=series.risk_free[:m],
            )
            tracer.enabled = False
            try:
                start = time.perf_counter()
                run_backtest(prefix, cfg)
                prefix_s = time.perf_counter() - start
            finally:
                tracer.enabled = True
            start = time.perf_counter()
            result = traced_run(series, cfg)
            full_s = time.perf_counter() - start
            tracer.count("backtest.engine_burnin_s", prefix_s)
            tracer.count("backtest.engine_burnin_days", m)
            tracer.count("backtest.engine_post_s", full_s - prefix_s)
            tracer.count("backtest.engine_post_days", series.n - m)
            return result
        return traced_run(series, cfg)

    backtest.run_backtest = split_run_backtest
