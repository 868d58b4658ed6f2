"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload runs one closed-loop operation at a time in child processes:

``pipeline_k3`` / ``pipeline_k10``
    ``fundgrowth simulate -> backtest -> report`` as three subprocesses on a
    93-year daily sample (23,558 days, burn-in 7,500) of K correlated funds.
``montecarlo_k1``
    The criterion-10 study in one child process: per path a market path from
    ``marketsim.simulate_path``, ``run_backtest`` with K = 1, and the
    variance / tracking-error comparison of the shrunk and filtered tracks.
``verify_sweep``
    The default ``verify`` check set over consecutive seeds in one child.

An operation returns an ``Op``: its wall time, its child processes, the
failures its output checks found, the sha256 of its data outputs and the
per-layer values it measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# A child that runs longer than this is killed and its operation fails.
CHILD_TIMEOUT_S = 150.0
# Final nu_hat against the independent numpy C^{-1} R: the engine sums C day
# by day while numpy sums in blocks, so only the last few ulps may differ.
NU_HAT_RTOL = 1e-8
# Criterion 10: shares of paths on which the shrunk track wins.
LOWER_VARIANCE_SHARE = 0.95
LOWER_TRACKING_SHARE = 0.90

SVG_PANELS = ("portfolio.svg", "shrink_factor.svg", "wealth.svg", "quadratic_variation.svg")
VERIFY_CHECKS = ("frobenius_min", "mse_min", "error_reduction", "shrink_fixed_point",
                 "shrink_identity", "dis_fund_law", "growth_loss_identity", "cardano")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Children import fundgrowth from this checkout, BLAS capped at the CPUs
    the harness may use (one, once it is pinned)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_THREAD_VARS:
        env[var] = str(nproc())
    return env


@dataclass
class Child:
    rc: int
    start: float
    wall_s: float
    rss_mb: float


def run_child(argv: list, log: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; its own ``ru_maxrss`` comes from wait4."""
    start = time.perf_counter()
    with open(log, "ab") as out:
        proc = subprocess.Popen([sys.executable, *map(str, argv)], cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, time.perf_counter() - start, usage.ru_maxrss / 1024.0)


@dataclass
class Op:
    traced: bool
    start: float = 0.0
    wall_s: float = 0.0
    # Mean calibration-loop time while the operation ran (see cpuspeed.py).
    loop_s: float = 0.0
    children: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def trace_layers(paths: list) -> dict:
    """Per-layer values of one traced operation from its children's traces."""
    totals: dict = {}
    counts: dict = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        for name, entry in record["totals"].items():
            into = totals.setdefault(name, {"calls": 0, "s": 0.0})
            into["calls"] += entry["calls"]
            into["s"] += entry["s"]
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def seconds(name):
        return totals.get(name, {}).get("s", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def per_day_us(prefix):
        days = counts.get(f"{prefix}_days", 0)
        return 1e6 * counts[f"{prefix}_s"] / days if days else 0.0

    ingest_s = seconds("backtest.ingest")
    layers = {
        "backtest.engine_burnin_us_per_day": per_day_us("backtest.engine_burnin"),
        "backtest.engine_post_us_per_day": per_day_us("backtest.engine_post"),
        "filtering.posterior_s": seconds("filtering.posterior"),
        "psd.covmatrix_s": seconds("psd.covmatrix"),
        "psd.covmatrix_count": calls("psd.covmatrix"),
        "psd.eigh_count": counts.get("psd.eigh_count", 0),
        "marketsim.simulate_path_s": seconds("marketsim.simulate_path"),
        "marketsim.paths": counts.get("marketsim.paths", 0),
        "backtest.ingest_s": ingest_s,
        "backtest.ingest_rows_per_s":
            counts.get("backtest.rows_read", 0) / ingest_s if ingest_s else 0.0,
        "backtest.rows_dropped": counts.get("backtest.rows_dropped", 0),
        "backtest.write_csv_s": seconds("backtest.write_csv"),
        "backtest.read_csv_s": seconds("backtest.read_csv"),
        "svgchart.line_chart_s": seconds("svgchart.line_chart"),
        "shrinkage.cardano_calls": counts.get("shrinkage.cardano_calls", 0),
        "shrinkage.solve_b_calls": counts.get("shrinkage.solve_b_calls", 0),
        "shrinkage.solve_b_iterations": counts.get("shrinkage.solve_b_iterations", 0),
        "estimators.calls": calls("estimators"),
        "estimators.s": seconds("estimators"),
    }
    for check in VERIFY_CHECKS:
        layers[f"verify.{check}_s"] = seconds(f"verify.{check}")
    return layers


# ---------------------------------------------------------------------------
# pipeline_k3 / pipeline_k10
# ---------------------------------------------------------------------------

def scenario_text(k: int, days: int, seed: int) -> str:
    """K funds at 18% annualised volatility, pairwise correlation 0.5; the
    growth-optimal portfolio is drawn from a prior around a total weight 1.5."""
    var = 0.18 ** 2
    cov = [[var if i == j else 0.5 * var for j in range(k)] for i in range(k)]
    prior_cov = [[0.1 if i == j else 0.0 for j in range(k)] for i in range(k)]

    def matrix(m):
        return "; ".join(", ".join(repr(v) for v in row) for row in m)

    return (
        f"dim = {k}\n"
        f"cov = {matrix(cov)}\n"
        f"prior_mean = {', '.join([repr(1.5 / k)] * k)}\n"
        f"prior_cov = {matrix(prior_cov)}\n"
        f"steps = {days}\n"
        f"seed = {seed}\n"
    )


def check_pipeline(out: Path, k: int, days: int, burn_in: int) -> list:
    """Output checks of one simulate -> backtest -> report chain."""
    failures = []
    try:
        sim = np.loadtxt(out / "simulated.csv", delimiter=",", skiprows=1,
                         usecols=range(1, k + 2), ndmin=2)
        with open(out / "backtest.csv") as handle:
            header = handle.readline().strip().split(",")
        table = np.loadtxt(out / "backtest.csv", delimiter=",", skiprows=1,
                           usecols=range(1, len(header)), ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    col = {name: i - 1 for i, name in enumerate(header)}

    if table.shape[0] != days - burn_in:
        failures.append(f"backtest.csv has {table.shape[0]} rows, expected {days - burn_in}")
    if not np.all(np.isfinite(table)):
        failures.append("backtest.csv has non-finite values")
    a = table[:, col["a"]] if "a" in col else np.array([np.nan])
    if not np.all((a >= 0.0) & (a <= 1.0)):
        failures.append("shrink factor a outside [0, 1]")

    x = sim[:, :k] - sim[:, k:]
    try:
        oracle = np.linalg.solve(x.T @ x, x.sum(axis=0))
        nu_hat = table[-1, [col[f"nu_hat_{j + 1}"] for j in range(k)]]
        rel = float(np.linalg.norm(nu_hat - oracle) / np.linalg.norm(oracle))
    except (KeyError, IndexError, np.linalg.LinAlgError):
        rel = np.inf
    if not rel <= NU_HAT_RTOL:
        failures.append(f"final nu_hat differs from numpy C^-1 R by {rel:.3e} (relative)")

    for name in SVG_PANELS:
        try:
            ET.parse(out / name)
        except (OSError, ET.ParseError) as exc:
            failures.append(f"{name} does not parse as XML: {exc}")
    return failures


class Pipeline:
    stages = ("simulate", "backtest", "report")

    def __init__(self, name: str, k: int, days: int = 23_558, burn_in: int = 7_500):
        self.name, self.k, self.days, self.burn_in = name, k, days, burn_in

    @property
    def signature(self) -> str:
        return f"k={self.k},days={self.days},burn_in={self.burn_in}"

    def prepare(self, seed: int, work: Path) -> None:
        (work / "scenario.cfg").write_text(scenario_text(self.k, self.days, seed))
        (work / "bt.cfg").write_text(f"burn_in_days = {self.burn_in}\n")

    def stage_argv(self, stage: str, work: Path) -> list:
        out = work / "out"
        return {
            "simulate": ["simulate", "--config", work / "scenario.cfg", "--out", out],
            "backtest": ["backtest", "--input", out / "simulated.csv",
                         "--config", work / "bt.cfg", "--out", out],
            "report": ["report", "--input", out / "backtest.csv", "--out", out],
        }[stage]

    def run(self, work: Path, traced: bool) -> Op:
        out = work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        op = Op(traced, start=time.perf_counter())
        traces = []
        for stage in self.stages:
            argv = self.stage_argv(stage, work)
            if traced:
                traces.append(work / f"trace_{stage}.json")
                argv = [CHILD, "cli", "--trace-out", traces[-1], "--", *argv]
            else:
                argv = ["-m", "fundgrowth.cli", *argv]
            child = run_child(argv, work / "log.txt")
            op.children.append(child)
            if child.rc != 0:
                op.failures.append(f"fundgrowth {stage} exited with {child.rc}")
                break
            stage_key = "backtest_s" if stage == "backtest" else f"cli.{stage}_s"
            if not traced:
                op.layers[stage_key] = child.wall_s
                op.layers[f"cli.{stage}_rss_mb"] = child.rss_mb
        op.wall_s = time.perf_counter() - op.start
        if op.failures:
            return op

        op.failures += check_pipeline(out, self.k, self.days, self.burn_in)
        outputs = ["simulated.csv", "backtest.csv", "panels.csv", *SVG_PANELS]
        for name in outputs:
            if (out / name).exists():
                op.hashes[name] = sha256_file(out / name)
            else:
                op.failures.append(f"{name} missing")
        op.layers["backtest.csv_bytes"] = (out / "backtest.csv").stat().st_size
        op.layers["svgchart.svg_bytes"] = sum((out / n).stat().st_size for n in SVG_PANELS
                                              if (out / n).exists())
        if traced:
            op.layers.update(trace_layers(traces))
        return op


# ---------------------------------------------------------------------------
# montecarlo_k1 and verify_sweep: one child process per operation
# ---------------------------------------------------------------------------

class _OneChild:
    def prepare(self, seed: int, work: Path) -> None:
        self.seed = seed

    def child_argv(self, result: Path) -> list:
        raise NotImplementedError

    def check(self, record: dict) -> list:
        raise NotImplementedError

    def run(self, work: Path, traced: bool) -> Op:
        result, trace = work / "result.json", work / "trace.json"
        for path in (result, trace):
            path.unlink(missing_ok=True)
        argv = self.child_argv(result)
        if traced:
            argv += ["--trace-out", trace]
        op = Op(traced)
        child = run_child(argv, work / "log.txt")
        op.children.append(child)
        op.start, op.wall_s = child.start, child.wall_s
        if child.rc != 0:
            op.failures.append(f"{self.name} child exited with {child.rc}")
            return op
        record = json.loads(result.read_text())
        op.failures += self.check(record)
        op.hashes["data"] = sha256_json(record["data"])
        if traced:
            op.layers.update(trace_layers([trace]))
        else:
            op.layers.update(self.untraced_layers(record))
        return op

    def untraced_layers(self, record: dict) -> dict:
        return {}


class MonteCarlo(_OneChild):
    def __init__(self, name: str, paths: int = 60, days: int = 8_256, burn_in: int = 7_500):
        self.name, self.paths, self.days, self.burn_in = name, paths, days, burn_in

    @property
    def signature(self) -> str:
        return f"paths={self.paths},days={self.days},burn_in={self.burn_in}"

    def child_argv(self, result: Path) -> list:
        return [CHILD, "montecarlo", "--first-seed", 1000 * self.seed, "--paths", self.paths,
                "--days", self.days, "--burn-in", self.burn_in, "--out", result]

    def check(self, record: dict) -> list:
        rows = np.array(record["data"], dtype=float).reshape(-1, 7)
        failures = []
        if rows.shape[0] != self.paths:
            failures.append(f"{rows.shape[0]} paths reported, expected {self.paths}")
        lower_var = int(np.sum(rows[:, 1] < rows[:, 0]))
        lower_te = int(np.sum(rows[:, 3] < rows[:, 2]))
        if lower_var < LOWER_VARIANCE_SHARE * self.paths:
            failures.append(f"variance lower on only {lower_var}/{self.paths} paths")
        if lower_te < LOWER_TRACKING_SHARE * self.paths:
            failures.append(f"tracking error lower on only {lower_te}/{self.paths} paths")
        if not (np.all(rows[:, 4] >= 0.0) and np.all(rows[:, 5] <= 1.0)):
            failures.append("shrink factor a outside [0, 1]")
        if not np.all(np.isfinite(rows)):
            failures.append("non-finite path statistics")
        return failures

    def untraced_layers(self, record: dict) -> dict:
        return {"paths_per_s": record["paths"] / record["loop_s"]}


class VerifySweep(_OneChild):
    def __init__(self, name: str, seeds: int = 8, sabotage: str | None = None):
        self.name, self.seeds, self.sabotage = name, seeds, sabotage

    @property
    def signature(self) -> str:
        return f"seeds={self.seeds}"

    def child_argv(self, result: Path) -> list:
        argv = [CHILD, "verify", "--first-seed", self.seeds * self.seed, "--seeds", self.seeds,
                "--out", result]
        if self.sabotage:
            argv += ["--sabotage", self.sabotage]
        return argv

    def check(self, record: dict) -> list:
        rows = record["data"]
        failures = [f"verify {name} failed on seed {seed}: {violation:.3e} > {tol:.1e}"
                    for seed, name, _, violation, tol, passed in rows if not passed]
        expected = self.seeds * len(VERIFY_CHECKS)
        if len(rows) != expected:
            failures.append(f"{len(rows)} verify results, expected {expected}")
        return failures


def make_workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads; ``tiny`` shrinks them for the self-test."""
    if tiny:
        workloads = [
            Pipeline("pipeline_k3", 3, days=600, burn_in=300),
            Pipeline("pipeline_k10", 10, days=400, burn_in=200),
            MonteCarlo("montecarlo_k1", paths=5, days=600, burn_in=300),
            VerifySweep("verify_sweep", seeds=1),
        ]
    else:
        workloads = [
            Pipeline("pipeline_k3", 3),
            Pipeline("pipeline_k10", 10),
            MonteCarlo("montecarlo_k1"),
            VerifySweep("verify_sweep"),
        ]
    return {w.name: w for w in workloads}
