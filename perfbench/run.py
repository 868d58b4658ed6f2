"""fundgrowth benchmark harness.

One workload, as the command in ``BENCHMARK.json`` runs it (from the repository root):

    python3 perfbench/run.py --workload pipeline_k3 --seed 1 --seconds 10 --trace 0

prints the run's lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every workload, untraced and traced, with a table of every
metric (unit and sample count) written to a results file:

    python3 perfbench/run.py --all [--seed 1]       # writes .perfbench/results.json

The self-test (tiny sizes; shows that the output checks catch a corrupted
``backtest.csv`` and a sabotaged verify run):

    python3 perfbench/run.py --self-test

Operations run closed-loop, one at a time, until ``--seconds`` have passed,
with the harness and its children pinned to one CPU whose speed a sampler
thread measures meanwhile (``cpuspeed.py``).  Untraced runs install no
wrappers.  A traced run alternates untraced and traced operations; the
per-layer metrics come from the traced ones (and, for subprocess wall times,
memory and throughput, from the untraced ones), and ``trace.overhead_s`` is
the difference of the two median calibrated wall times.

The fundgrowth package is imported from ``src/`` of this checkout, in child
processes only.  Working files go to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import cpuspeed
from workloads import (BLAS_THREAD_VARS, CHILD, ROOT, SRC, VERIFY_CHECKS, child_env,
                       make_workloads, nproc)

WORK = ROOT / ".perfbench"
SETUP_REPEATS = 9

# Every metric the harness measures, with its unit.  BENCHMARK.json lists the
# ones compared between commits; the human-readable lines show them all.
END_TO_END = {"wall_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "wall_s": "s",
    "cpu.loop_ms": "ms",
    "backtest_s": "s",
    "paths_per_s": "1/s",
    "failed_ratio": "ratio",
    "backtest.engine_post_us_per_day": "us",
    "backtest.engine_burnin_us_per_day": "us",
    "filtering.posterior_s": "s",
    "psd.covmatrix_s": "s",
    "psd.covmatrix_count": "count",
    "psd.eigh_count": "count",
    "marketsim.simulate_path_s": "s",
    "marketsim.paths": "count",
    "backtest.ingest_s": "s",
    "backtest.ingest_rows_per_s": "rows/s",
    "backtest.rows_dropped": "count",
    "backtest.write_csv_s": "s",
    "backtest.csv_bytes": "bytes",
    "backtest.read_csv_s": "s",
    "svgchart.line_chart_s": "s",
    "svgchart.svg_bytes": "bytes",
    "cli.simulate_s": "s",
    "cli.report_s": "s",
    "cli.simulate_rss_mb": "MB",
    "cli.backtest_rss_mb": "MB",
    "cli.report_rss_mb": "MB",
    "shrinkage.cardano_calls": "count",
    "shrinkage.solve_b_calls": "count",
    "shrinkage.solve_b_iterations": "count",
    "estimators.calls": "count",
    "estimators.s": "s",
    **{f"verify.{check}_s": "s" for check in VERIFY_CHECKS},
    "trace.overhead_s": "s",
}
# Stop starting operations once a run has used this much time.
RUN_BUDGET_S = 120.0


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad BENCHMARK.json)."""


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        contract = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    for key, known in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for spec in contract[key]:
            if known.get(spec["name"]) != spec["unit"]:
                raise BenchError(f"{path}: {spec['name']} [{spec['unit']}] is not measured")
    return contract


def source_digest() -> str:
    """sha256 over the package sources: the key of the determinism record."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fundgrowth").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(cpu: int) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = "unknown"
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu": model,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {var: nproc() for var in BLAS_THREAD_VARS},
        "not_measured": [
            "cold file cache: caches are never dropped, so every read hits a warm page cache",
            "machine-wide tracing: only the benchmark's own processes are timed and traced",
        ],
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Seconds to ``import fundgrowth`` in fresh interpreters, after one warm-up."""
    times = []
    for attempt in range(repeats + 1):
        proc = subprocess.run([sys.executable, str(CHILD), "import"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import fundgrowth failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        if not Path(record["file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"fundgrowth imported from {record['file']}, not {SRC}")
        if attempt:
            times.append(record["import_s"])
    return times


def check_determinism(workload, seed: int, ops: list,
                      record_path: Path = WORK / "hashes.json") -> None:
    """Every operation of one run, and every earlier run of the same sources,
    seed and sizes, must produce the same output hashes."""
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        record = {}
    key = f"{workload.name}|seed={seed}|{workload.signature}|src={source_digest()}"
    reference = record.get(key)
    for op in ops:
        if op.failures or not op.hashes:
            continue
        if reference is None:
            reference = record[key] = op.hashes
        elif op.hashes != reference:
            changed = sorted(n for n in op.hashes if op.hashes[n] != reference.get(n))
            op.failures.append(f"output hashes differ between runs: {', '.join(changed)}")
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(seed, work)

    ops = []
    with cpuspeed.SpeedSampler() as speed:
        start = time.perf_counter()
        setup_times = measure_setup()
        setup_loop_s = speed.loop_s(start, time.perf_counter())
        start = time.perf_counter()
        while True:
            traced = trace and len(ops) % 2 == 1
            op = workload.run(work, traced)
            op.loop_s = speed.loop_s(op.start, op.start + op.wall_s)
            ops.append(op)
            elapsed = time.perf_counter() - start
            kinds = {op.traced for op in ops}
            if elapsed >= seconds and (not trace or kinds == {False, True}):
                break
            if elapsed + op.wall_s > RUN_BUDGET_S:
                break
    check_determinism(workload, seed, ops)
    shutil.rmtree(work / "out", ignore_errors=True)
    return {"workload": workload.name, "seed": seed, "setup_times": setup_times,
            "setup_loop_s": setup_loop_s, "ops": ops}


def _sample(values: list) -> tuple:
    return (statistics.median(values), len(values)) if values else (0.0, 0)


def summarise(run: dict, trace: bool) -> dict:
    """Every metric of the run's mode with its sample count, and the outcome."""
    ops = run["ops"]
    attempted, failed = len(ops), sum(1 for op in ops if op.failures)
    untraced = [op for op in ops if not op.traced]

    def wall_cal(group):
        return _sample([cpuspeed.calibrated(op.wall_s, op.loop_s) for op in group])

    metrics = {}
    if not trace:
        metrics["wall_cal_s"] = wall_cal(untraced)
        metrics["setup_s"] = _sample([cpuspeed.calibrated(t, run["setup_loop_s"])
                                      for t in run["setup_times"]])
        rss = [child.rss_mb for op in untraced for child in op.children]
        metrics["peak_rss_mb"] = (max(rss), len(rss))
        units = END_TO_END
    else:
        for op in ops:
            for name, value in op.layers.items():
                metrics.setdefault(name, []).append(value)
        metrics = {name: _sample(values) for name, values in metrics.items()}
        metrics["failed_ratio"] = (failed / attempted, attempted)
        metrics["wall_s"] = _sample([op.wall_s for op in untraced])
        metrics["cpu.loop_ms"] = _sample([1e3 * op.loop_s for op in ops])
        traced_wall, n_traced = wall_cal([op for op in ops if op.traced])
        untraced_wall, n_untraced = wall_cal(untraced)
        if n_traced and n_untraced:
            metrics["trace.overhead_s"] = (traced_wall - untraced_wall, min(n_traced, n_untraced))
        units = PER_LAYER
    values = {}
    for name, unit in units.items():
        value, n = metrics.get(name, (0.0, 0))
        values[name] = {"value": value, "unit": unit, "n": n}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
        "failures": sorted({f for op in ops for f in op.failures}),
        "hashes": next((op.hashes for op in ops if op.hashes), {}),
    }


def print_summary(workload: str, trace: bool, summary: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"# {workload} ({mode}): {summary['attempted']} operation(s), "
          f"{summary['failed']} failed")
    for failure in summary["failures"]:
        print(f"#   FAILED: {failure}")
    for name, digest in summary["hashes"].items():
        print(f"#   sha256 {name} {digest}")
    for name, metric in summary["metrics"].items():
        print(f"#   {name:<40} {metric['value']:>16.6g} {metric['unit']:<8} n={metric['n']}")


def contract_line(summary: dict, contract: dict, trace: bool) -> str:
    """The result object: the metrics BENCHMARK.json lists for this mode."""
    names = [spec["name"] for spec in contract["per_layer" if trace else "end_to_end"]]
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name]["value"],
                           "unit": summary["metrics"][name]["unit"]} for name in names},
    })


def run_all(seed: int, seconds: float, out: Path, cpu: int) -> int:
    results = {"machine": machine_record(cpu), "seed": seed, "seconds": seconds, "workloads": {}}
    print(f"# machine {json.dumps(results['machine'])}")
    ok = True
    for name, workload in make_workloads().items():
        for trace in (False, True):
            summary = summarise(run_workload(workload, seed, seconds, trace), trace)
            print_summary(name, trace, summary)
            results["workloads"].setdefault(name, {})["traced" if trace else "untraced"] = summary
            ok = ok and summary["correct"]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"# wrote {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps its running child (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    cpu = cpuspeed.pin_to_one_cpu()
    try:
        if not (SRC / "fundgrowth" / "__init__.py").is_file():
            raise BenchError(f"no fundgrowth package under {SRC}")
        contract = load_contract()
        seconds = contract["run_seconds"] if args.seconds is None else args.seconds
        if args.self_test:
            import selftest
            return selftest.main()
        if args.all:
            return run_all(args.seed, seconds, WORK / "results.json", cpu)
        workloads = make_workloads()
        if args.workload not in workloads:
            parser.error(f"--workload must be one of {', '.join(workloads)}")
        print(f"# machine {json.dumps(machine_record(cpu))}")
        run = run_workload(workloads[args.workload], args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = summarise(run, bool(args.trace))
    print_summary(args.workload, bool(args.trace), summary)
    print(contract_line(summary, contract, bool(args.trace)))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
