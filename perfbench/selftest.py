"""Self-test of the benchmark, at tiny sizes (under two minutes).

    python3 perfbench/run.py --self-test

Runs every workload untraced and traced, then shows that the output checks
fail where they must: on corrupted copies of ``backtest.csv`` and of an SVG
panel, on a sabotaged verify sweep, on a non-zero exit, and on output hashes
that differ from an earlier run.  Exits 0 only if every expectation holds.
"""

from __future__ import annotations

import shutil

import run
from workloads import MonteCarlo, Op, VerifySweep, check_pipeline, make_workloads, run_child


def main() -> int:
    outcomes = []

    def expect(label: str, ok: bool, detail="") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}{f': {detail}' if detail and not ok else ''}")
        outcomes.append(ok)

    workloads = make_workloads(tiny=True)
    for name, workload in workloads.items():
        for trace in (False, True):
            summary = run.summarise(run.run_workload(workload, 1, 0.0, trace), trace)
            mode = "traced" if trace else "untraced"
            expect(f"{name} {mode}: outputs pass every check", summary["correct"],
                   summary["failures"])
    names = [set(run.summarise(run.run_workload(workloads["pipeline_k3"], seed, 0.0, trace),
                               trace)["metrics"]) for seed in (1, 2) for trace in (False, True)]
    expect("a second seed prints the same set of metrics", names[0:2] == names[2:4])

    pipeline = workloads["pipeline_k3"]
    work = run.WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pipeline.prepare(3, work)
    op = pipeline.run(work, traced=False)
    expect("pipeline: clean outputs pass", not op.failures, op.failures)
    out = work / "out"
    pristine = (out / "backtest.csv").read_text()
    header, *rows = pristine.splitlines()
    col = header.split(",").index("a")

    def corrupted(label: str, text: str, needle: str) -> None:
        (out / "backtest.csv").write_text(text)
        failures = check_pipeline(out, pipeline.k, pipeline.days, pipeline.burn_in)
        expect(f"corrupted backtest.csv ({label}) is caught",
               any(needle in f for f in failures), failures)

    last = rows[-1].split(",")
    last[col] = "1.5"
    corrupted("a = 1.5", "\n".join([header, *rows[:-1], ",".join(last)]) + "\n", "outside [0, 1]")
    corrupted("last row dropped", "\n".join([header, *rows[:-1]]) + "\n", "rows, expected")
    last = rows[-1].split(",")
    last[1] = repr(float(last[1]) * (1.0 + 1e-6))
    corrupted("final nu_hat off by 1e-6", "\n".join([header, *rows[:-1], ",".join(last)]) + "\n",
              "numpy C^-1 R")
    last[1] = "nan"
    corrupted("nan cell", "\n".join([header, *rows[:-1], ",".join(last)]) + "\n", "non-finite")
    (out / "backtest.csv").write_text(pristine)
    svg = (out / "wealth.svg").read_text()
    (out / "wealth.svg").write_text(svg[: len(svg) // 2])
    failures = check_pipeline(out, pipeline.k, pipeline.days, pipeline.burn_in)
    expect("truncated SVG is caught", any("wealth.svg" in f for f in failures), failures)

    sabotaged = VerifySweep("verify_sweep", seeds=1, sabotage="cardano")
    sabotaged.prepare(1, work)
    op = sabotaged.run(work, traced=False)
    expect("verify --sabotage cardano is caught",
           any("verify cardano failed" in f for f in op.failures), op.failures)
    child = run_child(["-m", "fundgrowth.cli", "verify", "--checks", "cardano",
                       "--sabotage", "cardano"], work / "log.txt")
    expect("fundgrowth verify --sabotage exits non-zero", child.rc != 0)
    too_short = MonteCarlo("montecarlo_k1", paths=1, days=10, burn_in=20)
    too_short.prepare(1, work)
    op = too_short.run(work, traced=False)
    expect("a child exiting non-zero fails its operation",
           any("exited with" in f for f in op.failures), op.failures)

    record = work / "hashes.json"
    ops = [Op(False, hashes={"data": "a"}), Op(False, hashes={"data": "b"})]
    run.check_determinism(sabotaged, 1, ops, record)
    expect("differing output hashes are caught", not ops[0].failures and bool(ops[1].failures))
    record.write_text(record.read_text().replace('"data": "a"', '"data": "c"'))
    ops = [Op(False, hashes={"data": "a"})]
    run.check_determinism(sabotaged, 1, ops, record)
    expect("hashes differing from an earlier run are caught", bool(ops[0].failures))

    shutil.rmtree(work, ignore_errors=True)
    print(f"self-test: {sum(outcomes)}/{len(outcomes)} expectations hold")
    return 0 if all(outcomes) else 1
