"""Self-test of the benchmark harness at toy size; takes a few seconds.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on the toy shape, and checks that
each run's last stdout line has exactly the result keys, reports correct
outputs, and carries every metric BENCHMARK.json declares for that mode with
its unit. Also checks that the per-layer table in BENCHMARK.json is the one
the tracer reports, and that the harness fails without printing a result in
a directory holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import OUT, WORKLOADS  # noqa: E402
from tracer import PER_LAYER  # noqa: E402


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in wanted}:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json")
            print(f"ok  {label}: {result['attempted']} attempted", flush=True)

    os.makedirs(OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the package sources the benchmark must fail and print nothing")
        else:
            print(f"ok  without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
