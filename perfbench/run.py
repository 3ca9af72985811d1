"""Benchmark of crossmodal's three kinds of use: training, evaluation, lookup.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): ``train_i2t``, ``train_t2i_seq``, ``evaluate``,
``query``. Run from the root of a source checkout; the package is imported
from ``src/``, and inputs, trace files and scratch output go to
``.bench_out/`` there.

One invocation runs these processes one after another, each with BLAS pinned
to ``BLAS_THREADS`` threads:

1. ``prepare``: generates the seed's inputs (untimed).
2. ``setup`` (``--trace 0`` only), ``SETUP_REPEATS - 1`` times: a fresh
   interpreter imports crossmodal and sets the workload up, then exits.
3. ``worker``: sets up once more, then repeats the workload's operation for
   ``--seconds`` seconds and checks every output. A failed check counts the
   operation as failed, and its time is not reported.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (median over the set-ups), ``peak_rss_mb`` (the worker's peak
resident set after set-up and one warm-up operation) and ``op_p50_ms``
(median operation time). Both times are wall times scaled to a reference
machine speed by ``SpeedProbe``, because the speed of a shared host drifts
during a run; the ``detail`` line also carries the unscaled wall times.
With ``--trace 1`` the worker spends half the time untraced and half traced
(tracer.py), and the last line reports the per-layer metrics in wall
seconds; the spans go to a trace file. The ``detail`` line before the last
carries machine facts, quality figures, determinism digests and the
workload's own metric names (``train_pairs_per_s``, ``eval_s``,
``query_p50_ms``, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train_i2t", "train_t2i_seq", "evaluate", "query")
BLAS_THREADS = 1
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
PROBE_REFERENCE_S = 0.05  # SpeedProbe.seconds() at the reference speed
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("paper", "toy"), default="paper",
                   help="input shape; toy is for the harness self-test")
    p.add_argument("--role", choices=("main", "prepare", "setup", "worker"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--inputs", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
    }


# -- child processes -------------------------------------------------------


def _child(args: argparse.Namespace, role: str, inputs: str, timeout: float) -> dict:
    """Run one role of this script in a fresh process; return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--role", role, "--inputs", inputs,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited {proc.returncode}")
    return json.loads(lines[-1])


def _import_workloads():
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def role_prepare(args: argparse.Namespace) -> dict:
    workloads = _import_workloads()
    shape = workloads.SHAPES[args.size]
    with_model = args.workload in ("evaluate", "query")
    return workloads.prepare(shape, args.seed, args.inputs, with_model)


class SpeedProbe:
    """A fixed mix of the kinds of work crossmodal does, timed between operations.

    On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz) the speed of
    single-threaded code drifted by up to 1.6x over tens of seconds, moving
    every wall time with it. Scaling a
    wall time by ``PROBE_REFERENCE_S / probe time`` around it expresses it at
    one reference speed. The probe exercises the same kinds of work as the
    program: small numpy calls in a Python loop, sorting tuples, parsing
    floats, updates of 12 MB arrays and a 4096 x 300 matrix-vector product. It
    uses only numpy, never the program, so no change to the program moves it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.normal(size=(64, 300))
        self.big = rng.normal(size=(5000, 300))
        self.matrix = rng.normal(size=(4096, 300))
        self.vector = np.ones(4096)
        self.floats = [repr(float(v)) for v in rng.normal(size=8000)]

    def seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for i in range(1500):
            a, b = self.small[i % 64], self.small[(i * 7) % 64]
            float(np.dot(a, b)) / (float(np.dot(a, a)) * float(np.dot(b, b))) ** 0.5
        sorted((-(i * 7919 % 1000) / 7.0, str(i)) for i in range(20000))
        np.array([float(v) for v in self.floats])
        for _ in range(3):
            grad = np.zeros_like(self.big)
            grad += self.big
            self.big - 0.001 * grad
        for _ in range(10):
            self.vector @ self.matrix
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor taking a wall time now to the reference speed (median of 3 probes)."""
        return PROBE_REFERENCE_S / statistics.median(self.seconds() for _ in range(3))


def _measure(wl, seconds: float, probe: SpeedProbe) -> dict:
    """Repeat the operation for ``seconds``; keep the times of passing operations,
    as measured and scaled to the probe's reference speed."""
    times: list[float] = []
    scaled: list[float] = []
    errors: list[str] = []
    ops = failed = 0
    before = probe.seconds()
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        op_input = wl.fresh_input(ops)
        t0 = time.perf_counter()
        try:
            output = wl.op(op_input)
            elapsed = time.perf_counter() - t0
            wl.check(ops, output)
        except Exception as exc:  # a failed operation is counted; it does not end the run
            failed += wl.attempted()
            errors.append(f"{type(exc).__name__}: {exc}")
            elapsed = None
        after = probe.seconds()
        if elapsed is not None:
            times.append(elapsed)
            scaled.append(elapsed * PROBE_REFERENCE_S / ((before + after) / 2))
        before = after
        ops += 1
    return {
        "times": times, "scaled": scaled, "ops": ops, "attempted": ops * wl.attempted(),
        "failed": failed, "errors": errors,
    }


def role_setup_or_worker(args: argparse.Namespace, role: str) -> dict:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        wl = workloads.make(args.workload, workloads.SHAPES[args.size], args.seed, args.inputs, work)
        wl.setup()
        setup_s = time.perf_counter() - t0
        if role == "worker":
            wl.warm_up()
            # read before the probe allocates its 40 MB: the peak is the workload's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = SpeedProbe()
        setup = {"setup_s": setup_s, "setup_scaled_s": setup_s * probe.scale()}
        if role == "setup":
            return setup
        result: dict = {**setup, "machine": machine_facts(), "peak_rss_mb": peak_rss_mb}
        if not args.trace:
            run = _measure(wl, args.seconds, probe)
        else:
            from tracer import Tracer

            untraced = _measure(wl, args.seconds / 2, probe)
            tracer = Tracer()
            tracer.install()
            try:
                wl.setup()
                tracer.phase = "op"
                run = _measure(wl, args.seconds / 2, probe)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics(n_ops=run["ops"])
            layers["ranker.pairs_skipped"] = wl.skips.skipped if wl.skips else 0
            # wall times, like the per-layer seconds they are compared with
            traced_ms = 1000.0 * statistics.median(run["times"]) if run["times"] else 0.0
            untraced_ms = 1000.0 * statistics.median(untraced["times"]) if untraced["times"] else 0.0
            layers["trace.op_traced_ms"] = traced_ms
            layers["trace.op_untraced_ms"] = untraced_ms
            layers["trace.overhead_pct"] = (
                100.0 * (traced_ms - untraced_ms) / untraced_ms if untraced_ms else 0.0
            )
            result["layers"] = layers
            result["trace"] = tracer.dump()
            for key in ("attempted", "failed", "errors"):
                run[key] += untraced[key]
        skipped = wl.skips.skipped if wl.skips else 0
        result.update(
            op_seconds=run["times"], op_scaled_seconds=run["scaled"], attempted=run["attempted"],
            failed=run["failed"] + skipped, errors=run["errors"][:20], workload=wl.summary(run["times"]),
        )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


# -- orchestration ---------------------------------------------------------


def _quartiles_ms(seconds: list[float]) -> list[float] | None:
    return [1000.0 * q for q in statistics.quantiles(seconds, n=4)] if len(seconds) > 1 else None


def main_role(args: argparse.Namespace) -> int:
    if not os.path.isfile(os.path.join(SRC, "crossmodal", "__init__.py")):
        print(f"error: no crossmodal sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    os.makedirs(OUT, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-{args.seed}-", dir=OUT)
    try:
        facts = _child(args, "prepare", inputs, left())
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(_child(args, "setup", inputs, left()))
        res = _child(args, "worker", inputs, left())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    times, scaled = res["op_seconds"], res["op_scaled_seconds"]
    if not times:
        print(f"error: no operation passed its checks: {res['errors'][:3]}", file=sys.stderr)
        return 1
    setups.append(res)
    if args.trace:
        from tracer import PER_LAYER

        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_scaled_s"] for r in setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(scaled), "unit": "ms"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": res["machine"],
        "inputs": facts,
        "setup_s_wall": [r["setup_s"] for r in setups],
        "setup_s_scaled": [r["setup_scaled_s"] for r in setups],
        "ops": len(times),
        "op_wall_ms_quartiles": _quartiles_ms(times),
        "op_scaled_ms_quartiles": _quartiles_ms(scaled),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "errors": res["errors"],
        **res["workload"],
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        trace_path = stem + "-spans.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"detail": detail, "layers": res["layers"], **res["trace"]}, fh)
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    correct = res["failed"] == 0 and not res["errors"]
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return main_role(args)
    if args.role == "prepare":
        result = role_prepare(args)
    else:
        result = role_setup_or_worker(args, args.role)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
