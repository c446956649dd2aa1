"""Run one workload of the qndsim benchmark and print its metrics.

    python3 qndbench/run.py --workload {detect,oracle,tomo} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports qndsim from src/.  The
measured work runs in one worker process (worker.py) started with
OpenBLAS and OpenMP limited to one thread.  With --trace 0 the last line
of standard output is the end-to-end result:

    tasks_per_s     1 / median task wall time
    cpu_s_per_task  median process CPU seconds per task
    peak_rss_mb     peak resident memory of the worker
    setup_s         median time from a worker's start until its first task
                    could start, over the measured worker and SETUP_PROBES
                    further starts that stop there

With --trace 1 the worker records spans around qndsim's public functions
and the result holds the per-layer figures instead; the spans are written
to qndbench/runs/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect", "oracle", "tomo")
SETUP_PROBES = 4
RUN_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"tasks_per_s": "1/s", "cpu_s_per_task": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class WorkerError(Exception):
    pass


def start_worker(cmd, env, timeout):
    """Run one worker; return (seconds until READY, its RESULT payload or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode} ({' '.join(cmd[2:])})")
    payload = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            payload = json.loads(line[len("RESULT "):])
    return setup, payload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qndsim" / "__init__.py").is_file():
        print(f"qndbench: no qndsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        setup, res = start_worker(cmd, env, RUN_TIMEOUT_S)
        if res is None:
            raise WorkerError("worker printed no result")
        if args.trace:
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
        else:
            setups = [setup] + [
                start_worker(cmd + ["--setup-only"], env, PROBE_TIMEOUT_S)[0]
                for _ in range(SETUP_PROBES)
            ]
            values = {
                "tasks_per_s": res["tasks_per_s"],
                "cpu_s_per_task": res["cpu_s_per_task"],
                "peak_rss_mb": res["peak_rss_mb"],
                "setup_s": statistics.median(setups),
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"qndbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics,
    }))
    return 0


def unit_of(metric: str) -> str:
    return "1/s" if metric.endswith("_per_s") else "s"


if __name__ == "__main__":
    sys.exit(main())
