"""Benchmark worker: set up one workload, run whole rounds of it, report.

Started by run.py with BLAS and OpenMP pinned to one thread.  Prints
"READY" once `import qndsim` and input generation are done; with
--setup-only it stops there.  Otherwise it runs whole rounds of the
workload's task list until --seconds have passed (at least one round; a
round is not started if the last one would not fit), checks every task's
outputs, and prints one "RESULT <json>" line.  Failures and check
problems are described on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = HERE / "runs"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def run_rounds(tasks, rundir: Path, seconds: float, tracer, workload: str, fault) -> dict:
    span = tracer.span if tracer else (lambda name, **attrs: nullcontext())
    walls, cpus = [], []
    failed, correct = 0, True
    start = time.perf_counter()
    rnd = 0
    while True:
        r0 = time.perf_counter()
        for i, task in enumerate(tasks):
            outdir = rundir / f"round{rnd}-task{i}"
            outdir.mkdir()
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                with span("task", workload=workload, round=rnd, index=i):
                    outputs = task.run(outdir, tracer.span if tracer else None)
            except Exception:  # the program failed this operation; keep going
                failed += 1
                print(f"task {task.name} round {rnd} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                walls.append(time.perf_counter() - w0)
                cpus.append(time.process_time() - c0)
            try:
                problems = task.check(outputs)
            except Exception as exc:  # an output missing or unreadable
                problems = [f"check raised {exc!r}"]
            if problems:
                failed += 1
                correct = correct and all(isinstance(p, fault) for p in problems)
                for p in problems:
                    print(f"task {task.name} round {rnd}: {p}", file=sys.stderr)
            shutil.rmtree(outdir)
        rnd += 1
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            break
    return {"walls": walls, "cpus": cpus, "failed": failed, "correct": correct}


def main(argv=None) -> int:
    args = parse_args(argv)
    protocol_out = sys.stdout
    sys.stdout = sys.stderr  # keep program output off the result channel

    t0 = time.perf_counter()
    import qndsim.cli  # noqa: F401  the whole package with numpy, scipy, yaml

    import_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    import tracing
    import workloads

    rundir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = rundir / "inputs"
    inputs.mkdir(parents=True)
    tasks = workloads.BUILDERS[args.workload](args.seed, inputs)
    inputs_s = time.perf_counter() - t1
    print("READY", file=protocol_out, flush=True)
    if args.setup_only:
        shutil.rmtree(rundir)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    res = run_rounds(tasks, rundir, args.seconds, tracer, args.workload, workloads.Fault)
    shutil.rmtree(rundir)
    result = {
        "attempted": len(res["walls"]),
        "failed": res["failed"],
        "correct": res["correct"],
    }
    if tracer:
        tracer.write(RUNS / f"trace-{args.workload}-{args.seed}.json")
        result["layers"] = tracing.layer_metrics(
            tracer.spans, len(res["walls"]), {"import_s": import_s, "inputs_s": inputs_s}
        )
    else:
        result["tasks_per_s"] = 1.0 / statistics.median(res["walls"])
        result["cpu_s_per_task"] = statistics.median(res["cpus"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("RESULT " + json.dumps(result), file=protocol_out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
