"""Quick self-check of the benchmark harness.  It measures nothing.

    python3 qndbench/selfcheck.py

Takes about two minutes and exits non-zero unless all three hold:

1. run.py prints exactly the metric names of BENCHMARK.json: the
   end-to-end ones with --trace 0 and the per-layer ones with --trace 1,
   next to `correct`, `attempted` and `failed`.
2. A deliberately corrupted output fails each workload's checks: a dark
   count moved by 20% (detect), a capture-oracle moment moved by 0.2%
   (oracle), and the corrected fit replaced by one stopped after 300
   iterations (tomo).
3. One traced task of each workload, together, opens every span that the
   per-layer metrics read.

Its timings are not the gated figures: they come from single rounds,
some with tracing on.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # as run.py sets them for its worker; before numpy loads


def printed_names(workload: str, trace: int) -> tuple[set, set]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return set(result), set(result["metrics"])


def corrupted_outputs_fail(workdir: Path) -> list[str]:
    """Run one traced task per workload; corrupt its output; re-check it."""
    import tracing
    import workloads
    from qndsim import tomography

    tracer = tracing.Tracer()
    tracer.install()
    failures = []
    try:
        for w in workloads.WORKLOADS:
            inputs = workdir / w
            inputs.mkdir()
            task = workloads.BUILDERS[w](1, inputs)[0]
            with tracer.span("task"):
                out = task.run(inputs, tracer.span)
            if task.check(out):
                failures.append(f"{w}: the uncorrupted output fails its checks")
            if w == "detect":
                path = out / "efficiency" / "efficiency.json"
                eff = json.loads(path.read_text())
                eff["dark_count"] *= 1.2
                path.write_text(json.dumps(eff))
            elif w == "oracle":
                out[1][0, 0, 1, 1] *= 1.002
            else:
                files, rec, raw, _ = out
                out = (files, rec, raw, tomography.mle_reconstruct(rec, iterations=300))
            problems = task.check(out)
            print(f"{w}: corrupted output -> {problems}")
            if not problems:
                failures.append(f"{w}: a corrupted output passes its checks")
    finally:
        tracer.uninstall()
    opened = {s["name"] for s in tracer.spans}
    missing = {name for name, _ in tracing.LAYERS.values()} - opened
    if missing:
        failures.append(f"traced tasks never opened spans {sorted(missing)}")
    return failures


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        top, names = printed_names("oracle", trace)
        want = {m["name"] for m in bench[key]}
        if top != {"correct", "attempted", "failed", "metrics"} or names != want:
            failures.append(f"--trace {trace} printed {sorted(top)} / {sorted(names ^ want)} differ")
    (HERE / "runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "runs") as tmp:
        failures += corrupted_outputs_fail(Path(tmp))
    for f in failures:
        print("SELF-CHECK FAILED:", f)
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
