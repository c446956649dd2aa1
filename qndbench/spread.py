"""Repeat benchmark runs and summarise them: the figures behind the bounds.

    python3 qndbench/spread.py run LABEL --seeds 1-10 [--trace 1]
    python3 qndbench/spread.py report LABEL [OTHER_LABEL]

`run` makes one run.py run per (seed, workload), workloads interleaved
within each seed, with BENCHMARK.json's run_seconds, and stores every
result in qndbench/runs/spread-LABEL.json.  `report` prints, per workload
and metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, with the failed share of the tasks attempted.
Given a second label it also prints how far the second set's median moved
from the first's, as a share of the first; and when one set is traced
and the other is not, the tracing overhead per task: the traced run's
median task time minus 1 / tasks_per_s of the untraced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(label: str, seeds: list[int], trace: int) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs = []
    RUNS.mkdir(exist_ok=True)
    for seed in seeds:
        for w in workloads:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": w, "seed": seed, "trace": trace, **result})
            print(w, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()})
                  if not trace else result["metrics"]["trace.task_s"]["value"], flush=True)
            (RUNS / f"spread-{label}.json").write_text(json.dumps(runs, indent=1) + "\n")


def summary(runs: list[dict]) -> dict:
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        sel = [r for r in runs if r["workload"] == w]
        stats = {}
        for m in sel[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in sel]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stats[m] = {"median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med if med else 0.0}
        failed = sum(r["failed"] for r in sel)
        attempted = sum(r["attempted"] for r in sel)
        out[w] = {"runs": len(sel), "failed": failed, "attempted": attempted,
                  "correct": all(r["correct"] for r in sel), "metrics": stats}
    return out


def load(label: str) -> list[dict]:
    return json.loads((RUNS / f"spread-{label}.json").read_text())


def report(labels: list[str]) -> None:
    sets = [load(lab) for lab in labels]
    sums = [summary(s) for s in sets]
    for label, s in zip(labels, sums):
        print(f"## {label}")
        for w, ws in s.items():
            print(f"{w}: {ws['runs']} runs, failed {ws['failed']}/{ws['attempted']}, "
                  f"correct {ws['correct']}")
            for m, st in ws["metrics"].items():
                print(f"  {m:42s} median {st['median']:.6g}  Q1 {st['q1']:.6g}  "
                      f"Q3 {st['q3']:.6g}  spread {st['spread']:.3f}")
    if len(sums) == 2:
        a, b = sums
        traced = [bool(s[0]["trace"]) for s in sets]
        print(f"## {labels[1]} against {labels[0]}")
        for w in a:
            if traced[0] != traced[1]:
                t, u = (b, a) if traced[1] else (a, b)
                traced_s = t[w]["metrics"]["trace.task_s"]["median"]
                plain_s = 1.0 / u[w]["metrics"]["tasks_per_s"]["median"]
                print(f"{w}: tracing overhead {traced_s - plain_s:+.3f} s per task "
                      f"({(traced_s - plain_s) / plain_s:+.2%})")
                continue
            for m, st in a[w]["metrics"].items():
                move = b[w]["metrics"][m]["median"] / st["median"] - 1 if st["median"] else 0.0
                print(f"{w:7s} {m:42s} median moved {move:+.3f}")
            share_a = a[w]["failed"] / a[w]["attempted"]
            share_b = b[w]["failed"] / b[w]["attempted"]
            print(f"{w:7s} failed share {share_a:.4f} vs {share_b:.4f}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("label")
    r.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 11-20")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = sub.add_parser("report")
    rep.add_argument("labels", nargs="+")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_set(args.label, parse_seeds(args.seeds), args.trace)
    else:
        report(args.labels[:2])


if __name__ == "__main__":
    main()
