"""Write tests/golden.json, the record of the figures the five subcommands
write at the default config: every scalar of `efficiency.json`,
`report.json` and `selftest.json`, and for every column of every CSV table
its norm, its extreme entries and its entries one by one.  The columns of
the tomography records (setting, bin centre, count) are recorded as
SHA-256 digests of their values instead, and compared exactly.  Run from
the repository root:

    PYTHONPATH=src python tests/make_golden.py          # rewrite the record
    PYTHONPATH=src python tests/make_golden.py --diff   # compare, rewrite nothing

--diff prints per file how many figures moved beyond the tolerance and the
largest relative move, and exits 1 if any moved.  test_cli.py::TestGolden
makes the same comparison.  A change that moves a figure on purpose
regenerates the record and lists each move.
"""

import argparse
import csv
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from qndsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden.json"
# the subcommands, each with its arguments at the default config
RUNS = {
    "spectrum": ["spectrum"],
    "efficiency": ["efficiency"],
    "protocol": ["protocol"],
    "sweep": ["sweep"],
    "tomo-selftest": ["tomo-selftest", "--seed", "7"],
}
JSON_FILES = ("efficiency.json", "report.json", "selftest.json")
# tables recorded by digest: integer counts on a fixed bin lattice
DIGEST_TABLES = ("record_coherent.csv", "record_composite.csv")
# what is recorded of each CSV column, beside its entries or digest
COLUMN_FIGURES = {"norm": np.linalg.norm, "min": np.min, "max": np.max}
RTOL, ATOL = 1e-10, 1e-14  # a number moves when |got - want| > ATOL + RTOL |want|


def scalars(tree, prefix: str = "") -> dict:
    """The leaves of a JSON object, keyed by their dotted paths."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(scalars(value, f"{prefix}.{key}" if prefix else key))
    return out


def column_figures(path: Path) -> dict:
    """The norm, the extreme entries and the entries (or their digest) of
    each column of a CSV table, keyed column.figure."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    out = {}
    for name, column in zip(header, table.T, strict=True):
        for figure, f in COLUMN_FIGURES.items():
            out[f"{name}.{figure}"] = float(f(column))
        if path.name in DIGEST_TABLES:
            out[f"{name}.sha256"] = hashlib.sha256(column.tobytes()).hexdigest()
        else:
            out[f"{name}.entries"] = column.tolist()
    return out


def figures(out: Path) -> dict:
    """The recorded figures of one output directory, keyed by file name."""
    record = {}
    for path in sorted(out.iterdir()):
        if path.name in JSON_FILES:
            record[path.name] = scalars(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            record[path.name] = column_figures(path)
    return record


def compare(got: dict, record: dict) -> dict:
    """Per file of either: (figures, figures moved, largest relative move)
    of got against record, an entry list counting one figure per entry.  A
    number moves beyond the tolerance; a name or digest that differs, a
    figure on one side only and an entry list of another length move by
    inf."""
    out = {}
    for name in sorted(got.keys() | record.keys()):
        mine, theirs = got.get(name, {}), record.get(name, {})
        pairs = []
        for key in sorted(mine.keys() | theirs.keys()):
            g, w = mine.get(key), theirs.get(key)
            if isinstance(g, list) and isinstance(w, list) and len(g) == len(w):
                pairs.extend(zip(g, w))
            else:
                pairs.append((g, w))
        moved, largest = 0, 0.0
        for g, w in pairs:
            if isinstance(g, float | int) and isinstance(w, float | int):
                move = abs(g - w)
                is_moved = not move <= ATOL + RTOL * abs(w)  # a NaN moves
                rel = move / abs(w) if w else math.inf if move else 0.0
            else:
                is_moved = g != w
                rel = math.inf if is_moved else 0.0
            moved += is_moved
            largest = max(largest, math.inf if math.isnan(rel) else rel)
        out[name] = (len(pairs), moved, largest)
    return out


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Write or check tests/golden.json.")
    parser.add_argument(
        "--diff", action="store_true", help="compare with the record, rewrite nothing"
    )
    args = parser.parse_args(argv)
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in RUNS.items():
            out = Path(tmp) / name
            if cli.main([*run, "--out", str(out)]) != 0:
                print(f"{name} failed", file=sys.stderr)
                return 1
            got.update(figures(out))
    if not args.diff:
        GOLDEN.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        return 0
    report = compare(got, json.loads(GOLDEN.read_text()))
    for name, (count, moved, largest) in report.items():
        print(f"{name}: {moved} of {count} figures moved, largest relative move {largest:.3g}")
    return int(any(moved for _, moved, _ in report.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
