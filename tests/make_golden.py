"""Write tests/golden.json, the record of the figures the five subcommands
write at the default config: every scalar of `efficiency.json`,
`report.json` and `selftest.json`, and for every column of every CSV table
its norm and its extreme entries.  Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

test_cli.py::TestGolden recomputes the figures and compares them with the
record.  A change that moves a figure on purpose regenerates the record and
lists each move.
"""

import csv
import json
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
# what is recorded of each CSV column
COLUMN_FIGURES = {"norm": np.linalg.norm, "min": np.min, "max": np.max}


def scalars(tree, prefix: str = "") -> dict:
    """The leaves of a JSON object, keyed by their dotted paths."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(scalars(value, f"{prefix}.{key}" if prefix else key))
    return out


def column_figures(path: Path) -> dict:
    """The norm and the extreme entries of each column of a CSV table,
    keyed column.figure."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {
        f"{name}.{figure}": float(f(column))
        for name, column in zip(header, table.T, strict=True)
        for figure, f in COLUMN_FIGURES.items()
    }


def figures(out: Path) -> dict:
    """The recorded figures of one output directory, keyed by file name."""
    record = {}
    for path in sorted(out.iterdir()):
        if path.name in JSON_FILES:
            record[path.name] = scalars(json.loads(path.read_text()))
        elif path.suffix == ".csv":
            record[path.name] = column_figures(path)
    return record


def main() -> int:
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            out = Path(tmp) / name
            if cli.main([*argv, "--out", str(out)]) != 0:
                print(f"{name} failed", file=sys.stderr)
                return 1
            record.update(figures(out))
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
