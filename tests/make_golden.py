"""Write tests/golden.json, the record of every scalar in the JSON outputs
of `efficiency`, `protocol` and `tomo-selftest --seed 7` at the default
config.  Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

test_cli.py::TestGolden recomputes the figures and compares them with the
record.  A change that moves a figure on purpose regenerates the record and
lists each move.
"""

import json
import sys
import tempfile
from pathlib import Path

from qndsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden.json"
# each recorded file and the subcommand arguments that write it
RUNS = {
    "efficiency.json": ["efficiency"],
    "report.json": ["protocol"],
    "selftest.json": ["tomo-selftest", "--seed", "7"],
}


def scalars(tree, prefix: str = "") -> dict:
    """The leaves of a JSON object, keyed by their dotted paths."""
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(scalars(value, f"{prefix}.{key}" if prefix else key))
    return out


def main() -> int:
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            out = Path(tmp) / argv[0]
            if cli.main([*argv, "--out", str(out)]) != 0:
                print(f"{argv[0]} failed", file=sys.stderr)
                return 1
            record[name] = scalars(json.loads((out / name).read_text()))
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
