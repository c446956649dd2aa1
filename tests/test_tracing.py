"""The benchmark's spans wrap qndsim functions by module and attribute name
(qndbench/tracing.py, WRAPPED).  A name that no longer resolves is skipped
without a word, and the layer figures it feeds read 0; so every name must
resolve.  tracing.py is loaded from its file and only read."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "qndbench" / "tracing.py"


def test_every_wrapped_attribute_resolves():
    spec = importlib.util.spec_from_file_location("qndbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.WRAPPED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert tracing.WRAPPED and not missing, f"traced names missing from qndsim: {missing}"
