"""Spans around qndsim's public functions, recorded from outside the package.

The tracer replaces module attributes with thin wrappers, so a call made
through that attribute (by the benchmark or by another qndsim module)
inside a task opens a span: name, start, end, parent span and a few
attributes.  Calls outside a task, such as the benchmark's own checks, are
not recorded.  Spans are kept in memory and written out once, when the run
ends.  Nothing under src/ is edited; uninstall() puts the original
functions back.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

EARLY_TAIL_MASS = 1e-5  # leading-tail cut of the propagation window (dynamics)


def rk4_steps(model, schedule, *args, dt=None, **kwargs) -> int:
    """RK4 steps of one propagation over the schedule's three segments.

    Computed from outside: the step is the program's public
    default_timestep, and the window starts early enough to cover all but
    EARLY_TAIL_MASS of the input pulse, as the propagators do.
    """
    from qndsim.dynamics import default_timestep

    if dt is None:
        dt = default_timestep(model.params, schedule.mode)
    start = schedule.t_i
    if schedule.alpha_in != 0:
        mode = schedule.mode
        trailing = np.cumsum((np.abs(mode.f) ** 2 * mode.dt)[::-1])[::-1]
        late = mode.t[trailing <= EARLY_TAIL_MASS]
        start = min(schedule.t_i, -float(late[0] if late.size else mode.t[-1]))
    edges = (start, schedule.t_i, schedule.t_g, schedule.t_f)
    return sum(
        max(1, math.ceil((b - a) / dt - 1e-12))
        for a, b in zip(edges, edges[1:]) if b - a > 1e-15
    )


def _fit_name(base):
    def name(*args, correct_efficiency=True, **kwargs):
        return f"{base}_{'corrected' if correct_efficiency else 'raw'}"
    return name


# (module, attribute, span name or name function, step counter or None).
# A function imported by name into another module is wrapped in each
# namespace that calls it, so library-internal calls open spans too.
WRAPPED = [
    ("qndsim.cli", "efficiency_scan", "protocol.efficiency_scan", None),
    ("qndsim.cli", "run_protocol", "protocol.run_protocol", None),
    ("qndsim.protocol", "run_protocol", "protocol.run_protocol", None),
    ("qndsim.protocol", "evolve", "dynamics.evolve", rk4_steps),
    ("qndsim.protocol", "optimize_delay", "dynamics.optimize_delay", None),
    ("qndsim.protocol", "output_mode_moments", "dynamics.output_mode_moments", rk4_steps),
    ("qndsim.dynamics", "evolve", "dynamics.evolve", rk4_steps),
    ("qndsim.dynamics", "optimize_delay", "dynamics.optimize_delay", None),
    ("qndsim.dynamics", "output_mode_moments", "dynamics.output_mode_moments", rk4_steps),
    ("qndsim.dynamics", "capture_mode_oracle", "dynamics.capture_mode_oracle", None),
    ("qndsim.tomography", "sample", "tomography.sample", None),
    ("qndsim.tomography", "mle_reconstruct", _fit_name("tomography.mle_reconstruct"), None),
    ("qndsim.tomography", "write_record", "tomography.write_record", None),
    ("qndsim.tomography", "wigner", "tomography.wigner", None),
    # sample() and the fits build their POVMs through the builder behind
    # build_povm, not through build_povm itself
    ("qndsim.tomography", "_build_povm_any_dim", "tomography.build_povm", None),
]


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent (index), attrs
        self._open = []
        self._originals = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(
            {"name": name, "start": perf_counter(), "end": None,
             "parent": parent, "attrs": attrs}
        )
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx]["end"] = perf_counter()

    def install(self) -> None:
        for module, attr, name, steps in WRAPPED:
            owner = importlib.import_module(module)
            if hasattr(owner, attr):
                fn = getattr(owner, attr)
                self._originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, steps))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, steps):
        def wrapper(*args, **kwargs):
            if not self._open:  # outside a task: the benchmark's own checks
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            attrs = {"steps": steps(*args, **kwargs)} if steps else {}
            with self.span(label, **attrs):
                return fn(*args, **kwargs)
        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
            fh.write("\n")


# per-layer metric -> (span name, figure): "total" is the time inside the
# span, children included; "self" subtracts the spans nested directly
# inside it; "steps" is RK4 steps per second inside the span.
LAYERS = {
    "dynamics.evolve_s": ("dynamics.evolve", "total"),
    "dynamics.evolve_steps_per_s": ("dynamics.evolve", "steps"),
    "protocol.efficiency_scan_s": ("protocol.efficiency_scan", "total"),
    "dynamics.output_mode_moments_s": ("dynamics.output_mode_moments", "total"),
    "dynamics.output_mode_moments_steps_per_s": ("dynamics.output_mode_moments", "steps"),
    "dynamics.optimize_delay_s": ("dynamics.optimize_delay", "total"),
    "dynamics.capture_mode_oracle_s": ("dynamics.capture_mode_oracle", "total"),
    "protocol.run_protocol_s": ("protocol.run_protocol", "total"),
    "protocol.run_protocol_self_s": ("protocol.run_protocol", "self"),
    "tomography.build_povm_s": ("tomography.build_povm", "total"),
    "tomography.sample_s": ("tomography.sample", "total"),
    "tomography.mle_reconstruct_raw_s": ("tomography.mle_reconstruct_raw", "total"),
    "tomography.mle_reconstruct_corrected_s": ("tomography.mle_reconstruct_corrected", "total"),
    "tomography.write_record_s": ("tomography.write_record", "total"),
    "tomography.wigner_s": ("tomography.wigner", "total"),
    "cli.efficiency_self_s": ("cli.efficiency", "self"),
    "cli.protocol_self_s": ("cli.protocol", "self"),
}


def layer_metrics(spans, n_tasks: int, setup: dict) -> dict:
    """Per-layer figures of a traced run, time figures per task.

    A layer the workload never calls reads 0.
    """
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            own[s["parent"]] -= d
    out = {}
    for metric, (name, figure) in LAYERS.items():
        sel = [i for i, s in enumerate(spans) if s["name"] == name]
        time_in = sum(dur[i] for i in sel)
        if figure == "steps":
            steps = sum(spans[i]["attrs"]["steps"] for i in sel)
            out[metric] = steps / time_in if time_in > 0 else 0.0
        else:
            out[metric] = sum((own if figure == "self" else dur)[i] for i in sel) / n_tasks
    out["setup.import_s"] = setup["import_s"]
    out["setup.inputs_s"] = setup["inputs_s"]
    out["trace.task_s"] = statistics.median(
        d for s, d in zip(spans, dur) if s["name"] == "task"
    )
    return out
