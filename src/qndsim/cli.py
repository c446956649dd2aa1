"""Command-line entry point: each pipeline stage as a reproducible file run.

Subcommands: spectrum | efficiency | protocol | tomo-selftest | sweep.
Every run resolves its configuration (YAML file over built-in defaults,
unknown keys rejected) and emits CSV/JSON outputs that are byte-identical
for identical config + seed at the same BLAS thread count.  Another thread count may round a product
differently and so move a figure's last digits; the MLE stops on a step
gain summed term by term, so at the defaults and seed 7 `tomo-selftest`
writes the same bytes at one and at two threads (README, Determinism).
A successful run then writes a manifest echoing the full resolution.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, tomography
from .linalg import (
    QuantumState,
    coherent,
    fidelity,
    ket_density,
    negativity,
)
from .model import TWO_PI, SystemParams, reflection_coefficient
from .dynamics import PulseSchedule
from .protocol import (
    SWEEP_AXES,
    default_schedule,
    efficiency_scan,
    run_protocol,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CAL_PHOTON_NUMBER = 0.137  # reference coherent intensity for the selftest

# the only keys that may be infinite: an infinite decay time means no decay
_INFINITE_ALLOWED = ("params.T1", "params.T2_star", "params.T2_echo")
# the efficiency gate interval of each preset where efficiency.gate_interval is null
_PRESET_WINDOW = {"table": 800e-9, "ideal": 1600e-9}
# the ideal preset: the configured params with every imperfection off
# (and kappa_ex = 2 chi)
_IDEAL = {
    "kappa_in": 0.0, "T1": math.inf, "T2_star": math.inf, "T2_echo": math.inf,
    "p_th": 0.0, "n_th": 0.0, "eps_rg": 0.0, "eps_re": 0.0, "eta_meas": 1.0,
}


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


def default_config() -> dict:
    """Every CLI default, stated once.  params is the reference set of the
    characterization table, as the table lists it: frequencies and rates
    in plain Hz (model.HZ_FIELDS), times in seconds.  _normalize reads each
    key by the kind of its default."""
    return {
        "params": {
            "omega_c": 10.62524e9,
            "omega_q": 7.8693e9,
            "chi": 1.50e6,
            "kappa_ex": 3.32e6,
            "kappa_in": 0.25e6,
            "anharmonicity": -0.344e9,
            "T1": 32e-6,
            "T2_star": 26e-6,
            "T2_echo": 33e-6,
            "p_th": 0.067,
            "n_th": 0.0005,
            "eps_rg": 0.0016,
            "eps_re": 0.022,
            "eta_meas": 0.43,
        },
        "schedule": {
            "pulse_fwhm": 500e-9,
            "gate_interval": 1100e-9,
            "readout_delay": 100e-9,
            "n_in": 0.165,
            "alpha_sq_grid": [
                0.0, 0.025, 0.05, 0.075, 0.1, 0.125, 0.15, 0.3, 0.45, 0.6,
            ],
        },
        "tomography": {
            "phases": 100,
            "shots": 10_000,
            "iterations": tomography.DEFAULT_ITERATIONS,
            "seed": 7,
        },
        "spectrum": {"span_hz": 16e6, "points": 1601},
        "efficiency": {
            "preset": "table",
            "gate_interval": None,
            "fit_window": 0.10,
        },
        "protocol": {"n_ph": 2, "wigner": True},
        "sweep": {
            "axis": "gate_interval",
            "values": [500e-9, 700e-9, 800e-9, 900e-9, 1100e-9],
        },
    }


def _as_float(value, key: str):
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ConfigError(f"{key} must be a number, got {type(value).__name__}")
    try:
        f = float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{key} is out of the floating-point range") from None
    if math.isnan(f) or (math.isinf(f) and key not in _INFINITE_ALLOWED):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return f


def _as_int(value, key: str):
    f = _as_float(value, key)
    if isinstance(value, (int, str)):
        try:  # exact, where float would round past 2^53; "1e3" goes on
            return int(value)
        except ValueError:
            pass
    if f != int(f):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(f)


def _read(value, default, key: str):
    """value read as the kind of its default: true or false, an integer,
    a number, a list of numbers or a name.  A None default stands for a
    number or None; None passes there and for tomography.seed."""
    if value is None and (default is None or key == "tomography.seed"):
        return None
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false")
        return value
    if isinstance(default, int):
        return _as_int(value, key)
    if isinstance(default, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list")
        return [_as_float(v, f"{key} entry") for v in value]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a name, got {value!r}")
        return value
    return _as_float(value, key)


def load_config(path: str | None) -> dict:
    """Merge a YAML config over the defaults with strict key checking."""
    cfg = default_config()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping of sections")
    for section, block in data.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(block, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in block.items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            cfg[section][key] = value
    _normalize(cfg)
    return cfg


def _normalize(cfg: dict) -> None:
    defaults = default_config()
    for section, block in cfg.items():
        for key, value in block.items():
            block[key] = _read(value, defaults[section][key], f"{section}.{key}")
    t = cfg["tomography"]
    for key, least in (("phases", tomography.MIN_PHASES), ("shots", 1), ("iterations", 1)):
        if t[key] < least:
            raise ConfigError(f"tomography.{key} must be at least {least}")
    if cfg["efficiency"]["preset"] not in _PRESET_WINDOW:
        raise ConfigError("efficiency.preset must be 'table' or 'ideal'")
    axis = cfg["sweep"]["axis"]
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; choose from {', '.join(SWEEP_AXES)}")
    if not cfg["sweep"]["values"]:
        raise ConfigError("sweep.values must be a non-empty list")


def _build_params(params_hz: dict) -> SystemParams:
    try:
        return SystemParams.from_hz(**params_hz)
    except ValueError as exc:
        raise ConfigError(f"invalid params: {exc}") from None


def _window(cfg: dict) -> dict:
    """The keywords of default_schedule, as the schedule section sets them."""
    keys = ("n_in", "gate_interval", "pulse_fwhm", "readout_delay")
    return {key: cfg["schedule"][key] for key in keys}


def _build_schedule(window: dict) -> PulseSchedule:
    try:
        return default_schedule(**window)
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from None


def _efficiency_point(cfg: dict) -> tuple[SystemParams, dict]:
    """The operating point of efficiency and sweep: the preset's params and
    the schedule window, whose gate interval is efficiency.gate_interval
    or, where that is null, the preset's."""
    preset = cfg["efficiency"]["preset"]
    params = cfg["params"]
    if preset == "ideal":
        params = {**params, **_IDEAL, "kappa_ex": 2.0 * params["chi"]}
    gate_interval = cfg["efficiency"]["gate_interval"]
    if gate_interval is None:
        gate_interval = _PRESET_WINDOW[preset]
    return _build_params(params), {**_window(cfg), "gate_interval": gate_interval}


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _num(value):
    """JSON-safe number: non-finite values become null."""
    value = float(value)
    return value if math.isfinite(value) else None


def _write_state(path: Path, state: QuantumState | None) -> None:
    rows = []
    if state is not None:
        for i, row in enumerate(state.rho):
            for j, value in enumerate(row):
                rows.append((str(i), str(j), _fmt(value.real), _fmt(value.imag)))
    tomography.write_csv(path, ["row", "col", "real", "imag"], rows)


def _write_manifest(outdir: Path, command: str, cfg: dict, seed) -> None:
    tomography.write_json(
        outdir / "manifest.json",
        {
            "subcommand": command,
            "config": cfg,
            "seed": seed,
            "version": __version__,
        },
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectrum(cfg: dict, outdir: Path, seed) -> None:
    params = _build_params(cfg["params"])
    span = cfg["spectrum"]["span_hz"]
    points = cfg["spectrum"]["points"]
    if points < 2:
        raise ConfigError("spectrum.points must be at least 2")
    detuning = np.linspace(-span / 2, span / 2, points)
    omega = params.omega_c + TWO_PI * detuning
    r_g = reflection_coefficient(params, "g", omega)
    r_e = reflection_coefficient(params, "e", omega)
    rows = [
        [
            _fmt(d),
            _fmt(abs(g) ** 2), _fmt(np.angle(g)),
            _fmt(abs(e) ** 2), _fmt(np.angle(e)),
        ]
        for d, g, e in zip(detuning, r_g, r_e)
    ]
    tomography.write_csv(
        outdir / "spectrum.csv",
        ["detuning_hz", "reflectance_g", "phase_g", "reflectance_e", "phase_e"],
        rows,
    )


def cmd_efficiency(cfg: dict, outdir: Path, seed) -> None:
    eff = cfg["efficiency"]
    params, window = _efficiency_point(cfg)
    template = _build_schedule(window)
    try:
        report = efficiency_scan(
            params,
            template,
            cfg["schedule"]["alpha_sq_grid"],
            fit_window=eff["fit_window"],
        )
    except ValueError as exc:
        raise ConfigError(f"invalid efficiency grid: {exc}") from None
    tomography.write_csv(
        outdir / "efficiency_curve.csv",
        ["mean_input_photons", "flip_probability"],
        [[_fmt(x), _fmt(y)] for x, y in zip(report.grid, report.p_flip)],
    )
    tomography.write_json(
        outdir / "efficiency.json",
        {
            "eta": _num(report.eta),
            "dark_count": _num(report.dark_count),
            "curvature": _num(report.curvature),
            "residual_rms": _num(report.residual_rms),
            "bending": _num(report.bending),
            "fit_window": _num(report.fit_window),
            "gate_interval": _num(window["gate_interval"]),
            "preset": eff["preset"],
        },
    )


def cmd_protocol(cfg: dict, outdir: Path, seed) -> None:
    params = _build_params(cfg["params"])
    schedule = _build_schedule(_window(cfg))
    n_ph = cfg["protocol"]["n_ph"]
    result = run_protocol(params, schedule, n_ph)
    tomography.write_json(
        outdir / "report.json",
        {
            "input_photons": _num(result.n_in),
            "output_photons": _num(result.moments.mean_photon),
            "survival": _num(result.survival),
            "delay_s": _num(result.delay),
            "reference_phase": _num(result.phase_ref),
            "flip_probability_raw": _num(result.p_e_raw),
            "flip_probability": _num(result.p_e),
            "negativity": _num(result.negativity),
            "fidelity_to_ideal": _num(result.fidelity_ideal),
            "fidelity_ground_vacuum": _num(result.fidelity_vacuum),
            "fidelity_excited_single": _num(result.fidelity_single),
        },
    )
    _write_state(outdir / "state_ground.csv", result.rho_g)
    _write_state(outdir / "state_excited.csv", result.rho_e)
    _write_state(outdir / "state_unconditional.csv", result.rho_uncond)
    _write_state(outdir / "state_composite.csv", result.rho_comp)
    dim = n_ph + 1
    dist_g = tomography.photon_distribution(result.rho_g)
    dist_u = tomography.photon_distribution(result.rho_uncond)
    dist_e = (
        tomography.photon_distribution(result.rho_e)
        if result.rho_e is not None
        else [math.nan] * dim
    )
    tomography.write_csv(
        outdir / "photon_distributions.csv",
        ["n", "ground", "excited", "unconditional"],
        [
            [str(n), _fmt(dist_g[n]), _fmt(dist_e[n]), _fmt(dist_u[n])]
            for n in range(dim)
        ],
    )
    if cfg["protocol"]["wigner"]:
        grid = np.linspace(-3.0, 3.0, 61)
        tomography.write_wigner(
            outdir / "wigner_ground.csv", grid, tomography.wigner(result.rho_g, grid)
        )
        if result.rho_e is not None:
            tomography.write_wigner(
                outdir / "wigner_excited.csv",
                grid,
                tomography.wigner(result.rho_e, grid),
            )


def cmd_tomo_selftest(cfg: dict, outdir: Path, seed) -> None:
    if seed is None:
        raise ConfigError("a seed is required for reproducible sampling")
    if seed < 0:
        raise ConfigError(f"tomography.seed (or --seed) must be >= 0, got {seed}")
    t = cfg["tomography"]
    params = _build_params(cfg["params"])
    eta = params.eta_meas
    thetas = tomography.phase_settings(t["phases"])
    n = tomography.N_TOMO_SINGLE
    cal = QuantumState(ket_density(coherent(n, math.sqrt(CAL_PHOTON_NUMBER))), (n,))
    result = run_protocol(params, _build_schedule(_window(cfg)), cfg["protocol"]["n_ph"])
    fits = []  # (uncorrected, corrected) per record
    for k, (name, state) in enumerate((("coherent", cal), ("composite", result.rho_comp))):
        record = tomography.sample(state, thetas, t["shots"], eta=eta, seed=seed + k)
        tomography.write_record(
            record, outdir / f"record_{name}.csv", outdir / f"record_{name}.json"
        )
        fits.append([
            tomography.mle_reconstruct(
                record, iterations=t["iterations"], correct_efficiency=corrected
            )
            for corrected in (False, True)
        ])
    (est_raw, est_cor), (comp_raw, comp_cor) = fits
    levels = np.arange(n)
    attenuated = QuantumState(ket_density(coherent(n, math.sqrt(eta * CAL_PHOTON_NUMBER))), (n,))

    tomography.write_json(
        outdir / "selftest.json",
        {
            "coherent": {
                "input_photons": CAL_PHOTON_NUMBER,
                "uncorrected": {
                    "mean_photon": _num(
                        levels @ tomography.photon_distribution(est_raw)
                    ),
                    "fidelity_to_attenuated": _num(fidelity(est_raw, attenuated)),
                },
                "corrected": {
                    "mean_photon": _num(
                        levels @ tomography.photon_distribution(est_cor)
                    ),
                    "fidelity_to_input": _num(fidelity(est_cor, cal)),
                },
            },
            "composite": {
                "input_negativity": _num(negativity(result.rho_comp)),
                "uncorrected_negativity": _num(negativity(comp_raw)),
                "corrected_negativity": _num(negativity(comp_cor)),
            },
        },
    )


def cmd_sweep(cfg: dict, outdir: Path, seed) -> None:
    params, window = _efficiency_point(cfg)
    points = sweep(
        params,
        cfg["sweep"]["axis"],
        cfg["sweep"]["values"],
        window,
        cfg["schedule"]["alpha_sq_grid"],
        fit_window=cfg["efficiency"]["fit_window"],
        n_ph=cfg["protocol"]["n_ph"],
    )
    tomography.write_csv(
        outdir / "sweep.csv",
        ["value", "eta", "dark_count", "survival", "negativity"],
        [
            [
                _fmt(pt.value), _fmt(pt.eta), _fmt(pt.dark_count),
                _fmt(pt.survival), _fmt(pt.negativity),
            ]
            for pt in points
        ],
    )


_COMMANDS = {  # name: (handler, help)
    "spectrum": (cmd_spectrum, "cavity reflection spectra for both qubit states"),
    "efficiency": (cmd_efficiency, "phase-flip probability scan and efficiency fit"),
    "protocol": (cmd_protocol, "full detection run with conditional states"),
    "tomo-selftest": (cmd_tomo_selftest, "sampling and reconstruction round-trips"),
    "sweep": (cmd_sweep, "efficiency figures along one parameter axis"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="qndsim",
        description="Simulator of dispersive single-photon detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="YAML run configuration")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, help="override the sampling seed")
        sp.set_defaults(handler=handler)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg["tomography"]["seed"]
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        args.handler(cfg, outdir, seed)
        _write_manifest(outdir, args.command, cfg, seed)
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
