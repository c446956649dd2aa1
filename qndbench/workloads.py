"""Workload inputs, the tasks that drive qndsim, and each task's checks.

Inputs depend on the workload seed alone (tomo's not at all).  Every task
drives qndsim through its public entry points: the CLI subcommands in
process (detect) or the public dynamics and tomography functions (oracle,
tomo).
A task's check returns a list of problems; an empty list means every
output held against the independent computations in physics.py.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import yaml

from qndsim import cli, dynamics, tomography
from qndsim.linalg import QuantumState
from qndsim.model import SystemParams, build_model, gaussian_input_mode

import physics

WORKLOADS = ("detect", "oracle", "tomo")

# detect ------------------------------------------------------------------
JITTERED_SETS = 2  # parameter sets drawn around the reference, per round
READOUT_DELAY = 100e-9  # CLI default schedule.readout_delay
GATE_INTERVAL = {"table": 800e-9, "ideal": 1600e-9}  # CLI efficiency defaults
# A window start that does not depend on the drive (the planned fix of the
# dark-count window) moves the reference dark count by +2.2%.
DARK_RTOL = 0.05
STATE_TOL = 1e-9  # Hermiticity, trace and positivity of written states
# Each conditional state is repaired and renormalised on its own, so the
# mixture identity holds only to the size of the repairs at n_ph = 2: to
# 4e-3 on the reference and jittered sets.  The ideal set misses it by
# 1.2e-2 because a 10.5% eigenvalue defect is projected out of its
# heralded-photon block without notice; that is counted as a fault.
DECOMPOSITION_TOL = 1e-2
IDEAL_HZ = {  # qndsim.model.ideal_params() in the CLI's units
    "omega_c": 10.62524e9, "omega_q": 7.8693e9, "chi": 1.5e6,
    "kappa_ex": 3.0e6, "kappa_in": 0.0, "anharmonicity": -0.344e9,
    "T1": math.inf, "T2_star": math.inf, "T2_echo": math.inf,
    "p_th": 0.0, "n_th": 0.0, "eps_rg": 0.0, "eps_re": 0.0, "eta_meas": 1.0,
}

# oracle ------------------------------------------------------------------
ORACLE_GAP = 1e-3  # acceptance criterion 7
PULSE_FWHM = 500e-9

# tomo --------------------------------------------------------------------
# Single-mode tomography of tomo-selftest's coherent calibration state.
# The records do not depend on the workload seed: a fit's cost is its MLE
# iteration count, which varies 2.8x between sampling seeds (777 to 2,185
# raw, 2,199 to 5,834 corrected over seeds 1-10), so seeded records would
# make the figure measure the seed.  Sampling seeds 1-5 are the first five.
SAMPLING_SEEDS = (1, 2, 3, 4, 5)
PHASES = tomography.MIN_PHASES
SHOTS = 10_000  # CLI default tomography.shots
ETA = 0.43  # CLI default tomography.eta
CAL_PHOTONS = 0.137  # qndsim.cli.CAL_PHOTON_NUMBER
N_SINGLE = tomography.N_TOMO_SINGLE
QUADRATURE_SIGMAS = 5.0
POVM_TOL = 1e-9
# A fit stops once a step gains less than the program's LIKELIHOOD_TOL
# (1e-10), so one more step from a converged estimate gains less again
# (9.8e-11 to 9.98e-11 measured); the 2% margin covers the rounding of two
# log-likelihoods of size ~100-300.  The corrected composite fit on the
# record that `tomo-selftest --seed 18` samples stops at the 10,000-iteration
# cap and still gains 1.09e-10.
FIXED_POINT_GAIN = 1.02 * tomography.LIKELIHOOD_TOL
LIKELIHOOD_SLACK = 1e-9


class TaskFailed(Exception):
    """The program refused or failed the operation (not a check failure)."""


class Fault(str):
    """A check problem that shows a known program fault, not a wrong output.

    The task counts as failed; the run stays correct.
    """


# ---------------------------------------------------------------------------
# detect: efficiency + protocol subcommands per parameter set


class DetectTask:
    def __init__(self, name, params_hz, preset, config):
        self.name, self.params, self.preset, self.config = name, params_hz, preset, config

    def run(self, outdir: Path, span=None):
        span = span or (lambda name: nullcontext())
        for sub in ("efficiency", "protocol"):
            with span(f"cli.{sub}"):
                rc = cli.main([sub, "--config", str(self.config), "--out", str(outdir / sub)])
            if rc != 0:
                raise TaskFailed(f"qndsim {sub} exited with {rc}")
        return outdir

    def check(self, outdir: Path) -> list[str]:
        eff = json.loads((outdir / "efficiency" / "efficiency.json").read_text())
        p = self.params
        gate = GATE_INTERVAL[self.preset]
        expected = physics.dark_count(
            p["T1"], p["T2_star"], p["p_th"], p["eps_rg"], p["eps_re"], gate, READOUT_DELAY
        )
        problems = []
        if abs(eff["dark_count"] - expected) > DARK_RTOL * expected + 1e-6:
            problems.append(
                f"dark count {eff['dark_count']:.6g} vs closed form {expected:.6g}"
            )
        if self.name == "reference" and not (
            0.81 <= eff["eta"] <= 0.87 and 0.010 <= eff["dark_count"] <= 0.020
        ):
            problems.append(
                f"reference eta {eff['eta']:.4f} / dark {eff['dark_count']:.4f} "
                "outside criterion 2's windows"
            )
        if self.preset == "ideal" and not (eff["eta"] >= 0.98 and eff["dark_count"] < 1e-4):
            problems.append(f"ideal eta {eff['eta']:.4f} / dark {eff['dark_count']:.2e}")

        pdir = outdir / "protocol"
        rep = json.loads((pdir / "report.json").read_text())
        states = {
            k: read_state(pdir / f"state_{k}.csv")
            for k in ("ground", "excited", "unconditional", "composite")
        }
        for k, rho in states.items():
            problems += physics.density_problems(rho, f"state_{k}", STATE_TOL)
        p_e = rep["flip_probability"]
        mix = (1 - p_e) * states["ground"] + p_e * states["excited"]
        gap = float(np.max(np.abs(mix - states["unconditional"])))
        if gap > DECOMPOSITION_TOL:
            problems.append(Fault(
                f"p_g rho_g + p_e rho_e misses rho_uncond by {gap:.2e} "
                "(a conditional state was heavily repaired without notice)"
            ))
        ceiling = physics.negativity(physics.ideal_composite(rep["input_photons"]), (2, 3))
        own = physics.negativity(states["composite"], (2, 3))
        if rep["negativity"] > ceiling + 1e-9:
            problems.append(f"negativity {rep['negativity']:.4f} above ideal {ceiling:.4f}")
        if abs(own - rep["negativity"]) > 1e-9:
            problems.append(f"negativity {rep['negativity']:.6f} vs state_composite {own:.6f}")
        for k in ("ground", "excited"):
            problems += wigner_problems(pdir / f"wigner_{k}.csv", f"wigner_{k}")
        return problems


def read_state(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    dim = int(data[:, 0].max()) + 1
    rho = np.zeros((dim, dim), dtype=complex)
    rho[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2] + 1j * data[:, 3]
    return rho


def wigner_problems(path: Path, name: str) -> list[str]:
    """The Wigner function integrates to one up to the grid's truncation.

    The truncation allowed is the largest shortfall of the grid sum of a
    Fock state's Wigner function, n = 0..2, computed in physics.py.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    grid = np.unique(data[:, 0])
    step = float(grid[1] - grid[0])
    integral = float(data[:, 2].sum()) * step**2
    x, p = np.meshgrid(grid, grid, indexing="ij")
    trunc = max(abs(1.0 - physics.fock_wigner(n, x, p).sum() * step**2) for n in range(3))
    if abs(integral - 1.0) > trunc + 1e-9:
        return [f"{name} integrates to {integral:.9f} (grid truncation {trunc:.1e})"]
    return []


def detect_tasks(seed: int, inputs: Path) -> list:
    rng = np.random.default_rng([seed, 0])
    ref = cli.default_config()["params"]
    k_tot = ref["kappa_ex"] + ref["kappa_in"]
    entries = [("reference", dict(ref), "table", 0.165), ("ideal", dict(IDEAL_HZ), "ideal", 0.165)]
    for j in range(JITTERED_SETS):
        p = dict(ref)
        # kappa_tot sets the RK4 step, so it stays at the reference value and
        # every set costs the same number of steps
        p["kappa_in"] = rng.uniform(0.15e6, 0.35e6)
        p["kappa_ex"] = k_tot - p["kappa_in"]
        p["chi"] = ref["chi"] * rng.uniform(0.9, 1.1)
        p["T1"] = ref["T1"] * rng.uniform(0.8, 1.25)
        p["T2_star"] = p["T1"] * ref["T2_star"] / ref["T1"] * rng.uniform(0.9, 1.1)
        p["T2_echo"] = min(p["T2_star"] * ref["T2_echo"] / ref["T2_star"], 1.9 * p["T1"])
        p["p_th"] = ref["p_th"] * rng.uniform(0.7, 1.3)
        p["eps_rg"] = ref["eps_rg"] * rng.uniform(0.7, 1.3)
        p["eps_re"] = ref["eps_re"] * rng.uniform(0.7, 1.3)
        entries.append((f"jittered{j}", p, "table", float(rng.uniform(0.12, 0.21))))
    tasks = []
    for name, params, preset, n_in in entries:
        config = inputs / f"detect_{name}.yaml"
        with open(config, "w") as fh:
            yaml.safe_dump(
                {"params": {k: float(v) for k, v in params.items()},
                 "schedule": {"n_in": float(n_in)},
                 "efficiency": {"preset": preset}},
                fh,
            )
        tasks.append(DetectTask(name, params, preset, config))
    return tasks


# ---------------------------------------------------------------------------
# oracle: regression ladder against the capture-mode oracle


class OracleTask:
    name = "oracle"

    def __init__(self, params: SystemParams, alpha: float, mode):
        self.params, self.alpha, self.mode = params, alpha, mode

    def run(self, outdir: Path, span=None):
        model = build_model(self.params)
        tau = dynamics.optimize_delay(self.params, self.mode)
        out = self.mode.delayed(tau)
        sched = dynamics.PulseSchedule(-400e-9, 700e-9, 800e-9, self.mode, alpha_in=self.alpha)
        reg = dynamics.output_mode_moments(model, sched, output_mode=out, delay=tau)
        cap = dynamics.capture_mode_oracle(model, sched, output_mode=out, delay=tau)
        return reg.moments, cap.moments

    def check(self, moments) -> list[str]:
        reg, cap = moments
        gap = float(np.max(np.abs(reg - cap) / (np.maximum(np.abs(reg), np.abs(cap)) + 1e-8)))
        if not gap < ORACLE_GAP:
            return [f"regression vs capture relative gap {gap:.2e}"]
        return []


def oracle_tasks(seed: int, inputs: Path) -> list:
    """One parameter set per round, drawn like acceptance criterion 7.

    Unlike criterion 7, kappa_tot is pinned at the reference value: the RK4
    step is 1/(40 kappa_tot), so criterion 7's spread of kappa_ex would make
    one task cost 12 s or 38 s depending on the seed.  chi is drawn from the
    part of criterion 7's range that keeps kappa_ex / 2chi near its range
    (0.79 to 1.37 against 0.7 to 1.3).
    """
    rng = np.random.default_rng([seed, 1])
    ref = cli.default_config()["params"]
    k_tot = ref["kappa_ex"] + ref["kappa_in"]
    chi = rng.uniform(1.27e6, 1.95e6)
    kappa_in = rng.uniform(0.1e6, 0.5e6)
    t1 = rng.uniform(20e-6, 60e-6)
    t2s = rng.uniform(0.5, 1.2) * t1
    params = SystemParams.from_hz(
        omega_c=ref["omega_c"], omega_q=ref["omega_q"], chi=chi,
        kappa_ex=k_tot - kappa_in, kappa_in=kappa_in,
        T1=t1, T2_star=t2s, T2_echo=min(t2s * rng.uniform(1.0, 1.5), 1.9 * t1),
        p_th=rng.uniform(0.0, 0.1), n_th=rng.uniform(0.0, 1e-3),
    )
    alpha = math.sqrt(rng.uniform(0.08, 0.25))
    return [OracleTask(params, alpha, gaussian_input_mode(PULSE_FWHM))]


# ---------------------------------------------------------------------------
# tomo: sampling, record output and the single-mode MLE fits


class TomoTask:
    name = "tomo"

    def __init__(self, sampling_seed: int):
        self.seed = sampling_seed
        self.cal = physics.coherent(N_SINGLE, math.sqrt(CAL_PHOTONS))
        self.thetas = tomography.phase_settings(PHASES)

    def run(self, outdir: Path, span=None):
        state = QuantumState(self.cal, (N_SINGLE,))
        rec = tomography.sample(state, self.thetas, SHOTS, eta=ETA, seed=self.seed)
        files = (outdir / "record.csv", outdir / "record.json")
        tomography.write_record(rec, *files)
        raw = tomography.mle_reconstruct(rec, correct_efficiency=False)
        corrected = tomography.mle_reconstruct(rec)
        return files, rec, raw, corrected

    def check(self, out) -> list[str]:
        files, rec, raw, corrected = out
        problems = []
        if not np.array_equal(tomography.read_record(*files).counts, rec.counts):
            problems.append("record on disk differs from the fitted record")
        x = rec.x_centers

        means = (rec.counts @ x) / rec.counts.sum(axis=1)
        expected = math.sqrt(2 * ETA * CAL_PHOTONS) * np.cos(rec.thetas)
        sigma = math.sqrt(0.5 / SHOTS)
        worst = float(np.max(np.abs(means - expected)))
        if worst > QUADRATURE_SIGMAS * sigma:
            problems.append(f"mean quadrature off by {worst:.2e} (sigma {sigma:.1e})")

        for eta, est, truth in (
            (1.0, raw, physics.attenuate_mode(self.cal, (N_SINGLE,), ETA)),
            (ETA, corrected, self.cal),
        ):
            label = "corrected" if eta != 1.0 else "raw"
            rows = []
            for theta in rec.thetas:
                elems = tomography.build_povm(theta, eta, N_SINGLE, x_grid=x).elements
                own = physics.quadrature_povm(theta, eta, N_SINGLE, x)
                defect = float(np.max(np.abs(elems.sum(axis=0) - np.eye(N_SINGLE))))
                diff = float(np.max(np.abs(elems - own)))
                if defect > POVM_TOL or diff > POVM_TOL:
                    problems.append(
                        f"POVM theta={theta:.3f} eta={eta}: completeness {defect:.1e}, "
                        f"vs reference {diff:.1e}"
                    )
                rows.append(own)
            rows = np.concatenate(rows)
            gain = physics.rrr_step_gain(rows, rec.counts, est.rho)
            if gain > FIXED_POINT_GAIN:
                problems.append(Fault(
                    f"{label} fit is not at the likelihood maximum: one more R rho R "
                    f"step gains {gain:.3e} (the fit stopped at the iteration cap)"
                ))
            ll_est = physics.likelihood_terms(rows, rec.counts, est.rho)[2]
            ll_true = physics.likelihood_terms(rows, rec.counts, truth)[2]
            if ll_est < ll_true - LIKELIHOOD_SLACK:
                problems.append(
                    f"{label} fit log-likelihood {ll_est:.9f} below the true state's {ll_true:.9f}"
                )
        return problems


def tomo_tasks(seed: int, inputs: Path) -> list:
    return [TomoTask(s) for s in SAMPLING_SEEDS]


BUILDERS = {"detect": detect_tasks, "oracle": oracle_tasks, "tomo": tomo_tasks}
