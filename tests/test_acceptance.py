"""Acceptance gate: every deliverable target checked at its stated tolerance.

Each criterion is one test that prints a single PASS/FAIL scorecard line
(visible with -s, or in the captured output of a failing test) and then
asserts, so the verbose listing doubles as the acceptance report.
"""

import math
import pathlib
import time

import numpy as np
import pytest

from qndsim.dynamics import (
    PulseSchedule,
    capture_mode_oracle,
    default_timestep,
    optimize_delay,
    output_mode_moments,
)
from qndsim.linalg import coherent, fidelity, ket_density, negativity, QuantumState
from qndsim.model import (
    SystemParams,
    build_model,
    gaussian_input_mode,
    ideal_params,
)
from qndsim.protocol import default_schedule, efficiency_scan, ideal_composite
from qndsim import tomography

import oracles
from oracles import default_params

MODE = gaussian_input_mode(500e-9)
N_IN = 0.165
SMALL_GRID = (0.0, 0.035, 0.07, 0.1)


def scorecard(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def relative_gap(a, b):
    return np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-8)


class TestAcceptance:
    def test_criterion_1_reflected_photon_number(self):
        start = time.monotonic()
        params = default_params()
        n_freq = oracles.reflected_photon_number(params, MODE, N_IN)
        model = build_model(params)
        delay = optimize_delay(params, MODE)
        sched = PulseSchedule(
            -400e-9, 700e-9, 800e-9, MODE,
            alpha_in=math.sqrt(N_IN), ramsey_gates=False,
        )
        ms = output_mode_moments(
            model, sched, output_mode=MODE.delayed(delay), delay=delay
        )
        elapsed = time.monotonic() - start
        ok = (
            abs(n_freq - 0.137) <= 0.003
            and abs(ms.mean_photon - n_freq) <= 0.002
            and elapsed < 60.0
        )
        line = scorecard(
            1, ok,
            f"n_out {n_freq:.4f} (target 0.137+-0.003), time-domain "
            f"{ms.mean_photon:.4f} (gap {abs(ms.mean_photon - n_freq):.4f} "
            f"<= 0.002), {elapsed:.0f}s < 60s",
        )
        assert ok, line

    def test_criterion_2_quantum_efficiency(self, request):
        start = time.monotonic()
        report = request.getfixturevalue("table_efficiency")
        elapsed = time.monotonic() - start
        ok = (
            0.81 <= report.eta <= 0.87
            and 0.010 <= report.dark_count <= 0.020
            and report.grid[-1] == 0.6
            and report.bending >= 0.05
            and elapsed < 600.0
        )
        line = scorecard(
            2, ok,
            f"eta {report.eta:.4f} in [0.81, 0.87], dark "
            f"{report.dark_count:.4f} in [0.010, 0.020], bending at 0.6 "
            f"{report.bending:.3f} >= 0.05, {elapsed:.0f}s < 600s",
        )
        assert ok, line

    def test_criterion_3_conditional_fidelities(self, request):
        result = request.getfixturevalue("table_run_n1")
        fid_vac = result.fidelity_vacuum
        fid_one = result.fidelity_single
        ok_vac = abs(fid_vac - 0.9894) <= 0.004
        ok_one = abs(fid_one - 0.82) <= 0.02
        line = scorecard(
            3, ok_vac and ok_one,
            f"heralded-vacuum fidelity {fid_vac:.4f} (target 0.9894+-0.004: "
            f"{'ok' if ok_vac else 'MISS'}), heralded-photon fidelity "
            f"{fid_one:.4f} (target 0.82+-0.02: {'ok' if ok_one else 'MISS'})",
        )
        assert ok_vac and ok_one, line

    def test_criterion_4_entanglement_ceiling(self, request):
        ceiling = negativity(ideal_composite(N_IN))
        simulated = request.getfixturevalue("table_run_n2").negativity
        ok = abs(ceiling - 0.346) <= 0.002 and 0.25 <= simulated <= 0.346
        line = scorecard(
            4, ok,
            f"ideal negativity {ceiling:.4f} (target 0.346+-0.002), "
            f"simulated {simulated:.4f} in [0.25, 0.346]",
        )
        assert ok, line

    def test_criterion_5_sweep_peaks(self):
        ratios = (0.7, 0.85, 1.0, 1.15, 1.3)
        etas_k = [
            efficiency_scan(
                ideal_params(kappa_ex_over_2chi=r),
                default_schedule(gate_interval=1600e-9),
                SMALL_GRID,
            ).eta
            for r in ratios
        ]
        peak_ratio = ratios[int(np.argmax(etas_k))]

        gates = (500e-9, 700e-9, 800e-9, 900e-9, 1100e-9)
        etas_g = [
            efficiency_scan(
                default_params(), default_schedule(gate_interval=g), SMALL_GRID
            ).eta
            for g in gates
        ]
        peak_gate = gates[int(np.argmax(etas_g))]

        ok = 0.85 <= peak_ratio <= 1.15 and 700e-9 <= peak_gate <= 900e-9
        line = scorecard(
            5, ok,
            f"coupling-rate peak at {peak_ratio:.2f}x the dispersive-shift "
            f"optimum (within 15%), gate-interval peak at "
            f"{peak_gate * 1e9:.0f} ns in [700, 900] ns",
        )
        assert ok, line

    def test_criterion_6_tomography_round_trips(self, request):
        record = request.getfixturevalue("coherent_loss_record")
        est = tomography.mle_reconstruct(record, correct_efficiency=False)
        n_hat = float(np.arange(5) @ tomography.photon_distribution(est))
        attenuated = QuantumState(
            ket_density(coherent(5, math.sqrt(0.43 * 0.137))), (5,)
        )
        fid = fidelity(est, attenuated)
        comp = request.getfixturevalue("composite_uncorrected")
        n_comp = negativity(comp)
        ok = (
            abs(n_hat - 0.058) <= 0.006
            and fid > 0.99
            and abs(n_comp - 0.159) <= 0.03
        )
        line = scorecard(
            6, ok,
            f"uncorrected coherent fit n {n_hat:.4f} (target 0.058+-0.006) "
            f"fidelity {fid:.4f} > 0.99, uncorrected composite negativity "
            f"{n_comp:.4f} (target 0.159+-0.03)",
        )
        assert ok, line

    def test_criterion_7_oracle_equivalence(self):
        def moment_gap(params, alpha):
            model = build_model(params)
            tau = optimize_delay(params, MODE)
            out = MODE.delayed(tau)
            sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=alpha)
            ms_reg = output_mode_moments(model, sched, output_mode=out, delay=tau)
            ms_cap = capture_mode_oracle(model, sched, output_mode=out, delay=tau)
            return float(relative_gap(ms_reg.moments, ms_cap.moments).max())

        gaps = [moment_gap(default_params(), math.sqrt(N_IN))]
        rng = np.random.default_rng(2026)
        for _ in range(10):
            chi = rng.uniform(1.05e6, 1.95e6)
            t1 = rng.uniform(20e-6, 60e-6)
            t2s = rng.uniform(0.5, 1.2) * t1
            params = SystemParams.from_hz(
                omega_c=10.62524e9, omega_q=7.8693e9, chi=chi,
                kappa_ex=rng.uniform(0.7, 1.3) * 2 * chi,
                kappa_in=rng.uniform(0.1e6, 0.5e6),
                T1=t1, T2_star=t2s,
                T2_echo=min(t2s * rng.uniform(1.0, 1.5), 1.9 * t1),
                p_th=rng.uniform(0.0, 0.1), n_th=rng.uniform(0.0, 1e-3),
            )
            gaps.append(moment_gap(params, math.sqrt(rng.uniform(0.08, 0.25))))

        params = default_params()
        model = build_model(params)
        tau = optimize_delay(params, MODE)
        out = MODE.delayed(tau)
        sched = PulseSchedule(
            -400e-9, 700e-9, 800e-9, MODE, alpha_in=math.sqrt(N_IN)
        )
        dt = default_timestep(params, MODE)
        ms1 = output_mode_moments(model, sched, output_mode=out, delay=tau, dt=dt)
        ms2 = output_mode_moments(
            model, sched, output_mode=out, delay=tau, dt=dt / 2
        )
        step_gap = float(relative_gap(ms1.moments, ms2.moments).max())

        ok = max(gaps) < 1e-3 and step_gap < 1e-4
        line = scorecard(
            7, ok,
            f"regression vs capture gap {max(gaps):.1e} < 1e-3 over reference "
            f"+ 10 random parameter sets, step-halving gap {step_gap:.1e} "
            f"< 1e-4",
        )
        assert ok, line

    def test_criterion_8_invariant_suites_present(self):
        here = pathlib.Path(__file__).parent
        suites = sorted(
            p.name for p in here.glob("test_*.py")
            if p.name not in ("test_acceptance.py",)
        )
        expected = {
            "test_cli.py", "test_dynamics.py", "test_kernels.py",
            "test_linalg.py", "test_model.py", "test_protocol.py",
            "test_tomography.py",
        }
        sources = {name: (here / name).read_text() for name in suites}
        families = {
            "trace/positivity": any(
                "trace" in s and "positiv" in s.lower() for s in sources.values()
            ),
            "completeness": "test_completeness_for_every_setting"
            in sources.get("test_tomography.py", ""),
            "likelihood monotonicity": "test_likelihood_history_monotone"
            in sources.get("test_tomography.py", ""),
            "decomposition identity": "test_decomposition_identity"
            in sources.get("test_protocol.py", ""),
        }
        n_tests = sum(s.count("def test_") for s in sources.values())
        ok = expected <= set(suites) and all(families.values())
        line = scorecard(
            8, ok,
            f"{len(suites)} invariant suites with {n_tests} tests, all four "
            f"named invariant families covered; total wall time reported by "
            f"the run summary (bound 30 min)",
        )
        assert ok, line
