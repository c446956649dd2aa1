"""Tests for propagation, gates, and output-mode moments."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from qndsim import dynamics
from qndsim.dynamics import (
    GATE_Y90,
    GATE_YM90,
    MomentSet,
    PulseSchedule,
    _check_monitors,
    _classical_shift,
    capture_mode_oracle,
    default_timestep,
    evolve,
    linear_reference,
    optimize_delay,
    output_mode_moments,
)
from qndsim.linalg import QuantumState, coherent, dag, fock, ket_density
from qndsim.model import build_model, gaussian_input_mode

import oracles
from oracles import default_params, ideal_params

MODE = gaussian_input_mode(500e-9)
N_IN = 0.165
ALPHA = math.sqrt(N_IN)


def ideal_qubit(p):
    return p.replace(T1=math.inf, T2_star=math.inf, T2_echo=math.inf, p_th=0.0)


@pytest.fixture(scope="module")
def table_delay():
    return optimize_delay(default_params(), MODE)


@pytest.fixture(scope="module")
def table_moments(table_delay, gates_off):
    p = default_params()
    m = build_model(p)
    sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
    out_mode = MODE.delayed(table_delay)
    with gates_off():
        return output_mode_moments(m, sched, output_mode=out_mode, delay=table_delay)


class TestPulseSchedule:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            PulseSchedule(0.0, 0.0, 1e-6, MODE)
        with pytest.raises(ValueError):
            PulseSchedule(0.0, 1e-6, 0.5e-6, MODE)

    def test_mean_input_photons(self):
        s = PulseSchedule(-1e-6, 0.0, 1e-6, MODE, alpha_in=0.3 + 0.4j)
        npt.assert_allclose(s.mean_input_photons, 0.25)


def apply_gate(state, gate):
    """Rotate the qubit (first subsystem) of state as the schedule driver does."""
    d = state.dim
    rho = dynamics._rotate_qubit(state.rho.reshape(-1), gate, d).reshape(d, d)
    return QuantumState(rho, state.dims)


class TestApplyGate:
    def test_ground_to_equator(self):
        psi = np.kron([1.0, 0.0], [1.0, 0.0, 0.0])
        state = QuantumState(ket_density(psi), (2, 3))
        out = apply_gate(state, GATE_Y90)
        plus = np.kron([1.0, 1.0], [1.0, 0.0, 0.0]) / math.sqrt(2)
        npt.assert_allclose(out.rho, ket_density(plus), atol=1e-12)

    def test_roundtrip_is_identity(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = m @ dag(m)
        rho /= np.trace(rho)
        state = QuantumState(rho, (2, 3))
        out = apply_gate(apply_gate(state, GATE_Y90), GATE_YM90)
        npt.assert_allclose(out.rho, rho, atol=1e-12)

    def test_minus_maps_to_excited(self):
        psi = np.kron([1.0, -1.0], [1.0, 0.0]) / math.sqrt(2)
        out = apply_gate(QuantumState(ket_density(psi), (2, 2)), GATE_YM90)
        npt.assert_allclose(out.rho[2:, 2:], np.diag([1.0, 0.0]), atol=1e-12)
        npt.assert_allclose(np.trace(out.rho[:2, :2]), 0.0, atol=1e-12)

    def test_matrices_are_inverse_pair(self):
        npt.assert_allclose(GATE_Y90 @ GATE_YM90, np.eye(2), atol=1e-15)


class TestEvolve:
    def test_dark_ideal_is_stationary(self, gates_off):
        p = ideal_qubit(default_params())
        m = build_model(p)
        sched = PulseSchedule(-200e-9, 0.0, 200e-9, MODE, alpha_in=0.0)
        with gates_off():
            traj = evolve(m, sched)[0]
        start = ket_density(np.kron([1.0, 0.0], fock(m.n_max + 1, 0)))
        npt.assert_allclose(traj.rho, start, atol=1e-12)

    def test_linear_cavity_matches_closed_form(self, gates_off):
        p = ideal_qubit(default_params()).replace(chi=0.0)
        m = build_model(p)
        t0 = -MODE.t[-1]  # the cavity is empty before the pulse starts
        kex, ktot = p.kappa_ex, p.kappa_tot
        # each time is the end t_f of its own run from t_i = -400 ns
        for t in (-100e-9, 200e-9, 500e-9, 800e-9):
            sched = PulseSchedule(-400e-9, t, t, MODE, alpha_in=ALPHA)
            with gates_off():
                traj = evolve(m, sched)[0]
            s = np.linspace(t0, t, 4001)
            integrand = np.exp(-ktot / 2 * (t - s)) * MODE.amplitude(-s)
            expected = -1j * math.sqrt(kex) * ALPHA * np.trapezoid(integrand, s)
            npt.assert_allclose(traj.expect(m.a), expected, atol=2e-6)
        cav = oracles.partial_trace(QuantumState(traj.rho, oracles.dims(m.n_max)), keep=(1,))
        purity = float(np.real(np.trace(cav.rho @ cav.rho)))
        assert purity > 1 - 1e-8
        pe = float(np.real(np.trace(traj.rho[8:, 8:])))
        assert pe < 1e-12

    def test_free_ramsey_pure_dephasing(self):
        p = default_params().replace(T1=math.inf, p_th=0.0)
        m = build_model(p)
        tau = 800e-9
        sched = PulseSchedule(-400e-9, 400e-9, 400e-9, MODE, alpha_in=0.0)
        traj = evolve(m, sched)[0]
        pe = float(np.real(traj.expect(m.sigma_ee)))
        expected = (1 - math.exp(-tau / p.T2_star)) / 2
        npt.assert_allclose(pe, expected, rtol=1e-7)

    def test_dark_count_with_relaxation(self):
        p = default_params()
        m = build_model(p)
        sched = PulseSchedule(-400e-9, 400e-9, 500e-9, MODE, alpha_in=0.0)
        traj = evolve(m, sched)[0]
        pe_f = float(np.real(traj.expect(m.sigma_ee)))
        tau = 800e-9
        pe_g = (1 - math.exp(-oracles.gamma_phi_tot(p) * tau)) / 2
        gsum = p.gamma_1 + p.gamma_2
        p_ss = p.gamma_2 / gsum
        expected = p_ss + (pe_g - p_ss) * math.exp(-gsum * 100e-9)
        npt.assert_allclose(pe_f, expected, rtol=1e-5)
        assert traj.max_trace_defect < 1e-8

    def test_truncation_monitor_trips(self, gates_off):
        p = ideal_qubit(default_params())
        m = build_model(p, n_max=3)
        short = gaussian_input_mode(300e-9)
        sched = PulseSchedule(-300e-9, 300e-9, 400e-9, short, alpha_in=math.sqrt(2.0))
        with gates_off(), pytest.raises(RuntimeError):
            evolve(m, sched)

    def test_nan_drive_trips_the_monitors(self, pulse_drive):
        # a NaN at one half-step sample turns the state into NaN from that
        # step on; the running maxima keep the NaN and the check refuses it.
        # No input amplitude: the prepared state is the vacuum, so the drive
        # is first read after t_i
        m = build_model(default_params())
        sched = PulseSchedule(-400e-9, 400e-9, 500e-9, MODE, alpha_in=0.0)
        calls = []

        def drive(tt):
            eps = np.zeros(tt.shape, dtype=complex)
            if not calls:
                eps[5] = np.nan
            calls.append(tt)
            return eps

        with pulse_drive(drive), pytest.raises(RuntimeError, match="evolve: trace drifted by nan"):
            evolve(m, sched)
        # the same holds per member and for the top-level check alone
        with pytest.raises(RuntimeError, match="top-level population nan"):
            _check_monitors("members", np.zeros(3), [(
                np.array([0.0, np.nan, 1e-9]),
                (1e-7, "top-level population", "raise the truncation dimension"),
            )])

    def test_qubit_coherence_with_coherent_cavity(self, gates_off, initial_state, timestep):
        # n_max = 7 leaves 4.6e-6 of |0.8> on the top level, above the monitor
        p = ideal_qubit(default_params()).replace(kappa_ex=0.0, kappa_in=0.0)
        m = build_model(p, n_max=10)
        alpha_c = 0.8
        psi = np.kron([1.0, 1.0], coherent(m.n_max + 1, alpha_c)) / math.sqrt(2)
        initial = QuantumState(ket_density(psi), oracles.dims(m.n_max))
        t_f = 430e-9
        sched = PulseSchedule(0.0, 215e-9, t_f, MODE, alpha_in=0.0)
        with gates_off(), initial_state(initial), timestep(2.5e-10):
            traj = evolve(m, sched)[0]
        val = 2 * traj.expect(oracles.sigma_ge(m.n_max))
        weights = np.abs(coherent(m.n_max + 1, alpha_c)) ** 2
        expected = np.sum(weights * np.exp(2j * p.chi * np.arange(m.n_max + 1) * t_f))
        npt.assert_allclose(val, expected, atol=1e-8)


class TestUniformIntegral:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11])
    def test_cubics_are_exact(self, n):
        c = np.array([0.3 - 1.0j, -2.0, 1.5 + 0.5j, 0.7j])  # c_k t^k
        t0, t1 = -0.4, 1.3
        t = np.linspace(t0, t1, n + 1)
        exact = sum(ck * (t1 ** (k + 1) - t0 ** (k + 1)) / (k + 1) for k, ck in enumerate(c))
        got = dynamics._uniform_integral(np.polyval(c[::-1], t), t1 - t0)
        npt.assert_allclose(got, exact, rtol=1e-13)

    def test_convergence_is_fourth_order(self):
        z = -1.0 + 3.0j
        exact = (np.exp(2.0 * z) - 1.0) / z  # integral of e^{z t} over [0, 2]

        def err(n):
            t = np.linspace(0.0, 2.0, n + 1)
            return abs(dynamics._uniform_integral(np.exp(z * t), 2.0) - exact)

        ratio = err(40) / err(80)
        assert 12 < ratio < 20, f"halving ratio {ratio}"

    def test_one_interval_is_refused(self):
        with pytest.raises(ValueError, match="at least two intervals"):
            dynamics._uniform_integral(np.ones(2), 1.0)

    def test_window_shorter_than_one_step(self):
        # a 2 ns window is shorter than the default step; the linear
        # cavity still takes the two steps the integral needs
        p = default_params()
        sched = PulseSchedule(0.0, 1e-9, 2e-9, MODE, alpha_in=ALPHA)
        out = MODE.delayed(100e-9)
        fine = linear_reference(p, sched, out, dt=1e-11)
        npt.assert_allclose(linear_reference(p, sched, out), fine, rtol=1e-7)


class TestLinearCavity:
    def test_one_step_form_matches_stagewise_rk4(self):
        # the delay search's grid, started from a nonzero amplitude
        p = default_params()
        t0, t1 = float(MODE.t[0]), float(MODE.t[-1]) + 5.0 / p.kappa_ex
        dt = default_timestep(p, MODE)
        a0 = 0.3 - 0.2j
        grid, alpha = dynamics._linear_cavity(p, MODE, ALPHA, t0, t1, dt, a0)
        nsteps = len(grid) - 1
        h = (t1 - t0) / nsteps
        eps = dynamics._pulse_drive(p, MODE, ALPHA, dynamics._half_grid(t0, nsteps, h))
        lam = -(1j * p.chi + p.kappa_tot / 2.0)
        want = [a0]
        for k in range(nsteps):
            a = want[-1]
            k1 = lam * a + eps[2 * k]
            k2 = lam * (a + h / 2 * k1) + eps[2 * k + 1]
            k3 = lam * (a + h / 2 * k2) + eps[2 * k + 1]
            k4 = lam * (a + h * k3) + eps[2 * k + 2]
            want.append(a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
        assert nsteps > 900
        npt.assert_array_equal(grid, t0 + np.arange(nsteps + 1) * h)
        npt.assert_allclose(alpha, want, rtol=0, atol=1e-14 * np.abs(want).max())


class TestDelayChoice:
    def test_table_parameters_delay(self, table_delay):
        assert 90e-9 < table_delay < 120e-9
        npt.assert_allclose(table_delay, 1.0814e-7, rtol=1e-3)

    def test_faster_cavity_means_shorter_delay(self, table_delay):
        p = default_params()
        fast = p.replace(kappa_ex=3 * p.kappa_ex)
        assert optimize_delay(fast, MODE) < table_delay


def _seeded_params(seed):
    """The reference set with chi and both cavity rates jittered."""
    rng = np.random.default_rng([seed, 15])
    p = default_params()
    return p.replace(
        chi=p.chi * rng.uniform(0.8, 1.25),
        kappa_ex=p.kappa_ex * rng.uniform(0.5, 2.0),
        kappa_in=p.kappa_in * rng.uniform(0.5, 2.0),
    )


def _traced(f, xs):
    def g(x):
        xs.append(x)
        return f(x)

    return g


def _scipy_bounded(f, lo, hi):
    from scipy.optimize import minimize_scalar

    xs = []
    res = minimize_scalar(
        _traced(f, xs), bounds=(lo, hi), method="bounded", options={"xatol": 1e-9}
    )
    assert res.success
    return float(res.x), xs


class TestBoundedBrent:
    """_bounded_brent against scipy's minimize_scalar(method="bounded")."""

    @pytest.mark.parametrize(
        "params",
        [default_params(), ideal_params(), *(_seeded_params(s) for s in (1, 2, 3))],
        ids=["reference", "ideal", "seed1", "seed2", "seed3"],
    )
    @pytest.mark.parametrize("fwhm", [300e-9, 500e-9, 800e-9])
    def test_delay_objective_matches_scipy_bit_for_bit(self, monkeypatch, params, fwhm):
        calls = []
        search = dynamics._bounded_brent

        def spy(f, lo, hi, xatol):
            calls.append((f, lo, hi, xatol))
            return search(f, lo, hi, xatol)

        monkeypatch.setattr(dynamics, "_bounded_brent", spy)
        tau = optimize_delay(params, gaussian_input_mode(fwhm))
        [(f, lo, hi, xatol)] = calls
        assert xatol == 1e-9
        xs = []
        ours = search(_traced(f, xs), lo, hi, xatol)
        ref, ref_xs = _scipy_bounded(f, lo, hi)
        assert xs == ref_xs
        assert tau == ours == ref

    @pytest.mark.parametrize(
        "f, lo, hi",
        [
            (lambda x: math.cos(3.0 * x) + 0.1 * x, 0.0, 2.0),  # interior minimum
            (lambda x: (x + 1.0) ** 2, 0.0, 1.0),  # minimum at the lower bound
        ],
        ids=["interior", "at_bound"],
    )
    def test_analytic_functions_match_scipy_bit_for_bit(self, f, lo, hi):
        xs = []
        ours = dynamics._bounded_brent(_traced(f, xs), lo, hi, 1e-9)
        ref, ref_xs = _scipy_bounded(f, lo, hi)
        assert xs == ref_xs
        assert ours == ref

    def test_nan_objective_raises(self, monkeypatch):
        linear_output = dynamics._linear_output

        def nan_output(*args):
            t_full, psi_out = linear_output(*args)
            return t_full, np.full_like(psi_out, np.nan)

        monkeypatch.setattr(dynamics, "_linear_output", nan_output)
        with pytest.raises(RuntimeError, match="delay search met a NaN objective"):
            optimize_delay(default_params(), MODE)

    def test_evaluation_cap_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DELAY_MAX_EVALS", 5)
        with pytest.raises(RuntimeError, match="did not converge in 5 evaluations"):
            optimize_delay(default_params(), MODE)


class TestOutputMoments:
    def test_vacuum_input(self, gates_off):
        p = ideal_qubit(default_params())
        m = build_model(p)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=0.0)
        with gates_off():
            ms = output_mode_moments(m, sched, delay=108e-9)
        npt.assert_allclose(ms.moments[0, 0, 0, 0].real, 1.0, atol=1e-10)
        assert abs(ms.mean_photon) < 1e-10
        assert abs(ms.moments[0, 0, 0, 1] + ms.moments[1, 1, 0, 1]) < 1e-10

    def test_lossless_linear_projection_is_coherent(self, gates_off):
        p = ideal_qubit(default_params()).replace(chi=0.0, kappa_in=0.0)
        m = build_model(p)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        tau = optimize_delay(p, MODE)
        with gates_off():
            ms = output_mode_moments(m, sched, delay=tau)
        n_proj = ms.mean_photon
        assert 0.99 * N_IN < n_proj <= N_IN * (1 + 1e-6)
        mean = ms.moments[0, 0, 0, 1] + ms.moments[1, 1, 0, 1]
        npt.assert_allclose(n_proj, abs(mean) ** 2, rtol=1e-5)
        m22 = ms.moments[0, 0, 2, 2] + ms.moments[1, 1, 2, 2]
        npt.assert_allclose(m22.real, abs(mean) ** 4, rtol=1e-4)
        npt.assert_allclose(ms.moments[0, 0, 0, 2], mean**2, rtol=1e-5)

    def test_ground_pinned_matches_linear_reference(self, table_delay, gates_off):
        p = ideal_qubit(default_params())
        m = build_model(p)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        out_mode = MODE.delayed(table_delay)
        with gates_off():
            ms = output_mode_moments(m, sched, output_mode=out_mode, delay=table_delay)
        a_ref = linear_reference(p, sched, out_mode)
        npt.assert_allclose(ms.moments[0, 0, 0, 1], a_ref, rtol=2e-5)
        npt.assert_allclose(ms.moments[0, 0, 1, 1], abs(a_ref) ** 2, rtol=2e-5)
        assert ms.phase_ref == pytest.approx(float(np.angle(a_ref)), abs=1e-9)

    def test_reflected_photons_match_spectral_filter(self, table_moments):
        n_freq = oracles.reflected_photon_number(default_params(), MODE, N_IN)
        assert abs(table_moments.mean_photon - n_freq) < 2e-3
        npt.assert_allclose(table_moments.mean_photon, 0.13818, atol=2e-4)

    def test_input_phase_gauge(self, table_delay, gates_off):
        p = default_params()
        m = build_model(p)
        out_mode = MODE.delayed(table_delay)
        theta = 0.77
        base = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        rot = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA * np.exp(1j * theta))
        with gates_off():
            ms0 = output_mode_moments(m, base, output_mode=out_mode, delay=table_delay)
            ms1 = output_mode_moments(m, rot, output_mode=out_mode, delay=table_delay)
        mean0 = ms0.moments[0, 0, 0, 1] + ms0.moments[1, 1, 0, 1]
        mean1 = ms1.moments[0, 0, 0, 1] + ms1.moments[1, 1, 0, 1]
        npt.assert_allclose(mean1, mean0 * np.exp(1j * theta), rtol=1e-9)
        npt.assert_allclose(ms1.mean_photon, ms0.mean_photon, rtol=1e-9)
        npt.assert_allclose(
            np.diagonal(ms1.moments[:, :, 0, 0]).real,
            np.diagonal(ms0.moments[:, :, 0, 0]).real,
            rtol=1e-9,
        )

    def test_weak_power_linearity(self, table_delay, gates_off):
        p = default_params()
        m = build_model(p)
        out_mode = MODE.delayed(table_delay)
        ratios = []
        for n_in in (0.005, 0.01, 0.02):
            sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=math.sqrt(n_in))
            with gates_off():
                ms = output_mode_moments(m, sched, output_mode=out_mode, delay=table_delay)
            ratios.append(ms.mean_photon / n_in)
        assert max(ratios) / min(ratios) < 1.01

    def test_grid_refinement(self, table_delay, timestep):
        p = default_params()
        m = build_model(p)
        out_mode = MODE.delayed(table_delay)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        dt = default_timestep(p, MODE)
        with timestep(dt):
            ms1 = output_mode_moments(m, sched, output_mode=out_mode, delay=table_delay)
        with timestep(dt / 2):
            ms2 = output_mode_moments(m, sched, output_mode=out_mode, delay=table_delay)
        err = np.abs(ms1.moments - ms2.moments) / (
            np.maximum(np.abs(ms1.moments), np.abs(ms2.moments)) + 1e-8
        )
        assert err.max() < 1e-4

    def test_rotation(self, table_moments):
        rot = table_moments.rotated()
        mean = rot.moments[0, 0, 0, 1] + rot.moments[1, 1, 0, 1]
        npt.assert_allclose(np.angle(mean), 0.0, atol=2e-2)
        npt.assert_allclose(rot.mean_photon, table_moments.mean_photon, rtol=1e-12)
        back = MomentSet(rot.moments, -table_moments.phase_ref).rotated()
        npt.assert_allclose(back.moments, table_moments.moments, atol=1e-12)


def _reference_shift(mb, c):
    """Moments of A + c from those of A, written out term by term."""
    out = np.zeros_like(mb)
    cbar = np.conjugate(c)
    for m in range(3):
        for n in range(3):
            acc = np.zeros(mb.shape[:2], dtype=complex)
            for j in range(m + 1):
                for k in range(n + 1):
                    acc += (
                        math.comb(m, j)
                        * math.comb(n, k)
                        * cbar ** (m - j)
                        * c ** (n - k)
                        * mb[:, :, j, k]
                    )
            out[:, :, m, n] = acc
    return out


class TestClassicalShift:
    @pytest.mark.parametrize("c", [0.0, 0.3 - 0.2j, 1.1j])
    def test_matches_term_by_term_sum(self, c):
        rng = np.random.default_rng(11)
        for _ in range(5):
            mb = rng.normal(size=(2, 2, 3, 3)) + 1j * rng.normal(size=(2, 2, 3, 3))
            ref = _reference_shift(mb, c)
            # relative to the largest entry: at |c| = 1.1 entries reach ~17
            npt.assert_allclose(
                _classical_shift(mb, c), ref, rtol=0, atol=1e-15 * np.abs(ref).max()
            )


class TestCaptureOracle:
    def test_vacuum_capture_stays_empty(self, gates_off):
        p = ideal_qubit(default_params())
        m = build_model(p)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=0.0)
        with gates_off():
            ms = capture_mode_oracle(m, sched, delay=108e-9, dim_b=4)
        assert abs(ms.mean_photon) < 1e-6

    def test_lossless_linear_capture(self, gates_off):
        p = ideal_qubit(default_params()).replace(chi=0.0, kappa_in=0.0)
        m = build_model(p)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        tau = optimize_delay(p, MODE)
        with gates_off():
            ms = capture_mode_oracle(m, sched, delay=tau)
        assert ms.mean_photon > 0.99 * N_IN

    def test_substep_cap_raises(self, monkeypatch, gates_off):
        # the first in-window step of this window needs 20 substeps; a cap
        # below that must refuse the run, not clamp the count
        p = ideal_qubit(default_params())
        m = build_model(p)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=0.0)
        monkeypatch.setattr(dynamics, "CAPTURE_MAX_SUBSTEPS", 19)
        with gates_off(), pytest.raises(
            RuntimeError, match=r"step 0 from t = -4\.000000e-07 s needs 20 substeps \(cap 19\)"
        ):
            capture_mode_oracle(m, sched, delay=108e-9, dim_b=4)

    @pytest.mark.parametrize("stiff", [False, True])
    def test_substep_counts_match_stepwise_search(self, monkeypatch, table_delay, stiff):
        # the criterion-7 reference draw, and an undriven cavity four times
        # slower, whose four times longer steps need twice the substeps
        if stiff:
            p = default_params()
            p = ideal_qubit(p).replace(kappa_ex=p.kappa_ex / 4, kappa_in=p.kappa_in / 4)
            m, alpha, delay, dim_b = build_model(p), 0.0, 108e-9, 4
        else:
            m, alpha, delay, dim_b = build_model(default_params()), ALPHA, table_delay, 7
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=alpha)
        seen = []

        def spy(label, blocks, x, schedule, dt, coeffs_for, d, monitors):
            seen.append((dt, coeffs_for))
            return run_schedule(label, blocks, x, schedule, dt, coeffs_for, d, monitors)

        run_schedule = dynamics._run_schedule
        monkeypatch.setattr(dynamics, "_run_schedule", spy)
        capture_mode_oracle(m, sched, delay=delay, dim_b=dim_b)
        (dt, coeffs_for), = seen
        # the oracle's fine grid and coupling magnitude, then its step loop
        t_fine = np.linspace(sched.t_i, sched.t_f, 64 * dynamics._segment_steps(1.2e-6, dt) + 1)
        inten = np.abs(dynamics._mode_u(MODE.delayed(delay), t_fine)) ** 2
        cum = np.concatenate([[0.0], np.cumsum((inten[1:] + inten[:-1]) / 2 * np.diff(t_fine))])
        g2_fine = inten / (dynamics.CAPTURE_EPS_FLOOR * cum[-1] + cum)
        # the substep times coeffs_for evaluates the pulse at
        times, mode_u = [], dynamics._mode_u
        monkeypatch.setattr(dynamics, "_mode_u", lambda mode, t: times.append(t) or mode_u(mode, t))
        most = 0
        for t0, t1 in ((sched.t_i, sched.t_g), (sched.t_g, sched.t_f)):
            nsteps = dynamics._segment_steps(t1 - t0, dt)
            dt_seg = (t1 - t0) / nsteps
            want = np.ones(nsteps, dtype=np.int64)
            for k in range(nsteps):
                lo = np.searchsorted(t_fine, t0 + k * dt_seg - 1e-15)
                hi = np.searchsorted(t_fine, t0 + (k + 1) * dt_seg + 1e-15)
                gmax = float(g2_fine[lo:hi].max()) if hi > lo else 0.0
                want[k] = max(1, int(math.ceil(dt_seg * gmax / 2.0)))
            times.clear()
            _, steps = coeffs_for(t0, nsteps, dt_seg)
            npt.assert_array_equal(steps, np.repeat(dt_seg / want, want))
            npt.assert_array_equal(times[0], np.concatenate([
                t0 + k * dt_seg + np.arange(2 * ns) * (dt_seg / (2 * ns))
                for k, ns in enumerate(want.tolist())
            ] + [[t0 + nsteps * dt_seg]]))
            most = max(most, want.max())
        assert most == (41 if stiff else 20)

    def test_shell_population_beyond_limit_raises(self, monkeypatch, table_delay):
        # the reference point fills the n + m = 7 shell to 8.7e-11 and the
        # top cavity level to 4.6e-14: a limit between the two trips only
        # the shell monitor
        m = build_model(default_params())
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        monkeypatch.setattr(dynamics, "TOP_LEVEL_MAX", 1e-11)
        with pytest.raises(
            RuntimeError,
            match=r"n \+ m = 7 shell population 8\.\d+e-11 exceeds 1e-11; raise n_max or dim_b",
        ):
            capture_mode_oracle(m, sched, output_mode=MODE.delayed(table_delay), delay=table_delay)

    def test_capture_top_population_beyond_limit_raises(self, monkeypatch, table_delay):
        # the reference point leaves 8.5e-9 on the capture mode's top level,
        # under TOP_LEVEL_MAX as are the shell and the top cavity level: a
        # lower CAPTURE_TOP_MAX trips only the capture-mode monitor
        m = build_model(default_params())
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        monkeypatch.setattr(dynamics, "CAPTURE_TOP_MAX", 1e-9)
        with pytest.raises(
            RuntimeError, match=r"capture-mode top population 8\.\d+e-09 exceeds 1e-09; raise dim_b"
        ):
            capture_mode_oracle(m, sched, output_mode=MODE.delayed(table_delay), delay=table_delay)

    def test_cap_within_truncation_error(self, table_delay):
        # one more level in each mode (n_max = 8, dim_b = 8, so n + m <= 8):
        # the largest relative move is 3.36e-6, the dim_b truncation error;
        # the cap n + m <= 7 itself moves the moments by 2.3e-8
        p = default_params()
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        out_mode = MODE.delayed(table_delay)
        a, b = (
            capture_mode_oracle(
                build_model(p, n_max=n_max), sched, output_mode=out_mode, delay=table_delay,
                dim_b=dim_b,
            ).moments
            for n_max, dim_b in ((7, 7), (8, 8))
        )
        gap = np.abs(a - b) / (np.maximum(np.abs(a), np.abs(b)) + 1e-8)
        assert gap.max() < 5e-6

    def test_matches_regression_route(self, table_delay):
        p = default_params()
        m = build_model(p)
        out_mode = MODE.delayed(table_delay)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        ms_reg = output_mode_moments(m, sched, output_mode=out_mode, delay=table_delay)
        ms_cap = capture_mode_oracle(m, sched, output_mode=out_mode, delay=table_delay)
        err = np.abs(ms_reg.moments - ms_cap.moments) / (
            np.maximum(np.abs(ms_reg.moments), np.abs(ms_cap.moments)) + 1e-8
        )
        assert err.max() < 1e-3
        npt.assert_allclose(ms_cap.mean_photon, ms_reg.mean_photon, rtol=1e-4)


class TestStepAccuracy:
    """default_timestep's error target, each gap against a quarter-step run."""

    @pytest.mark.parametrize(
        "params", [default_params(), ideal_params()], ids=["reference", "ideal"]
    )
    def test_default_step_meets_target(self, params, timestep):
        m = build_model(params)
        tau = optimize_delay(params, MODE)
        sched = PulseSchedule(-400e-9, 700e-9, 800e-9, MODE, alpha_in=ALPHA)
        dt = default_timestep(params, MODE)

        def figures(step):
            with timestep(step):
                ms = output_mode_moments(m, sched, output_mode=MODE.delayed(tau), delay=tau)
                rho = evolve(m, sched)[0].rho
            p_e = float(np.trace(rho[m.dim // 2:, m.dim // 2:]).real)
            return ms.moments, ms.phase_ref, p_e

        moments, phase, p_e = figures(dt)
        moments_q, phase_q, p_e_q = figures(dt / 4)
        assert np.abs(moments - moments_q).max() < 2e-9 * np.abs(moments_q).max()
        assert abs(phase - phase_q) < 2e-8
        assert abs(p_e - p_e_q) < 1e-9


class TestMeasurementBackaction:
    def test_coherence_decay_matches_rate_formula(self, gates_off, initial_state, pulse_drive):
        p = ideal_qubit(default_params())
        m = build_model(p)
        ndot = 1.0e6
        delta_d = 2 * math.pi * 0.16e6
        rate = oracles.drive_induced_dephasing(p, ndot, delta_d)
        amp = -1j * math.sqrt(p.kappa_ex * ndot)

        def drive(tt):
            return amp * np.exp(-1j * delta_d * tt)

        plus = np.kron([1.0, 1.0], fock(m.n_max + 1, 0)) / math.sqrt(2)
        initial = QuantumState(ket_density(plus), oracles.dims(m.n_max))
        t_a, t_b = 0.3e-6, 1.3e-6

        def log_coherence(t):
            sched = PulseSchedule(0.0, t, t, MODE, alpha_in=0.0)
            with gates_off(), initial_state(initial):
                coh = abs(evolve(m, sched)[0].expect(oracles.sigma_ge(m.n_max)))
            return math.log(max(coh, 1e-300))

        # two-point slopes of log|coherence| over [t_a, t_b], driven and not
        with pulse_drive(drive):
            slope = (log_coherence(t_b) - log_coherence(t_a)) / (t_b - t_a)
        slope0 = (log_coherence(t_b) - log_coherence(t_a)) / (t_b - t_a)
        measured = -(slope - slope0)
        npt.assert_allclose(measured, rate, rtol=0.05)
