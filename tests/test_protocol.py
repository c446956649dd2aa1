"""Tests for the detection sequence, efficiency extraction, and sweeps."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from qndsim import protocol
from qndsim.linalg import (
    QuantumState,
    dag,
    destroy,
    fidelity,
    fock,
    ket_density,
    negativity,
)
from qndsim.model import build_model, gaussian_input_mode, ideal_params
from qndsim.dynamics import PulseSchedule, evolve
from qndsim.protocol import (
    DEFAULT_FIT_GRID,
    SWEEP_AXES,
    ConditioningError,
    default_schedule,
    dressed_flip_probability,
    efficiency_scan,
    field_operator_from_moments,
    ideal_composite,
    run_protocol,
    sweep,
)

import oracles
from oracles import default_params

SMALL_GRID = (0.0, 0.035, 0.07, 0.1)
CLI_GRID = DEFAULT_FIT_GRID + (0.3, 0.45, 0.6)


def exact_moments(block: np.ndarray, order: int) -> np.ndarray:
    """Field moments of an operator supported on 0..dim-1, computed exactly."""
    dim = block.shape[0]
    big = dim + order + 1
    emb = np.zeros((big, big), dtype=complex)
    emb[:dim, :dim] = block
    a = destroy(big)
    ad = dag(a)
    out = np.empty((order + 1, order + 1), dtype=complex)
    for m in range(order + 1):
        for n in range(order + 1):
            out[m, n] = np.trace(emb @ np.linalg.matrix_power(ad, m)
                                 @ np.linalg.matrix_power(a, n))
    return out


class TestMomentInversion:
    def test_roundtrip_density_like(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = g @ dag(g)
            rho /= np.trace(rho).real
            rho *= rng.uniform(0.1, 1.0)
            rec = field_operator_from_moments(exact_moments(rho, 2))
            npt.assert_allclose(rec, rho, atol=1e-12)

    def test_roundtrip_offdiagonal_block(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            blk = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rec = field_operator_from_moments(exact_moments(blk, 2))
            npt.assert_allclose(rec, blk, atol=1e-12)

    def test_single_photon_reduces_to_direct_formulas(self):
        rng = np.random.default_rng(13)
        blk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = exact_moments(blk, 1)
        rec = field_operator_from_moments(m)
        # Tr[R a] contracts onto the subdiagonal, so the first-order moment
        # pair (m[0,1], m[1,0]) lands at (R[1,0], R[0,1])
        direct = np.array(
            [[m[0, 0] - m[1, 1], m[1, 0]], [m[0, 1], m[1, 1]]]
        )
        npt.assert_allclose(rec, direct, atol=1e-13)


class TestIdealComposite:
    def test_reference_negativity(self):
        n = negativity(ideal_composite(0.165))
        npt.assert_allclose(n, 0.346982, atol=1e-5)
        assert abs(n - 0.346) < 2e-3

    def test_schmidt_oracle(self):
        lam = 0.165
        w = np.array([math.exp(-lam) * lam**k / math.factorial(k)
                      for k in range(3)])
        w /= w.sum()
        c1 = math.sqrt(w[0] + w[2])
        c2 = math.sqrt(w[1])
        expected = ((c1 + c2) ** 2 - 1) / 2
        npt.assert_allclose(expected, math.sqrt((w[0] + w[2]) * w[1]), rtol=1e-12)
        npt.assert_allclose(
            negativity(ideal_composite(lam)), expected, atol=1e-12
        )

    def test_vacuum_input_is_product(self):
        st = ideal_composite(0.0)
        assert negativity(st) < 1e-12
        target = np.kron(ket_density(fock(2, 0)), ket_density(fock(3, 0)))
        npt.assert_allclose(st.rho, target, atol=1e-12)

    def test_single_photon_truncation(self):
        st = ideal_composite(0.165, n_ph=1)
        assert st.dims == (2, 2)
        lam = 0.165
        w = np.array([1.0, lam])
        w /= w.sum()
        npt.assert_allclose(
            negativity(st), math.sqrt(w[0] * w[1]), atol=1e-12
        )


class TestDressedFlip:
    def test_endpoints(self):
        p = default_params()
        npt.assert_allclose(dressed_flip_probability(0.0, p), p.eps_rg)
        npt.assert_allclose(dressed_flip_probability(1.0, p), 1.0 - p.eps_re)

    def test_ideal_is_identity(self):
        p = ideal_params()
        npt.assert_allclose(dressed_flip_probability(0.37, p), 0.37)


class TestRunProtocolTrivial:
    def test_dark_ideal_run(self):
        r = run_protocol(ideal_params(), default_schedule(0.0))
        assert r.p_e < 1e-12
        assert r.rho_e is None
        assert math.isnan(r.fidelity_single)
        npt.assert_allclose(r.rho_g.rho[0, 0].real, 1.0, atol=1e-9)
        assert r.negativity < 1e-9

    def test_truncation_validated(self):
        with pytest.raises(ValueError):
            run_protocol(default_params(), n_ph=0)
        with pytest.raises(ValueError):
            run_protocol(default_params(), n_ph=3)

    def test_degenerate_ground_branch(self):
        p = default_params().replace(eps_rg=1.0, eps_re=0.0)
        with pytest.raises(ConditioningError):
            run_protocol(p)


class TestRunProtocolReference:
    """The flagship operating point: 0.165 photons, 1100 ns interval."""

    def test_flip_probability(self, table_run_n2):
        r = table_run_n2
        npt.assert_allclose(r.p_e_raw, 0.14206659, rtol=2e-4)
        p = default_params()
        npt.assert_allclose(
            r.p_e, dressed_flip_probability(r.p_e_raw, p), rtol=1e-12
        )
        npt.assert_allclose(r.p_e, 0.14031382, rtol=2e-4)
        npt.assert_allclose(r.p_g + r.p_e, 1.0, rtol=1e-12)

    def test_survival(self, table_run_n2):
        assert 0.82 < table_run_n2.survival < 0.86
        npt.assert_allclose(table_run_n2.survival, 0.8339352, rtol=1e-3)

    def test_schedule_independent_bookkeeping(self, table_run_n2, table_run_n1):
        npt.assert_allclose(table_run_n1.p_e_raw, table_run_n2.p_e_raw, rtol=1e-12)
        npt.assert_allclose(table_run_n1.survival, table_run_n2.survival, rtol=1e-12)
        npt.assert_allclose(table_run_n2.delay, 1.0814162e-7, rtol=1e-3)

    def test_fidelities_two_photon(self, table_run_n2):
        npt.assert_allclose(table_run_n2.fidelity_vacuum, 0.9805405, atol=2e-3)
        npt.assert_allclose(table_run_n2.fidelity_single, 0.7646558, atol=2e-3)

    def test_fidelities_single_photon(self, table_run_n1):
        npt.assert_allclose(table_run_n1.fidelity_vacuum, 0.9725245, atol=2e-3)
        npt.assert_allclose(table_run_n1.fidelity_single, 0.8107536, atol=2e-3)

    def test_negativity(self, table_run_n2):
        assert 0.25 <= table_run_n2.negativity <= 0.346
        npt.assert_allclose(table_run_n2.negativity, 0.2874331, atol=5e-3)

    def test_fidelity_to_ideal(self, table_run_n2):
        npt.assert_allclose(table_run_n2.fidelity_ideal, 0.9516170, atol=5e-3)

    def test_decomposition_identity(self, table_run_n1, table_run_n2):
        for r, tol in ((table_run_n1, 1e-8), (table_run_n2, 5e-3)):
            lhs = r.p_g * r.rho_g.rho + r.p_e * r.rho_e.rho
            assert np.max(np.abs(lhs - r.rho_uncond.rho)) < tol

    def test_reduced_qubit_matches_propagation(self, table_run_n2):
        r = table_run_n2
        dim = r.n_ph + 1
        red = np.einsum("qaQa->qQ", r.comp_assembled.reshape(2, dim, 2, dim))
        p = default_params()
        m = build_model(p)
        rho_f = evolve(m, default_schedule())[0].rho
        rq = oracles.partial_trace(QuantumState(rho_f, (2, m.n_max + 1)), keep=(0,)).rho
        z = np.diag([1.0, -1.0])
        npt.assert_allclose(red, z @ rq @ z, atol=1e-8)

    def test_unconditional_matches_moments(self, table_run_n2):
        r = table_run_n2
        npt.assert_allclose(
            r.survival * r.n_in, r.moments.mean_photon, rtol=1e-12
        )
        npt.assert_allclose(r.phase_ref, 1.7231839, rtol=1e-5)

    def test_single_photon_fidelity_decreases_with_internal_loss(self):
        p = default_params()
        fids = []
        for kin_mhz in (0.05, 0.25, 0.6, 1.2, 2.4):
            r = run_protocol(
                p.replace(kappa_in=2 * math.pi * kin_mhz * 1e6), n_ph=1
            )
            fids.append(r.fidelity_single)
        assert all(a > b for a, b in zip(fids, fids[1:]))

    def test_fully_dephased_is_separable(self):
        p = default_params().replace(T2_star=50e-9, T2_echo=50e-9)
        r = run_protocol(p)
        assert r.negativity < 1e-3


class TestEfficiencyScan:
    def test_reference_point(self, table_efficiency):
        rep = table_efficiency
        assert 0.81 <= rep.eta <= 0.87
        npt.assert_allclose(rep.eta, 0.8218263, atol=2e-3)
        assert 0.010 <= rep.dark_count <= 0.020
        npt.assert_allclose(rep.dark_count, 0.0165076, rtol=2e-4)
        assert rep.residual_rms < 1e-4
        assert rep.curvature < 0

    def test_dark_count_analytic(self, table_efficiency):
        # free-precession excitation with relaxation, then readout dressing
        p = default_params()
        tau = 800e-9
        t_wait = 100e-9
        gamma_tot = p.gamma_phi + (1 + 2 * p.n_B) * p.gamma / 2
        p_g_t = (1 - math.exp(-gamma_tot * tau)) / 2
        rate = (1 + 2 * p.n_B) * p.gamma
        p_ss = p.n_B / (1 + 2 * p.n_B)
        p_f = p_ss + (p_g_t - p_ss) * math.exp(-rate * t_wait)
        expected = dressed_flip_probability(p_f, p)
        npt.assert_allclose(table_efficiency.dark_count, expected, rtol=1e-4)

    def test_dark_count_matches_direct_run(self, table_efficiency):
        p = default_params()
        model = build_model(p)
        sched = default_schedule(0.0, gate_interval=800e-9)
        traj = evolve(model, sched)[0]
        p_e = float(np.real(traj.expect(model.sigma_ee)))
        direct = dressed_flip_probability(p_e, p)
        assert abs(direct - table_efficiency.dark_count) < 1e-6

    def test_sublinear_bending(self, table_efficiency):
        assert table_efficiency.bending >= 0.05
        npt.assert_allclose(table_efficiency.bending, 0.3777, atol=0.03)

    def test_ideal_system_ceiling(self):
        rep = efficiency_scan(
            ideal_params(),
            default_schedule(gate_interval=1600e-9),
            DEFAULT_FIT_GRID,
        )
        assert rep.eta >= 0.98
        assert rep.dark_count < 1e-4
        assert rep.residual_rms < 1e-4

    def test_ideal_qubit_dark_count_vanishes(self):
        p = default_params().replace(
            T1=math.inf, T2_star=math.inf, T2_echo=math.inf,
            p_th=0.0, eps_rg=0.0, eps_re=0.0,
        )
        rep = efficiency_scan(p, None, SMALL_GRID)
        assert rep.dark_count < 1e-6

    def test_efficiency_bounded_on_random_parameters(self):
        rng = np.random.default_rng(7)
        p0 = default_params()
        for _ in range(100):
            chi = 2 * math.pi * rng.uniform(0.8e6, 3.0e6)
            kex = chi * rng.uniform(1.0, 4.0)
            t1 = rng.uniform(5e-6, 60e-6)
            p_th = rng.uniform(0.0, 0.03)
            n_b = p_th / (1 - 2 * p_th)
            rate_sum = (1 + 2 * n_b) / t1
            t2 = 1.0 / (rng.uniform(0.0, 1e5) + rate_sum / 2)
            p = p0.replace(
                chi=chi, kappa_ex=kex, kappa_in=kex * rng.uniform(0.0, 0.25),
                T1=t1, T2_star=t2, T2_echo=t2, p_th=p_th,
                eps_rg=rng.uniform(0.0, 0.01), eps_re=rng.uniform(0.0, 0.05),
            )
            rep = efficiency_scan(p, None, SMALL_GRID)
            assert -1e-6 <= rep.eta <= 1.0 + 1e-6

    @pytest.mark.parametrize("preset", ["reference", "ideal"])
    def test_batched_members_equal_single_runs(self, preset):
        p, interval = {
            "reference": (default_params(), 800e-9),
            "ideal": (ideal_params(), 1600e-9),
        }[preset]
        sched = default_schedule(gate_interval=interval)
        rep = efficiency_scan(p, sched, CLI_GRID)
        model = build_model(p)
        single = []
        for x in CLI_GRID:
            member = dataclasses.replace(sched, alpha_in=math.sqrt(x))
            traj = evolve(model, member)[0]
            p_e = float(np.real(traj.expect(model.sigma_ee)))
            single.append(dressed_flip_probability(p_e, p))
        npt.assert_allclose(rep.p_flip, single, rtol=1e-15, atol=0)
        # without a zero point the dark run is still the batch's first member
        no_zero = efficiency_scan(p, sched, CLI_GRID[1:])
        npt.assert_allclose(no_zero.dark_count, single[0], rtol=1e-15, atol=0)

    def test_members_monitored_separately(self):
        # the setup of test_truncation_monitor_trips: at n_max = 3 two input
        # photons overfill the top cavity level, while the weak members stay
        # far below the limit
        p = default_params().replace(T1=math.inf, T2_star=math.inf, T2_echo=math.inf, p_th=0.0)
        model = build_model(p, n_max=3)
        sched = PulseSchedule(-300e-9, 300e-9, 400e-9, gaussian_input_mode(300e-9),
                              ramsey_gates=False)
        weak = (0.002, 0.005, 0.01)
        batch = evolve(model, sched, [math.sqrt(x) for x in weak])
        for x, traj in zip(weak, batch, strict=True):
            alone = evolve(model, dataclasses.replace(sched, alpha_in=math.sqrt(x)))[0]
            assert alone.max_top_population < 1e-7
            npt.assert_allclose(traj.max_top_population, alone.max_top_population, rtol=1e-12)
            npt.assert_allclose(traj.max_trace_defect, alone.max_trace_defect, rtol=0, atol=1e-15)
        with pytest.raises(RuntimeError, match="top-level population"):
            evolve(model, dataclasses.replace(sched, alpha_in=math.sqrt(2.0)))
        with pytest.raises(RuntimeError, match="top-level population"):
            efficiency_scan(p, sched, (0.0,) + weak + (2.0,), n_max=3)

    def test_grid_validation(self):
        p = default_params()
        with pytest.raises(ValueError):
            efficiency_scan(p, None, (0.0, 0.05, 0.1))
        with pytest.raises(ValueError):
            efficiency_scan(p, None, (-0.01, 0.05, 0.1, 0.15))
        with pytest.raises(ValueError):
            efficiency_scan(p, None, (0.0, 0.2, 0.4, 0.6))
        # a NaN point would drop out of the driven members yet count as a
        # zero point, shifting p_flip against the grid
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                efficiency_scan(p, None, (0.0, 0.025, 0.05, bad, 0.1, 0.6))


class TestSweep:
    @pytest.fixture(scope="class")
    def interval_points(self):
        return sweep(
            default_params(),
            "gate_interval",
            [v * 1e-9 for v in (500, 700, 800, 900, 1100)],
            grid=SMALL_GRID,
        )

    def test_gate_interval_peak(self, interval_points):
        etas = [pt.eta for pt in interval_points]
        best_ns = round(interval_points[int(np.argmax(etas))].value * 1e9)
        assert 700 <= best_ns <= 900

    def test_dark_grows_with_interval(self, interval_points):
        darks = [pt.dark_count for pt in interval_points]
        assert all(a < b for a, b in zip(darks, darks[1:]))

    def test_survival_grows_with_interval(self, interval_points):
        # longer windows capture more of the delayed reflected mode
        surv = [pt.survival for pt in interval_points]
        assert all(a < b for a, b in zip(surv, surv[1:]))

    def test_coupling_peak_near_twice_shift(self):
        p = default_params().replace(
            T1=math.inf, T2_star=math.inf, T2_echo=math.inf,
            p_th=0.0, eps_rg=0.0, eps_re=0.0, kappa_in=0.0,
        )
        values = [f * p.chi for f in (1.0, 1.4, 1.7, 2.0, 2.3, 2.8, 3.4)]
        pts = sweep(p, "kappa_ex", values, grid=SMALL_GRID)
        best = pts[int(np.argmax([pt.eta for pt in pts]))].value
        assert abs(best - 2 * p.chi) <= 0.15 * 2 * p.chi

    def test_dark_growth_rate(self):
        p = default_params().replace(
            T1=math.inf, p_th=0.0, eps_rg=0.0, eps_re=0.0,
            T2_star=26e-6, T2_echo=26e-6,
        )
        taus = [400e-9, 800e-9, 1200e-9, 1600e-9]
        pts = sweep(p, "gate_interval", taus, grid=SMALL_GRID)
        ys = [-math.log(1 - 2 * pt.dark_count) for pt in pts]
        slope = sum(t * y for t, y in zip(taus, ys)) / sum(t * t for t in taus)
        npt.assert_allclose(slope, 1.0 / 26e-6, rtol=0.2)

    @pytest.mark.parametrize("value", [500e-9, 800e-9, 900e-9, 1100e-9])
    def test_gate_interval_axis_uses_default_schedule(self, value):
        _, sched = protocol._swept_configuration(
            default_params(), default_schedule(gate_interval=800e-9),
            "gate_interval", value,
        )
        ref = default_schedule(gate_interval=value)
        assert (sched.t_i, sched.t_g, sched.t_f, sched.alpha_in) == (
            ref.t_i, ref.t_g, ref.t_f, ref.alpha_in
        )

    def test_axis_validation(self):
        p = default_params()
        with pytest.raises(ValueError):
            sweep(p, "detuning", [1.0, 2.0])
        with pytest.raises(ValueError):
            sweep(p, "kappa_ex", [])
        assert "kappa_ex" in SWEEP_AXES
