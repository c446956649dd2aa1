import dataclasses
import math

import numpy as np
import pytest

from qndsim import model
from qndsim.model import (
    SystemParams,
    build_model,
    gaussian_input_mode,
    ideal_params,
    reflection_coefficient,
)

import oracles
from oracles import default_params

TWO_PI = 2 * np.pi


def lindblad_rhs(m, rho):
    out = -1j * (m.H @ rho - rho @ m.H)
    for c in m.collapse:
        cd = c.conj().T
        out += c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c)
    return out


class TestSystemParams:
    def test_derived_rates(self):
        p = default_params()
        assert abs(p.n_B - 0.067 / 1.134) < 1e-12
        assert abs(p.gamma - 1 / ((1 + 2 * p.n_B) * 32e-6)) < 1e-6
        assert abs(p.gamma_1 - p.gamma * (1 + p.n_B)) < 1e-6
        assert abs(p.gamma_2 - p.gamma * p.n_B) < 1e-6
        assert abs(p.gamma_phi - (1 / 26e-6 - 1 / 64e-6)) < 1e-6

    def test_total_dephasing_identity(self):
        # gamma_1 + gamma_2 = 1/T1, so gamma_phi_tot collapses to 1/T2*
        p = default_params()
        assert abs((p.gamma_1 + p.gamma_2) * p.T1 - 1.0) < 1e-12
        assert abs(oracles.gamma_phi_tot(p) * p.T2_star - 1.0) < 1e-12

    def test_half_relaxation_rate(self):
        p = default_params()
        assert abs((p.gamma_1 + p.gamma_2) / 2 - 15625.0) < 1e-6

    def test_infinite_times_give_zero_rates(self):
        p = ideal_params()
        assert p.gamma_1 == 0.0
        assert p.gamma_2 == 0.0
        assert oracles.gamma_phi_tot(p) == 0.0

    def test_validation(self):
        p = default_params()
        with pytest.raises(ValueError):
            p.replace(kappa_ex=-1.0)
        with pytest.raises(ValueError):
            p.replace(eps_re=1.5)
        with pytest.raises(ValueError):
            p.replace(T2_star=80e-6)  # exceeds 2*T1

    def test_from_hz_scaling(self):
        p = default_params()
        assert abs(p.chi - TWO_PI * 1.5e6) < 1e-6
        assert abs(p.kappa_tot - TWO_PI * 3.57e6) < 1e-3
        # exactly the HZ_FIELDS are scaled by 2 pi; every other field passes through
        kw = dict(
            omega_c=1.0, omega_q=2.0, chi=3.0, kappa_ex=4.0, kappa_in=5.0,
            anharmonicity=-6.0, T1=7.0, T2_star=8.0, T2_echo=9.0, p_th=0.1,
            n_th=0.2, eps_rg=0.3, eps_re=0.4, eta_meas=0.5,
        )
        assert set(kw) == {f.name for f in dataclasses.fields(SystemParams)}
        assert model.HZ_FIELDS == (
            "omega_c", "omega_q", "chi", "kappa_ex", "kappa_in", "anharmonicity",
        )
        q = SystemParams.from_hz(**kw)
        for name, value in kw.items():
            scale = model.TWO_PI if name in model.HZ_FIELDS else 1
            assert getattr(q, name) == scale * value, name
        del kw["anharmonicity"]
        assert SystemParams.from_hz(**kw).anharmonicity == model.TWO_PI * -0.344e9
        with pytest.raises(TypeError):
            SystemParams.from_hz(**kw, flux=1.0)
        with pytest.raises(TypeError):
            SystemParams.from_hz(omega_c=1.0)


class TestBuildModel:
    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            build_model(default_params(), n_max=2)

    def test_chi_zero_no_dissipation_is_stationary(self):
        p = ideal_params().replace(chi=0.0)
        m = build_model(p.replace(kappa_ex=0.0, kappa_in=0.0), n_max=3)
        rng = np.random.default_rng(3)
        a = rng.normal(size=(m.dim, m.dim)) + 1j * rng.normal(size=(m.dim, m.dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        assert np.max(np.abs(lindblad_rhs(m, rho))) < 1e-20

    def test_coherence_decay_rate_matches_ramsey_time(self):
        # vacuum cavity, qubit in |+>: d rho_ge / dt = -rho_ge / T2*
        p = default_params()
        m = build_model(p, n_max=3)
        dim_c = m.n_max + 1
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho_q = np.outer(plus, plus.conj())
        rho_c = np.zeros((dim_c, dim_c), dtype=complex)
        rho_c[0, 0] = 1.0
        rho = np.kron(rho_q, rho_c)
        deriv = lindblad_rhs(m, rho)
        rate = -deriv[0, dim_c] / rho[0, dim_c]
        assert abs(rate.real * p.T2_star - 1.0) < 1e-9
        assert abs(rate.imag) * p.T2_star < 1e-9

    def test_drift_shifts_cavity_by_qubit_state(self):
        # <g,1| H |g,1> = +chi, <e,1| H |e,1> = -chi
        p = default_params()
        m = build_model(p, n_max=3)
        dim_c = m.n_max + 1
        assert abs(m.H[1, 1] - p.chi) < 1e-9
        assert abs(m.H[dim_c + 1, dim_c + 1] + p.chi) < 1e-9

    def test_collapse_operator_count(self):
        m_full = build_model(default_params(), n_max=3)
        assert len(m_full.collapse) == 4
        m_ideal = build_model(ideal_params(), n_max=3)
        assert len(m_ideal.collapse) == 1  # only cavity decay


class TestGaussianMode:
    def test_peak_intensity_closed_form(self):
        mode = gaussian_input_mode(500e-9)
        peak = float(np.max(np.abs(mode.f)) ** 2)
        expected = math.sqrt(8 * math.log(2) / (math.pi * (500e-9) ** 2))
        assert abs(peak / expected - 1) < 1e-9
        assert abs(peak - 2.657e6) / 2.657e6 < 1e-3

    def test_norm(self):
        mode = gaussian_input_mode(500e-9)
        assert abs(np.sum(np.abs(mode.f) ** 2) * mode.dt - 1.0) < 1e-12

    def test_amplitude_fwhm_on_grid(self):
        l = 500e-9
        mode = gaussian_input_mode(l)
        amp = np.abs(mode.f)
        above = mode.t[amp >= amp.max() / 2]
        width = above[-1] - above[0]
        assert abs(width - l) <= 2 * mode.dt

    def test_delay_shifts_arrival(self):
        mode = gaussian_input_mode(500e-9)
        tau = 105e-9
        out = mode.delayed(tau)
        x = np.array([-150e-9, -10e-9, 80e-9])
        np.testing.assert_allclose(out.amplitude(x), mode.amplitude(x + tau), atol=1e-6)
        # lab-time weight g(-t) peaks tau later than f(-t)
        tt = np.linspace(-1e-6, 1e-6, 2001)
        w = np.abs(out.amplitude(-tt))
        assert abs(tt[np.argmax(w)] - tau) < 2e-9
        assert abs(np.sum(np.abs(out.f) ** 2) * out.dt - 1.0) < 1e-12

    def test_unnormalized_envelope_rejected(self):
        t = np.linspace(-1e-6, 1e-6, 401)
        with pytest.raises(ValueError):
            model.TemporalMode(
                t, np.ones_like(t, dtype=complex), lambda tt: np.ones_like(tt, dtype=complex)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_envelope_rejected(self, bad):
        mode = gaussian_input_mode(500e-9)
        f = mode.f.copy()
        f[len(f) // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            model.TemporalMode(mode.t, f, mode.func)


class TestReflectionCoefficient:
    def test_lossless_unit_modulus(self):
        p = default_params().replace(kappa_in=0.0)
        omega = p.omega_c + np.linspace(-5, 5, 101) * p.kappa_tot
        r = reflection_coefficient(p, "g", omega)
        assert np.max(np.abs(np.abs(r) - 1.0)) < 1e-12

    def test_resonance_dip(self):
        p = default_params()
        r = reflection_coefficient(p, "g", p.omega_c + p.chi)
        expected = ((p.kappa_ex - p.kappa_in) / (p.kappa_ex + p.kappa_in)) ** 2
        assert abs(abs(r) ** 2 - expected) < 1e-12
        assert abs(abs(r) ** 2 - 0.7395) < 1e-3

    def test_differential_phase(self):
        p = default_params()
        rg = reflection_coefficient(p, "g", p.omega_c)
        re = reflection_coefficient(p, "e", p.omega_c)
        dphi = float(np.angle(re) - np.angle(rg)) % (2 * np.pi)
        assert abs(dphi - 2.9454468368468) < 1e-10
        assert abs(dphi - np.pi) < 0.25

    def test_differential_phase_exactly_pi_at_matched_coupling(self):
        p = ideal_params()
        rg = reflection_coefficient(p, "g", p.omega_c)
        re = reflection_coefficient(p, "e", p.omega_c)
        dphi = float(np.angle(re) - np.angle(rg)) % (2 * np.pi)
        assert abs(dphi - np.pi) < 1e-12

    def test_spectrum_symmetry_about_resonance(self):
        p = default_params()
        delta = np.linspace(0.1, 5, 40) * p.kappa_tot
        up = np.abs(reflection_coefficient(p, "g", p.omega_c + p.chi + delta))
        down = np.abs(reflection_coefficient(p, "g", p.omega_c + p.chi - delta))
        assert np.max(np.abs(up - down)) < 1e-12

    def test_bad_qubit_state(self):
        with pytest.raises(ValueError):
            reflection_coefficient(default_params(), "x", 0.0)


class TestDriveInducedDephasing:
    def test_zero_flux(self):
        assert oracles.drive_induced_dephasing(default_params(), 0.0, 0.0) == 0.0

    def test_linearity(self):
        p = default_params()
        d = TWO_PI * 0.16e6
        rate = oracles.drive_induced_dephasing
        assert abs(rate(p, 2e6, d) - 2 * rate(p, 1e6, d)) < 1e-6

    def test_value_from_stepwise_evaluation(self):
        p = default_params()
        delta_d = TWO_PI * 0.16e6
        ndot = 1e6
        kt = p.kappa_tot
        n_plus = p.kappa_ex * ndot / (kt**2 / 4 + (delta_d + p.chi) ** 2)
        n_minus = p.kappa_ex * ndot / (kt**2 / 4 + (delta_d - p.chi) ** 2)
        lorentz = kt * p.chi**2 / (kt**2 / 4 + p.chi**2 + delta_d**2)
        got = oracles.drive_induced_dephasing(p, ndot, delta_d)
        assert abs(got - lorentz * (n_plus + n_minus)) < 1e-6
        assert abs(got - 1.8018e6) / 1.8018e6 < 1e-3


class TestReflectedPhotonNumber:
    def test_reference_value(self):
        p = default_params()
        mode = gaussian_input_mode(500e-9)
        n_out = oracles.reflected_photon_number(p, mode, 0.165)
        assert abs(n_out - 0.137) < 0.003
        assert abs(n_out - 0.13919462) < 5e-6

    def test_lossless_identity(self):
        p = default_params().replace(kappa_in=0.0)
        mode = gaussian_input_mode(500e-9)
        assert abs(oracles.reflected_photon_number(p, mode, 0.165) - 0.165) < 1e-9

    def test_narrowband_resonant_limit(self):
        # chi = 0 puts the g resonance on the carrier: |r_g|^2 on resonance
        p = default_params().replace(chi=0.0)
        mode = gaussian_input_mode(20e-6)
        ratio = oracles.reflected_photon_number(p, mode, 1.0)
        assert abs(ratio - 0.7395) < 1e-3

    def test_narrowband_carrier_limit(self):
        # carrier between the two dressed resonances: limit is |r_g(omega_c)|^2
        p = default_params()
        mode = gaussian_input_mode(20e-6)
        ratio = oracles.reflected_photon_number(p, mode, 1.0)
        target = abs(reflection_coefficient(p, "g", p.omega_c)) ** 2
        assert abs(ratio - target) < 1e-3

    def test_monotone_in_internal_loss(self):
        p = default_params()
        mode = gaussian_input_mode(500e-9)
        values = [
            oracles.reflected_photon_number(p.replace(kappa_in=TWO_PI * k), mode, 0.165)
            for k in [0.0, 0.1e6, 0.25e6, 0.5e6, 1.0e6]
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

