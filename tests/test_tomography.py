"""Tests for quadrature POVMs, sampling, MLE reconstruction, and Wigner maps."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_genlaguerre
from scipy.stats import chi2

from qndsim import tomography as tg
from qndsim.linalg import (
    QuantumState,
    coherent,
    fidelity,
    fock,
    ket_density,
    negativity,
)
from qndsim.protocol import ideal_composite

import oracles

GRID = tg.default_grid()
STEP = GRID[1] - GRID[0]


def pure(ket, dims=None):
    rho = ket_density(ket)
    return QuantumState(rho, dims or (rho.shape[0],))


def padded(state: QuantumState, n: int) -> QuantumState:
    rho = np.zeros((n, n), dtype=complex)
    d = state.dim
    rho[:d, :d] = state.rho
    return QuantumState(rho, (n,))


def smear_mode(state: QuantumState, eta: float) -> QuantumState:
    """Loss channel on the mode factor of a (2, d) or (d,) state."""
    if len(state.dims) == 1:
        d = state.dim
        out = np.zeros_like(state.rho)
        for a_k in tg.loss_kraus(d, eta):
            out += a_k @ state.rho @ a_k.conj().T
        return QuantumState(out, state.dims)
    d = state.dims[1]
    r = state.rho.reshape(2, d, 2, d)
    out = np.zeros_like(r)
    for a_k in tg.loss_kraus(d, eta):
        out += np.einsum("mn,qnQl,kl->qmQk", a_k, r, a_k.conj())
    return QuantumState(out.reshape(2 * d, 2 * d), state.dims)


VACUUM = pure(fock(5, 0))
ONE = pure(fock(5, 1))
COH137 = pure(coherent(5, math.sqrt(0.137)))
WIGNER_GRID = np.linspace(-3.0, 3.0, 61)  # the grid protocol writes the Wigner functions on


# session fixtures coherent_loss_record / composite_tomo provide the heavy
# sampled records and reconstructions shared with the acceptance suite


def dense_map(stack):
    """(probabilities, adjoint) of a dense stack of measurement operators."""
    flat = stack.reshape(len(stack), -1)
    return (
        lambda rho: np.real(flat @ rho.T.ravel()),
        lambda w: (w @ flat).reshape(stack.shape[1:]),
    )


def per_phase_povm(theta, eta, n_tomo, x):
    """Quadrature bins built at phase theta, then loss-smeared and renormalized."""
    psi = tg.hermite_functions(n_tomo, x)
    levels = np.arange(n_tomo)
    phase = np.exp(1j * theta * (levels[None, :] - levels[:, None]))
    ideal = np.einsum("mb,nb->bmn", psi, psi) * phase * (x[1] - x[0])
    smeared = sum(
        np.einsum("nm,bnk,kl->bml", a_k, ideal, a_k)
        for a_k in tg.loss_kraus(n_tomo, eta)
    )
    evals, evecs = np.linalg.eigh(smeared.sum(axis=0))
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return np.einsum("ij,bjk,kl->bil", inv_sqrt, smeared, inv_sqrt)


def dense_stack(record, eta):
    """Every setting's measurement operators stacked, in record order."""
    per_phase = [
        per_phase_povm(t, eta, record.n_tomo, record.x_centers)
        for t in record.thetas
    ]
    if record.qubit_basis is None:
        return np.concatenate(per_phase)
    d = 2 * record.n_tomo
    return np.concatenate([
        np.einsum("pq,bmn->bpmqn", (np.eye(2) + sign * tg._PAULI[basis]) / 2, els)
        .reshape(-1, d, d)
        for basis, els in zip(record.qubit_basis, per_phase)
        for sign in (1.0, -1.0)
    ])


def iteration_counts(monkeypatch):
    """Record the iteration count of every fit the library runs."""
    counts = []
    loop = tg.mle_iterations

    def counted(*args):
        out = loop(*args)
        counts.append(out[2])
        return out

    monkeypatch.setattr(tg, "mle_iterations", counted)
    return counts


class TestBuildPovm:
    def test_completeness_for_every_setting(self):
        for theta in (0.0, 0.31, 1.0, math.pi / 2, 2.4, 3.1):
            for eta in (1.0, 0.8, 0.43):
                povm = tg.build_povm(theta, eta)
                defect = np.abs(povm.elements.sum(axis=0) - np.eye(5)).max()
                assert defect < 1e-6

    def test_elements_positive_semidefinite(self):
        for theta in (0.0, 0.7, 2.0):
            povm = tg.build_povm(theta, 0.43)
            for el in povm.elements[::25]:
                assert np.linalg.eigvalsh(el).min() > -1e-12

    def test_elements_hermitian(self):
        povm = tg.build_povm(1.3, 0.8)
        np.testing.assert_allclose(
            povm.elements, np.conj(np.transpose(povm.elements, (0, 2, 1))),
            atol=1e-14,
        )

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValueError, match="too narrow"):
            tg.build_povm(0.0, 1.0, 5, np.linspace(-2.0, 2.0, 81))

    def test_minimum_level_count_enforced(self):
        with pytest.raises(ValueError, match="2 Fock levels"):
            tg.build_povm(0.0, 1.0, 1)

    def test_nonuniform_grid_rejected(self):
        bad = np.concatenate([np.linspace(-5, 0, 100), np.linspace(0.2, 5, 101)])
        with pytest.raises(ValueError, match="uniform"):
            tg.build_povm(0.0, 1.0, 5, bad)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError, match="efficiency"):
            tg.build_povm(0.0, 0.0)
        with pytest.raises(ValueError, match="efficiency"):
            tg.build_povm(0.0, 1.2)

    def test_vacuum_pdf_is_standard_normal_half_variance(self):
        povm = tg.build_povm(0.4, 1.0)
        pdf = np.einsum("bij,ji->b", povm.elements, VACUUM.rho).real / STEP
        ref = np.exp(-GRID**2) / math.sqrt(math.pi)
        np.testing.assert_allclose(pdf, ref, atol=1e-8)
        var = float(np.sum(pdf * STEP * GRID**2))
        np.testing.assert_allclose(var, 0.5, atol=1e-9)

    def test_single_photon_pdf_vanishes_at_origin(self):
        povm = tg.build_povm(1.1, 1.0)
        pdf = np.einsum("bij,ji->b", povm.elements, ONE.rho).real / STEP
        ref = 2.0 / math.sqrt(math.pi) * GRID**2 * np.exp(-(GRID**2))
        np.testing.assert_allclose(pdf, ref, atol=1e-8)
        assert pdf[100] < 1e-20

    def test_coherent_mean_scaled_by_loss_transmittance(self):
        rng = np.random.default_rng(3)
        lower = np.diag(np.sqrt(np.arange(1, 5)), k=1)
        for _ in range(5):
            alpha = (rng.normal(scale=0.3) + 1j * rng.normal(scale=0.3))
            theta = rng.uniform(0, math.pi)
            state = pure(coherent(5, alpha))
            mean_a = complex(np.trace(lower @ state.rho))
            for eta in (1.0, 0.43):
                povm = tg.build_povm(theta, eta)
                probs = np.einsum("bij,ji->b", povm.elements, state.rho).real
                mean = float(np.sum(probs * GRID))
                expect = math.sqrt(2 * eta) * (mean_a * np.exp(1j * theta)).real
                np.testing.assert_allclose(mean, expect, atol=1e-7)

    def test_loss_kraus_trace_preserving(self):
        for eta in (0.43, 0.8, 1.0):
            ops = tg.loss_kraus(5, eta)
            total = sum(a.conj().T @ a for a in ops)
            np.testing.assert_allclose(total, np.eye(5), atol=1e-13)


class TestSharedBinSet:
    """Every phase's bins are the real phase-0 bins rotated by D(theta)."""

    SHORT_GRID = np.linspace(-5.0, 5.0, 41)

    def test_rotated_bins_equal_per_phase_build(self):
        for eta in (1.0, 0.43):
            for n in (3, 5):
                bins = tg._build_povm_any_dim(eta, n, GRID).elements
                assert bins.dtype == np.float64
                for theta in tg.phase_settings(100):
                    d_theta = np.diag(np.exp(-1j * theta * np.arange(n)))
                    rotated = d_theta @ bins @ d_theta.conj().T
                    ref = per_phase_povm(theta, eta, n, GRID)
                    assert np.max(np.abs(rotated - ref)) <= 1e-14
                    povm = tg.build_povm(theta, eta, n, GRID).elements
                    assert np.max(np.abs(rotated - povm)) <= 1e-14

    def _dense_counts(self, record, rho, shots, seed):
        probs = np.real(np.einsum("bij,ji->b", dense_stack(record, record.eta), rho))
        rows = probs.reshape(record.counts.shape[0], -1)
        drawn = []
        for j, p in enumerate(rows):
            p = np.clip(p, 0.0, None)
            drawn.append(tg._setting_rng(seed, j).multinomial(shots, p / p.sum()))
        return np.array(drawn).reshape(record.counts.shape)

    def _check_fits(self, record, monkeypatch):
        counts = iteration_counts(monkeypatch)
        d = 2 * record.n_tomo if record.qubit_basis else record.n_tomo
        freqs = (
            record.counts.reshape(record.n_settings, -1) / record.shots[:, None]
        ).ravel()
        for correct in (False, True):
            est = tg.mle_reconstruct(record, correct_efficiency=correct)
            fit_iterations = counts[-1]
            eta = record.eta if correct else 1.0
            rho, _, n_iter, _ = tg.mle_iterations(
                *dense_map(dense_stack(record, eta)),
                freqs,
                np.eye(d, dtype=complex) / d,
                record.n_settings,
                tg.DEFAULT_ITERATIONS,
                tg.LIKELIHOOD_TOL,
                tg.PROB_FLOOR,
            )
            assert fit_iterations == n_iter
            assert np.max(np.abs(est.rho - rho)) <= 1e-12

    def test_single_mode_sampling_and_fits_match_dense_stack(self, monkeypatch, quadrature_grid):
        thetas = tg.phase_settings(tg.MIN_PHASES)
        with quadrature_grid(self.SHORT_GRID):
            rec = tg.sample(COH137, thetas, 2_000, eta=0.43, seed=3)
        np.testing.assert_array_equal(
            rec.counts, self._dense_counts(rec, COH137.rho, 2_000, 3)
        )
        self._check_fits(rec, monkeypatch)

    def test_composite_sampling_and_fits_match_dense_stack(self, monkeypatch, quadrature_grid):
        state = ideal_composite(0.165)
        with quadrature_grid(self.SHORT_GRID):
            rec = tg.sample(state, tg.phase_settings(tg.MIN_PHASES), 500, eta=0.43, seed=4)
        np.testing.assert_array_equal(
            rec.counts, self._dense_counts(rec, state.rho, 500, 4)
        )
        self._check_fits(rec, monkeypatch)


class TestSampling:
    def test_reproducible_under_fixed_seed(self):
        a = tg.sample(VACUUM, [0.0, 1.0], 5000, seed=5)
        b = tg.sample(VACUUM, [0.0, 1.0], 5000, seed=5)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_leading_settings_share_streams(self):
        solo = tg.sample(VACUUM, [0.4], 5000, seed=9)
        pair = tg.sample(VACUUM, [0.4, 1.3], 5000, seed=9)
        np.testing.assert_array_equal(solo.counts[0], pair.counts[0])

    def test_histogram_totals_match_shots(self):
        rec = tg.sample(COH137, tg.phase_settings(21), 3000, seed=2)
        np.testing.assert_array_equal(rec.shots, 3000)

    def test_vacuum_sample_moments(self):
        shots = 10_000
        rec = tg.sample(VACUUM, [0.0, 0.9], shots, seed=7)
        for row in rec.counts:
            mean = float(row @ GRID) / shots
            var = float(row @ GRID**2) / shots - mean**2
            assert abs(mean) < 3.0 * math.sqrt(0.5 / shots)
            assert abs(var - 0.5) < 3.0 * math.sqrt(2.0) * 0.5 / math.sqrt(shots)

    def test_real_coherent_means_flip_sign_between_0_and_pi(self):
        state = pure(coherent(5, 0.5))
        rec = tg.sample(state, [0.0, math.pi], 10_000, seed=6)
        m0 = float(rec.counts[0] @ GRID) / 10_000
        m1 = float(rec.counts[1] @ GRID) / 10_000
        assert m0 > 0.4 and m1 < -0.4

    def test_qubit_mode_state_measured_in_every_basis(self):
        thetas = [0.0, 0.9]
        rec = tg.sample(ideal_composite(0.165), thetas, 50, seed=2)
        assert rec.qubit_basis == ("X", "X", "Y", "Y", "Z", "Z")
        np.testing.assert_array_equal(rec.thetas, np.tile(thetas, 3))
        assert rec.n_tomo == tg.N_TOMO_COMPOSITE
        assert rec.counts.shape == (6, 2, tg.DEFAULT_BINS)

    @pytest.mark.parametrize("dims", [(3, 2), (2, 2, 2)])
    def test_other_dims_rejected(self, dims):
        # neither a mode (d,) nor a qubit-mode state (2, d)
        d = math.prod(dims)
        state = QuantumState(np.eye(d) / d, dims)
        with pytest.raises(ValueError, match=re.escape(f"(d,) or (2, d), got {dims}")):
            tg.sample(state, [0.0], 10)

    def test_state_larger_than_reconstruction_space_rejected(self):
        big = pure(coherent(7, 0.3))
        with pytest.raises(ValueError, match="exceeds"):
            tg.sample(big, [0.0], 100)

    def test_three_level_sampling_space(self, tomo_levels):
        mode = pure(coherent(3, 0.3))
        with tomo_levels(3):
            rec = tg.sample(mode, tg.phase_settings(21), 2_000, seed=4)
        assert rec.n_tomo == 3
        est = tg.mle_reconstruct(rec)
        assert est.dim == 3
        assert fidelity(est, mode) > 0.98

    def test_single_photon_histogram_chi_square(self):
        # Binned goodness-of-fit against the analytic loss-smeared pdf at
        # the 1% level; expectation-starved tail bins are pooled.
        eta, shots = 0.43, 10_000
        rec = tg.sample(ONE, [0.7], shots, eta=eta, seed=13)
        p1 = 2.0 / math.sqrt(math.pi) * GRID**2 * np.exp(-(GRID**2))
        p0 = np.exp(-GRID**2) / math.sqrt(math.pi)
        expected = shots * (eta * p1 + (1 - eta) * p0) * STEP
        observed = rec.counts[0].astype(float)
        lo = np.searchsorted(np.cumsum(expected), 5.0)
        hi = len(expected) - np.searchsorted(np.cumsum(expected[::-1]), 5.0)
        obs = np.concatenate(
            [[observed[:lo].sum()], observed[lo:hi], [observed[hi:].sum()]]
        )
        exp = np.concatenate(
            [[expected[:lo].sum()], expected[lo:hi], [expected[hi:].sum()]]
        )
        stat = float(np.sum((obs - exp) ** 2 / exp))
        p_value = float(chi2.sf(stat, obs.size - 1))
        assert p_value > 0.01


class TestMleReconstruct:
    def test_vacuum_data_returns_vacuum(self):
        rec = tg.sample(VACUUM, tg.phase_settings(100), 10_000, seed=11)
        est = tg.mle_reconstruct(rec)
        assert fidelity(est, padded(VACUUM, 5)) > 0.995

    def test_uncorrected_reconstruction_sees_attenuated_state(
        self, coherent_loss_record
    ):
        est = tg.mle_reconstruct(coherent_loss_record, correct_efficiency=False)
        n_hat = float(np.arange(5) @ tg.photon_distribution(est))
        assert abs(n_hat - 0.058) < 0.006
        attenuated = pure(coherent(5, math.sqrt(0.43 * 0.137)))
        assert fidelity(est, attenuated) > 0.99

    def test_corrected_reconstruction_round_trips_photon_number(
        self, coherent_loss_record
    ):
        est = tg.mle_reconstruct(coherent_loss_record)
        n_hat = float(np.arange(5) @ tg.photon_distribution(est))
        assert abs(n_hat - 0.137) < 0.01

    def test_round_trip_fidelity_with_matched_efficiency(self):
        states = {
            "vacuum": VACUUM,
            "single_photon": ONE,
            "weak_coherent": COH137,
            "thermal": QuantumState(oracles.thermal(5, 0.1), (5,)),
        }
        for i, (name, state) in enumerate(states.items()):
            rec = tg.sample(
                state, tg.phase_settings(100), 10_000, eta=0.43, seed=40 + i
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = tg.mle_reconstruct(rec)
            f = fidelity(est, padded(state, 5))
            assert f > 0.98, f"{name}: fidelity {f:.4f}"

    def test_efficiency_correction_consistency(self):
        clean = tg.sample(COH137, tg.phase_settings(40), 10_000, seed=31)
        lossy = tg.sample(COH137, tg.phase_settings(40), 10_000, eta=0.43, seed=32)
        est_clean = tg.mle_reconstruct(clean)
        est_corr = tg.mle_reconstruct(lossy)
        assert fidelity(est_clean, est_corr) > 0.99

    def test_likelihood_history_monotone(self):
        rec = tg.sample(COH137, tg.phase_settings(25), 2_000, seed=17)
        povms = [
            tg.build_povm(t, 1.0, rec.n_tomo, rec.x_centers) for t in rec.thetas
        ]
        stack = np.concatenate([p.elements for p in povms], axis=0)
        freqs = (rec.counts / rec.shots[:, None]).ravel()
        _, logliks, _, _ = tg.mle_iterations(
            *dense_map(stack),
            freqs.astype(np.float64),
            np.eye(5, dtype=complex) / 5,
            rec.n_settings,
            500,
            tg.LIKELIHOOD_TOL,
            tg.PROB_FLOOR,
        )
        gains = np.diff(logliks)
        assert np.all(gains > -1e-9 * np.maximum(1.0, np.abs(logliks[:-1])))

    def test_fits_are_likelihood_fixed_points(self):
        # qndbench's first tomo record, judged with this file's own
        # per-phase operators: one more R rho R step gains no more than the
        # stop allows, and each fit is at least as likely as the state that
        # made the data (attenuated for the uncorrected fit).
        rec = tg.sample(
            COH137, tg.phase_settings(tg.MIN_PHASES), 10_000, eta=0.43, seed=1
        )
        freqs = (rec.counts / rec.shots[:, None]).ravel()
        seen = freqs > 0
        for correct, truth in ((False, smear_mode(COH137, 0.43)), (True, COH137)):
            probabilities, adjoint = dense_map(
                dense_stack(rec, rec.eta if correct else 1.0)
            )

            def loglik(rho):
                return float(freqs[seen] @ np.log(probabilities(rho)[seen]))

            est = tg.mle_reconstruct(rec, correct_efficiency=correct).rho
            p = probabilities(est)
            r_op = adjoint(np.where(seen, freqs / p, 0.0) / rec.n_settings)
            step = r_op @ est @ r_op
            step = (step + step.conj().T) / 2
            step /= np.trace(step).real
            gain = float(freqs[seen] @ np.log(probabilities(step)[seen] / p[seen]))
            assert gain <= 1.02 * tg.LIKELIHOOD_TOL
            assert loglik(est) >= loglik(truth.rho)

    def test_iteration_cap_warns(self):
        thetas = tg.phase_settings(tg.MIN_PHASES)
        rec = tg.sample(COH137, thetas, 10_000, eta=0.43, seed=1)
        composite = tg.sample(ideal_composite(0.165), thetas, 500, eta=0.43, seed=1)
        for record in (rec, composite):
            with pytest.warns(RuntimeWarning, match="5-iteration cap") as caught:
                tg.mle_reconstruct(record, iterations=5)
            # the warning points at the line that called the fit
            assert [w.filename for w in caught] == [__file__]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tg.mle_reconstruct(rec)

    def test_zero_iterations_rejected(self):
        rec = tg.sample(VACUUM, tg.phase_settings(tg.MIN_PHASES), 100, seed=1)
        with pytest.raises(ValueError, match="at least 1 iteration"):
            tg.mle_reconstruct(rec, iterations=0)

    def test_stray_count_in_dead_bin_is_regularized(self):
        rec = tg.sample(VACUUM, tg.phase_settings(25), 5_000, seed=19)
        tampered = rec.counts.copy()
        tampered[0, -1] += 1  # an outcome far outside the vacuum support
        rec2 = tg.MeasurementRecord(
            rec.thetas, tampered, rec.x_centers, rec.eta, rec.n_tomo
        )
        est = tg.mle_reconstruct(rec2)
        assert fidelity(est, padded(VACUUM, 5)) > 0.99

    def test_too_few_phases_rejected(self):
        rec = tg.sample(VACUUM, tg.phase_settings(19), 100, seed=1)
        with pytest.raises(ValueError, match="phases"):
            tg.mle_reconstruct(rec)

    def test_empty_setting_rejected(self):
        # 0/0 frequencies would stop the fit at its first iteration and
        # return the maximally mixed start
        rec = tg.sample(VACUUM, tg.phase_settings(20), 200, seed=3)
        counts = rec.counts.copy()
        counts[3] = 0
        empty = tg.MeasurementRecord(
            rec.thetas, counts, rec.x_centers, rec.eta, rec.n_tomo
        )
        with pytest.raises(ValueError, match=r"setting 3 \(phase 0\.471239 rad\) has no shots"):
            tg.mle_reconstruct(empty)


class TestRotatedBins:
    """The fits' bin map, checked on its own rather than through fits."""

    @pytest.mark.parametrize("eta", [1.0, 0.43])
    @pytest.mark.parametrize("composite", [False, True])
    def test_adjoint_is_transpose_of_forward_map(self, eta, composite):
        # w . p(rho) = Re Tr[R(w) rho] for Hermitian rho and real weights w
        rng = np.random.default_rng(29)
        thetas = tg.phase_settings(tg.MIN_PHASES)
        if composite:
            n, d = 3, 6
            basis = tuple(b for b in tg.QUBIT_BASES for _ in thetas)
            thetas = np.tile(thetas, len(tg.QUBIT_BASES))
        else:
            n, d, basis = 5, 5, None
        bins = tg._build_povm_any_dim(eta, n, GRID).elements
        rotated = tg._RotatedBins(bins, thetas, basis)
        for _ in range(5):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = a + a.conj().T
            p = rotated.probabilities(rho)
            w = rng.normal(size=p.size)
            r_op = rotated.adjoint(w)
            scale = float(np.abs(w) @ np.abs(p))
            assert abs(w @ p - np.trace(r_op @ rho).real) <= 1e-13 * scale
            assert np.max(np.abs(r_op - r_op.conj().T)) <= 1e-13 * np.max(np.abs(r_op))


class TestStopCadence:
    """The R rho R stop test runs every _STOP_EVERY accepted steps, yet the
    gain a fit returns is always the one at the returned iterate."""

    @staticmethod
    def _problem():
        rec = tg.sample(
            COH137, tg.phase_settings(tg.MIN_PHASES), 10_000, eta=0.43, seed=1
        )
        bins = tg._build_povm_any_dim(rec.eta, rec.n_tomo, rec.x_centers)
        rotated = tg._RotatedBins(bins.elements, rec.thetas)
        freqs = (rec.counts / rec.shots[:, None]).ravel()
        return rotated, freqs, rec.n_settings

    @staticmethod
    def _fresh_gain(rotated, freqs, n_settings, rho):
        seen = freqs > 0
        p = np.maximum(rotated.probabilities(rho), tg.PROB_FLOOR)
        r_op = rotated.adjoint(freqs / p / n_settings)
        step = r_op @ rho @ r_op
        p_step = np.maximum(
            rotated.probabilities(step / np.trace(step).real), tg.PROB_FLOOR
        )
        return float(freqs[seen] @ np.log(p_step[seen] / p[seen]))

    def _fit(self, problem, cap):
        rotated, freqs, n_settings = problem
        return tg.mle_iterations(
            rotated.probabilities,
            rotated.adjoint,
            freqs,
            np.eye(5, dtype=complex) / 5,
            n_settings,
            cap,
            tg.LIKELIHOOD_TOL,
            tg.PROB_FLOOR,
        )

    def test_capped_gain_is_taken_at_returned_iterate(self):
        # caps on and off the cadence (7 is off it): the fit needs ~80
        # iterations here, so every cap is reached
        problem = self._problem()
        for cap in range(1, 2 * tg._STOP_EVERY + 2):
            rho, _, n_iter, gain = self._fit(problem, cap)
            assert n_iter == cap
            assert gain >= tg.LIKELIHOOD_TOL
            assert gain == pytest.approx(self._fresh_gain(*problem, rho), rel=1e-12)

    def test_converged_gain_is_below_tolerance(self):
        problem = self._problem()
        rho, _, n_iter, gain = self._fit(problem, tg.DEFAULT_ITERATIONS)
        assert n_iter < tg.DEFAULT_ITERATIONS
        assert gain < tg.LIKELIHOOD_TOL
        assert gain == pytest.approx(self._fresh_gain(*problem, rho), rel=1e-12)


class TestImports:
    def test_sampling_and_fits_import_no_scipy(self, tmp_path):
        # a fresh process: this test session has loaded scipy itself
        code = (
            "import math, sys\n"
            "from qndsim import tomography as tg\n"
            "from qndsim.linalg import QuantumState, coherent, ket_density\n"
            "cal = QuantumState(ket_density(coherent(5, math.sqrt(0.137))), (5,))\n"
            "rec = tg.sample(cal, tg.phase_settings(tg.MIN_PHASES), 2_000, eta=0.43, seed=1)\n"
            "tg.write_record(rec, sys.argv[1] + '.csv', sys.argv[1] + '.json')\n"
            "tg.mle_reconstruct(rec, correct_efficiency=False)\n"
            "tg.mle_reconstruct(rec)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(tg.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "record")],
            env=env, capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines() == ["[]"]


class TestCompositeMle:
    def test_product_state_has_no_entanglement(self):
        rho = np.kron(
            np.diag([1.0, 0.0]).astype(complex), ket_density(fock(3, 0))
        )
        state = QuantumState(rho, (2, 3))
        rec = tg.sample(state, tg.phase_settings(20), 2_000, seed=23)
        est = tg.mle_reconstruct(rec)
        assert negativity(est) < 0.01

    def test_corrected_negativity_recovers_input(self, composite_tomo):
        state, _, est = composite_tomo
        assert abs(negativity(est) - negativity(state)) < 0.03

    def test_uncorrected_negativity_matches_smeared_truth(
        self, composite_tomo, composite_uncorrected
    ):
        state, record, _ = composite_tomo
        est = composite_uncorrected
        n_est = negativity(est)
        truth = negativity(smear_mode(state, 0.43))
        assert abs(n_est - truth) < 0.01
        assert abs(n_est - 0.159) < 0.03

    def test_reduced_mode_state_consistent_with_direct_reconstruction(
        self, composite_tomo, tomo_levels
    ):
        # The single-system reconstruction lives in the same three-level
        # space as the composite run's mode sector.
        state, _, est = composite_tomo
        mode_only = oracles.partial_trace(state, [1])
        with tomo_levels(3):
            rec = tg.sample(mode_only, tg.phase_settings(100), 10_000, eta=0.43, seed=27)
        direct = tg.mle_reconstruct(rec)
        delta = oracles.partial_trace(est, [1]).rho - direct.rho
        td = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
        assert td < 1e-2

    def test_reduced_qubit_state_consistent_with_linear_inversion(
        self, composite_tomo
    ):
        _, record, est = composite_tomo
        paulis = {"X": tg._PAULI["X"], "Y": tg._PAULI["Y"], "Z": tg._PAULI["Z"]}
        rho_q = np.eye(2, dtype=complex) / 2
        for name, op in paulis.items():
            sel = [b == name for b in record.qubit_basis]
            block = record.counts[sel]
            plus, minus = block[:, 0].sum(), block[:, 1].sum()
            rho_q += (plus - minus) / (plus + minus) * op / 2
        delta = oracles.partial_trace(est, [0]).rho - rho_q
        td = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
        assert td < 1e-2

    def test_missing_basis_rejected(self, composite_tomo):
        _, record, _ = composite_tomo
        n = record.n_settings
        crippled = tg.MeasurementRecord(
            record.thetas,
            record.counts,
            record.x_centers,
            record.eta,
            record.n_tomo,
            qubit_basis=("X",) * n,
        )
        with pytest.raises(ValueError, match="missing qubit basis"):
            tg.mle_reconstruct(crippled)

    def test_unknown_basis_label_rejected(self):
        with pytest.raises(ValueError, match="unknown qubit basis 'W'"):
            tg.MeasurementRecord(
                np.arange(4.0),
                np.zeros((4, 2, 5)),
                np.linspace(-5, 5, 5),
                1.0,
                3,
                qubit_basis=("X", "W", "V", "Z"),
            )

    def test_composite_counts_shape_validated(self):
        with pytest.raises(ValueError, match="settings, 2, bins"):
            tg.MeasurementRecord(
                np.array([0.0]),
                np.zeros((1, 5)),
                np.linspace(-5, 5, 5),
                1.0,
                3,
                qubit_basis=("Z",),
            )


class TestWigner:
    def test_vacuum_central_value_and_norm(self):
        w = tg.wigner(VACUUM, WIGNER_GRID)
        np.testing.assert_allclose(w[30, 30], 2 / math.pi, rtol=1e-12)
        dx = 0.1
        assert abs(w.sum() * dx * dx - 1.0) < 1e-3

    def test_single_photon_negative_at_origin(self):
        w = tg.wigner(ONE, WIGNER_GRID)
        np.testing.assert_allclose(w[30, 30], -2 / math.pi, rtol=1e-12)
        dx = 0.1
        assert abs(w.sum() * dx * dx - 1.0) < 1e-3

    def test_coherent_state_is_displaced_gaussian(self):
        alpha = 1.1 + 0.4j
        state = pure(coherent(14, alpha))
        grid = np.linspace(-3, 3, 61)
        w = tg.wigner(state, grid)
        x, p = np.meshgrid(grid, grid, indexing="ij")
        ref = 2 / math.pi * np.exp(
            -2 * ((x - alpha.real) ** 2 + (p - alpha.imag) ** 2)
        )
        np.testing.assert_allclose(w, ref, atol=2e-3)
        i, j = np.unravel_index(np.argmax(w), w.shape)
        assert (grid[i], grid[j]) == (pytest.approx(1.1), pytest.approx(0.4))

    def test_superposition_field_is_real_and_normalized(self):
        state = pure(fock(5, 0) + fock(5, 1))
        w = tg.wigner(state, WIGNER_GRID)
        assert w.dtype == np.float64
        assert abs(w.sum() * 0.01 - 1.0) < 1e-3

    def test_custom_grid_shape(self):
        g = np.linspace(-4, 4, 33)
        w = tg.wigner(VACUUM, g)
        assert w.shape == (33, 33)

    def test_laguerre_matches_scipy_bit_for_bit(self):
        # every (degree, order) a 14-level state reaches, over |2 alpha|^2
        # on and beyond the default grid
        r = np.linspace(0.0, 80.0, 401)
        for n in range(14):
            for k in range(14 - n):
                np.testing.assert_array_equal(
                    tg._genlaguerre(n, k, r), eval_genlaguerre(n, k, r), err_msg=f"n {n}, k {k}"
                )


class TestPhotonDistribution:
    def test_weak_coherent_distribution(self):
        state = pure(coherent(5, math.sqrt(0.165)))
        dist = tg.photon_distribution(state)
        np.testing.assert_allclose(
            dist[:3], [0.8479, 0.1399, 0.0115], atol=5e-5
        )
        np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)

    def test_single_photon_distribution(self):
        np.testing.assert_allclose(
            tg.photon_distribution(ONE), [0, 1, 0, 0, 0], atol=1e-12
        )

    def test_heralded_ground_state_is_mostly_vacuum(self, table_run_n2):
        dist = tg.photon_distribution(table_run_n2.rho_g)
        np.testing.assert_allclose(dist[0], 0.98054, atol=2e-3)
        assert dist[0] > 0.97

    def test_composite_state_rejected(self):
        with pytest.raises(ValueError, match="single-mode"):
            tg.photon_distribution(ideal_composite(0.165))


class TestSerialization:
    def test_single_mode_round_trip(self, tmp_path):
        rec = tg.sample(COH137, tg.phase_settings(21), 500, eta=0.43, seed=3)
        csv_p, json_p = tmp_path / "rec.csv", tmp_path / "rec.json"
        tg.write_record(rec, csv_p, json_p)
        back = tg.read_record(csv_p, json_p)
        np.testing.assert_array_equal(back.counts, rec.counts)
        np.testing.assert_allclose(back.thetas, rec.thetas)
        np.testing.assert_allclose(back.x_centers, rec.x_centers)
        assert back.eta == rec.eta
        assert back.n_tomo == rec.n_tomo
        assert back.qubit_basis is None
        assert back.seed == 3

    def test_composite_round_trip(self, tmp_path):
        state = ideal_composite(0.165)
        rec = tg.sample(state, tg.phase_settings(20), 200, seed=8)
        csv_p, json_p = tmp_path / "rec.csv", tmp_path / "rec.json"
        tg.write_record(rec, csv_p, json_p)
        back = tg.read_record(csv_p, json_p)
        np.testing.assert_array_equal(back.counts, rec.counts)
        assert back.qubit_basis == rec.qubit_basis
        assert back.counts.shape == (60, 2, 201)

    def test_sidecar_theta_count_must_match_csv(self, tmp_path):
        rec = tg.sample(ideal_composite(0.165), tg.phase_settings(20), 20, seed=8)
        csv_p, json_p = tmp_path / "rec.csv", tmp_path / "rec.json"
        tg.write_record(rec, csv_p, json_p)
        meta = json.loads(json_p.read_text())
        meta["thetas"].pop()
        json_p.write_text(json.dumps(meta))
        msg = "record has 120 setting ids but its sidecar's 59 thetas need 118"
        with pytest.raises(ValueError, match=msg):
            tg.read_record(csv_p, json_p)

    def test_csv_rows_are_setting_center_count(self, tmp_path):
        rec = tg.sample(VACUUM, [0.0], 50, seed=1)
        csv_p, json_p = tmp_path / "rec.csv", tmp_path / "rec.json"
        tg.write_record(rec, csv_p, json_p)
        lines = csv_p.read_text().splitlines()
        assert lines[0] == "setting,bin_center,count"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == -5.0
        assert len(lines) == 1 + 201

    def test_mismatched_header_rejected(self, tmp_path):
        rec = tg.sample(VACUUM, [0.0], 50, seed=1)
        csv_p, json_p = tmp_path / "rec.csv", tmp_path / "rec.json"
        tg.write_record(rec, csv_p, json_p)
        body = csv_p.read_text().splitlines()
        body[0] = "a,b,c"
        csv_p.write_text("\n".join(body) + "\n")
        with pytest.raises(ValueError, match="header"):
            tg.read_record(csv_p, json_p)

    @pytest.mark.parametrize("new", ["25", "-1"])
    def test_setting_ids_must_be_contiguous(self, tmp_path, new):
        rec = tg.sample(VACUUM, tg.phase_settings(tg.MIN_PHASES), 50, seed=1)
        csv_p, json_p = tmp_path / "rec.csv", tmp_path / "rec.json"
        tg.write_record(rec, csv_p, json_p)
        body = csv_p.read_text().splitlines()
        # the last of the 20 setting ids, 19, takes the id new
        body = [new + line[2:] if line.startswith("19,") else line for line in body]
        csv_p.write_text("\n".join(body) + "\n")
        with pytest.raises(ValueError, match=f"setting id {new}"):
            tg.read_record(csv_p, json_p)

    def test_wigner_csv_layout(self, tmp_path):
        grid = np.linspace(-1, 1, 5)
        w = tg.wigner(VACUUM, grid)
        path = tmp_path / "wigner.csv"
        tg.write_wigner(path, grid, w)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,p,W"
        assert len(lines) == 1 + 25
        x, p, val = lines[1].split(",")
        assert (float(x), float(p)) == (-1.0, -1.0)
        np.testing.assert_allclose(float(val), w[0, 0])

    def test_wigner_csv_bytes_match_csv_writer(self, tmp_path):
        # write_wigner and write_record give csv.writer's bytes for the same rows
        grid = np.linspace(-3, 3, 13)
        w = tg.wigner(VACUUM, grid)
        tg.write_wigner(tmp_path / "wigner.csv", grid, w)
        cases = [(
            "wigner.csv",
            ["x", "p", "W"],
            [
                [f"{x:.17g}", f"{p:.17g}", f"{w[i, j]:.17g}"]
                for i, x in enumerate(grid)
                for j, p in enumerate(grid)
            ],
        )]
        records = {
            "single.csv": tg.sample(COH137, [0.0, 1.0], 50, eta=0.43, seed=3),
            "composite.csv": tg.sample(
                ideal_composite(0.165), [0.0, 1.0], 20, seed=8
            ),
        }
        for name, rec in records.items():
            tg.write_record(rec, tmp_path / name, tmp_path / "meta.json")
            flat = rec.counts.reshape(-1, rec.x_centers.size)
            rows = [
                [sid, f"{center:.17g}", int(count)]
                for sid, row in enumerate(flat)
                for center, count in zip(rec.x_centers, row)
            ]
            cases.append((name, ["setting", "bin_center", "count"], rows))
        for name, header, rows in cases:
            ref = io.StringIO(newline="")
            writer = csv.writer(ref)
            writer.writerow(header)
            writer.writerows(rows)
            assert (tmp_path / name).read_bytes() == ref.getvalue().encode(), name

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            tg.MeasurementRecord(
                np.array([0.0]),
                np.array([[1, -1, 0]]),
                np.array([-1.0, 0.0, 1.0]),
                1.0,
                5,
            )

    def test_bin_axis_must_match_centers(self):
        with pytest.raises(ValueError, match="3 bins but x_centers has 50"):
            tg.MeasurementRecord(
                np.array([0.0]),
                np.ones((1, 3), dtype=int),
                np.linspace(-5, 5, 50),
                1.0,
                5,
            )

    def test_non_uniform_grid_rejected(self):
        # write_record keeps only x_min, x_max and n_bins, from which
        # read_record rebuilds a uniform grid of at least 2 bins
        near_miss = tg.default_grid().copy()
        near_miss[150] += 1e-5  # would read back as 2.5
        for centers in ([-5.0, -1.0, 0.0, 2.0, 5.0], near_miss, [0.0], []):
            with pytest.raises(ValueError, match="x_centers is not a uniform grid"):
                tg.MeasurementRecord(
                    np.array([0.0]),
                    np.ones((1, len(centers)), dtype=int),
                    np.array(centers),
                    1.0,
                    5,
                )

    def test_row_count_must_match_settings(self):
        with pytest.raises(ValueError, match="per setting"):
            tg.MeasurementRecord(
                np.array([0.0, 1.0]),
                np.ones((3, 4), dtype=int),
                np.linspace(-5, 5, 4),
                1.0,
                5,
            )
