import numpy as np
import pytest

from qndsim.linalg import (
    NumericalError,
    QuantumState,
    clip_and_renormalize,
    coherent,
    destroy,
    fidelity,
    fock,
    ket_density,
    negativity,
    partial_transpose,
)

import oracles


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_state():
    psi = (np.kron(fock(2, 0), fock(2, 0)) + np.kron(fock(2, 1), fock(2, 1))) / np.sqrt(2)
    return QuantumState(ket_density(psi), (2, 2))


class TestQuantumState:
    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            QuantumState(rho, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            QuantumState(np.eye(2, dtype=complex), (2,))

    def test_repairs_tiny_negative_eigenvalue(self):
        rho = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        with pytest.warns(RuntimeWarning):
            s = QuantumState(rho, (2,))
        evals = np.linalg.eigvalsh(s.rho)
        assert evals.min() >= 0
        assert abs(np.trace(s.rho) - 1) < 1e-14

    def test_rejects_large_negative_eigenvalue(self):
        rho = np.diag([1.0 + 1e-6, -1e-6]).astype(complex)
        with pytest.raises(NumericalError):
            QuantumState(rho, (2,))

    def test_clip_and_renormalize_windows(self):
        rho = np.diag([1.0 + 2e-4, -2e-4]).astype(complex)
        with pytest.warns(RuntimeWarning):
            out = clip_and_renormalize(rho, warn_above=1e-9, error_above=5e-3)
        assert np.linalg.eigvalsh(out).min() >= 0
        assert abs(np.trace(out) - 1) < 1e-14
        with pytest.raises(NumericalError):
            clip_and_renormalize(
                np.diag([1.0, -1e-2]).astype(complex), warn_above=1e-9, error_above=5e-3
            )


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho_a = random_density(rng, 2)
            rho_b = random_density(rng, 3)
            s = QuantumState(np.kron(rho_a, rho_b), (2, 3))
            np.testing.assert_allclose(oracles.partial_trace(s, [0]).rho, rho_a, atol=1e-12)
            np.testing.assert_allclose(oracles.partial_trace(s, [1]).rho, rho_b, atol=1e-12)

    def test_bell_marginals(self):
        s = bell_state()
        for side in (0, 1):
            reduced = oracles.partial_trace(s, [side]).rho
            np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_index_summation_oracle(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 6)
        s = QuantumState(rho, (2, 3))
        t = rho.reshape(2, 3, 2, 3)
        keep_a = np.einsum("ikjk->ij", t)
        keep_b = np.einsum("kikj->ij", t)
        np.testing.assert_allclose(oracles.partial_trace(s, [0]).rho, keep_a, atol=1e-12)
        np.testing.assert_allclose(oracles.partial_trace(s, [1]).rho, keep_b, atol=1e-12)

    def test_three_subsystem_keep_two(self):
        rng = np.random.default_rng(17)
        parts = [random_density(rng, d) for d in (2, 2, 3)]
        s = QuantumState(np.kron(np.kron(parts[0], parts[1]), parts[2]), (2, 2, 3))
        reduced = oracles.partial_trace(s, [0, 2])
        np.testing.assert_allclose(reduced.rho, np.kron(parts[0], parts[2]), atol=1e-12)

    def test_empty_keep_raises(self):
        s = bell_state()
        with pytest.raises(ValueError):
            oracles.partial_trace(s, [])


class TestPartialTranspose:
    def test_product_state_spectrum(self):
        rng = np.random.default_rng(19)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        s = QuantumState(np.kron(rho_a, rho_b), (2, 3))
        pt = partial_transpose(s, 1)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(pt)), np.sort(np.linalg.eigvalsh(s.rho)), atol=1e-12
        )

    def test_bell_spectrum(self):
        pt = partial_transpose(bell_state(), 1)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(23)
        s = QuantumState(random_density(rng, 6), (2, 3))
        pt = partial_transpose(s, 0)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            partial_transpose(bell_state(), 2)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 5)])
    def test_either_cut_gives_the_negativity(self, dims):
        # rho^{T_0} is the transpose of rho^{T_1}, so both have one spectrum
        rng = np.random.default_rng(53)
        d = dims[0] * dims[1]
        for _ in range(5):
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            s = QuantumState(ket_density(psi), dims)
            evals = np.linalg.eigvalsh(partial_transpose(s, 0))
            n = negativity(s)
            assert n > 0.05
            assert abs(n - np.abs(evals[evals < 0]).sum()) < 1e-12


class TestNegativity:
    def test_product_state_zero(self):
        rng = np.random.default_rng(29)
        s = QuantumState(np.kron(random_density(rng, 2), random_density(rng, 3)), (2, 3))
        assert negativity(s) < 1e-12

    def test_bell_half(self):
        assert abs(negativity(bell_state()) - 0.5) < 1e-12

    def test_schmidt_formula(self):
        # sqrt(p0)|00> + sqrt(p1)|11>: negativity = sqrt(p0 p1)
        rng = np.random.default_rng(31)
        for _ in range(10):
            p0 = rng.uniform(0.05, 0.95)
            p1 = 1 - p0
            psi = np.sqrt(p0) * np.kron(fock(2, 0), fock(3, 0)) + np.sqrt(p1) * np.kron(
                fock(2, 1), fock(3, 1)
            )
            s = QuantumState(ket_density(psi), (2, 3))
            assert abs(negativity(s) - np.sqrt(p0 * p1)) < 1e-12

    def test_even_odd_parity_state(self):
        # qubit flips on odd photon number; amplitudes from a Poisson
        # distribution at mean 0.165 renormalized on 3 Fock levels
        nbar = 0.165
        raw = np.array([1.0, nbar, nbar**2 / 2]) * np.exp(-nbar)
        p = raw / raw.sum()
        psi = (
            np.sqrt(p[0]) * np.kron(fock(2, 0), fock(3, 0))
            + np.sqrt(p[1]) * np.kron(fock(2, 1), fock(3, 1))
            + np.sqrt(p[2]) * np.kron(fock(2, 0), fock(3, 2))
        )
        s = QuantumState(ket_density(psi), (2, 3))
        n = negativity(s)
        # Schmidt oracle: coefficients sqrt(p0+p2), sqrt(p1)
        schmidt = (np.sqrt(p[0] + p[2]) + np.sqrt(p[1])) ** 2
        assert abs(n - (schmidt - 1) / 2) < 1e-12
        assert abs(n - np.sqrt((p[0] + p[2]) * p[1])) < 1e-12
        assert abs(n - 0.346982) < 1e-5
        assert abs(n - 0.346) < 2e-3

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(37)
        nbar = 0.165
        raw = np.array([1.0, nbar, nbar**2 / 2]) * np.exp(-nbar)
        p = raw / raw.sum()
        psi = (
            np.sqrt(p[0]) * np.kron(fock(2, 0), fock(3, 0))
            + np.sqrt(p[1]) * np.kron(fock(2, 1), fock(3, 1))
            + np.sqrt(p[2]) * np.kron(fock(2, 0), fock(3, 2))
        )
        base = QuantumState(ket_density(psi), (2, 3))
        n0 = negativity(base)
        for _ in range(20):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            rotated = QuantumState(u @ base.rho @ u.conj().T, (2, 3))
            assert abs(negativity(rotated) - n0) < 1e-9

    def test_trace_norm_identity(self):
        # ||rho^PT||_1 = 1 + 2 * sum |negative eigenvalues|
        rng = np.random.default_rng(41)
        for _ in range(10):
            s = QuantumState(random_density(rng, 6), (2, 3))
            pt = partial_transpose(s, 1)
            assert abs(np.abs(np.linalg.eigvalsh(pt)).sum() - (1 + 2 * negativity(s))) < 1e-10


class TestFidelity:
    def test_pure_self(self):
        s = bell_state()
        assert abs(fidelity(s, s) - 1) < 1e-12

    def test_orthogonal_pure(self):
        a = QuantumState(ket_density(fock(2, 0)), (2,))
        b = QuantumState(ket_density(fock(2, 1)), (2,))
        assert fidelity(a, b) < 1e-12

    def test_thermal_vacuum_overlap(self):
        nbar = 0.1
        t = QuantumState(oracles.thermal(10, nbar), (10,))
        v = QuantumState(ket_density(fock(10, 0)), (10,))
        assert abs(fidelity(t, v) - 1 / (1 + nbar)) < 1e-4

    def test_pure_target_is_expectation(self):
        rng = np.random.default_rng(43)
        rho = random_density(rng, 4)
        s = QuantumState(rho, (4,))
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        target = QuantumState(ket_density(psi), (4,))
        expected = np.real(psi.conj() @ rho @ psi)
        assert abs(fidelity(s, target) - expected) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(47)
        a = QuantumState(random_density(rng, 4), (4,))
        b = QuantumState(random_density(rng, 4), (4,))
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10

    def test_dim_mismatch(self):
        a = QuantumState(ket_density(fock(2, 0)), (2,))
        b = QuantumState(ket_density(fock(3, 0)), (3,))
        with pytest.raises(ValueError):
            fidelity(a, b)


class TestFactories:
    def test_destroy_matrix_elements(self):
        a = destroy(4)
        expected = np.zeros((4, 4))
        for n in range(1, 4):
            expected[n - 1, n] = np.sqrt(n)
        np.testing.assert_allclose(a, expected)

    def test_coherent_mean_photon_number(self):
        alpha = 0.4 + 0.2j
        psi = coherent(12, alpha)
        a = destroy(12)
        n = np.real(psi.conj() @ (a.conj().T @ a) @ psi)
        assert abs(n - abs(alpha) ** 2) < 1e-8

    def test_thermal_mean(self):
        t = oracles.thermal(30, 0.2)
        n_op = np.diag(np.arange(30)).astype(complex)
        assert abs(np.real(np.trace(t @ n_op)) - 0.2) < 1e-6
