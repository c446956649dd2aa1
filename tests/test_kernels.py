"""Oracle tests for the sparse-superoperator RK4 propagator.

Every generator is checked against the Lindblad formula written densely
here, and `propagate` against dense matrix-exponential propagation of the
vectorized generator (row-major convention: vec(A U B) = (A kron B^T)
vec(U)), including the 9-node regression ladder and the capture mode with
substeps.  The MLE fixed-point iteration is checked on exact data.
"""

import numpy as np
import numpy.testing as npt
from scipy.linalg import expm

from qndsim import dynamics
from qndsim.linalg import dag, destroy
from qndsim.model import SystemParams, build_model
from qndsim.tomography import mle_iterations


def random_density(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ dag(m)
    return rho / np.trace(rho)


def random_hermitian(rng, d, scale=1.0):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (m + dag(m)) / 2


def random_matrix(rng, d, scale=1.0):
    return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


def lindblad_rhs(h_nh, c_list, x):
    """-i (H X - X H^dag) + sum C X C^dag with H non-Hermitian."""
    out = -1j * (h_nh @ x - x @ dag(h_nh))
    for c in c_list:
        out = out + c @ x @ dag(c)
    return out


def driven_h_nh(h0, c_list, a_op, eps):
    h_nh = h0 + 1j * eps * dag(a_op) - 1j * np.conjugate(eps) * a_op
    for c in c_list:
        h_nh = h_nh - 0.5j * dag(c) @ c
    return h_nh


def liouvillian(h_nh, c_list, d):
    """Vectorized generator of rho' = -i(H rho - rho H^dag) + sum C rho C^dag."""
    eye = np.eye(d)
    sup = -1j * (np.kron(h_nh, eye) - np.kron(eye, np.conjugate(h_nh)))
    for c in c_list:
        sup += np.kron(c, np.conjugate(c))
    return sup


def expm_prop(sup, rho0, t):
    d = rho0.shape[0]
    return (expm(sup * t) @ rho0.reshape(-1)).reshape(d, d)


def ones(nsteps):
    return np.ones(nsteps, dtype=np.int64)


def capture_model():
    """Small qubit-cavity model (n_max = 3) with every collapse channel."""
    params = SystemParams(
        omega_c=0.0, omega_q=0.0, chi=0.9, kappa_ex=2.0, kappa_in=0.3,
        T1=4.0, T2_star=3.0, p_th=0.05,
    )
    return build_model(params, n_max=3)


def capture_operators(model, db):
    eye_b = np.eye(db)
    a = np.kron(model.a, eye_b)
    b = np.kron(np.eye(model.dim), destroy(db))
    p = model.params
    c_list = [np.sqrt(p.kappa_in) * a]
    for op, rate in (
        (model.sigma_ge, p.gamma_1),
        (model.sigma_eg, p.gamma_2),
        (model.sigma_ee, 2 * max(p.gamma_phi, 0.0)),
    ):
        if rate > 0:
            c_list.append(np.sqrt(rate) * np.kron(op, eye_b))
    return a, b, np.kron(model.H, eye_b), c_list


def capture_rhs(model, db, x, g, beta):
    """The cascaded capture-mode master equation written out densely."""
    a, b, h_ext, c_list = capture_operators(model, db)
    sk = np.sqrt(model.params.kappa_ex)
    gc, bc = np.conjugate(g), np.conjugate(beta)
    h_nh = (
        h_ext
        + sk * (beta * dag(a) + bc * a)
        + 1j * g * bc * b
        - 1j * gc * beta * dag(b)
        - sk * gc * dag(b) @ a
        - 0.5j * abs(g) ** 2 * dag(b) @ b
        - 0.5j * model.params.kappa_ex * dag(a) @ a
    )
    for c in c_list:
        h_nh = h_nh - 0.5j * dag(c) @ c
    ct = -1j * sk * a + g * b
    return lindblad_rhs(h_nh, c_list + [ct], x)


def capture_coeffs(g, beta):
    gc, bc = np.conjugate(g), np.conjugate(beta)
    return np.array([beta, bc, g * bc, gc * beta, gc, g, abs(g) ** 2])


class TestGenerators:
    def test_generators_match_dense_lindblad_formula(self):
        rng = np.random.default_rng(5)
        d = 5
        h0 = random_hermitian(rng, d)
        a_op = random_matrix(rng, d, 0.5)
        c_list = [random_matrix(rng, d, 0.3) for _ in range(2)]
        eps, w = 0.3 - 0.7j, -0.4 + 0.2j
        nodes = [random_matrix(rng, d) for _ in range(9)]

        gen = dynamics.lindblad_generator(h0, c_list, a_op)
        got = gen.apply(nodes[0].reshape(-1), np.array([1.0, eps, np.conjugate(eps)]))
        h_nh = driven_h_nh(h0, c_list, a_op, eps)
        expected = lindblad_rhs(h_nh, c_list, nodes[0])
        npt.assert_allclose(got.reshape(d, d), expected, atol=1e-12)

        ladder = dynamics.lindblad_generator(h0, c_list, a_op, ladder=True)
        weights = np.array([1.0, eps, np.conjugate(eps), w, np.conjugate(w)])
        got = ladder.apply(np.concatenate([x.reshape(-1) for x in nodes]), weights)
        got = got.reshape(9, d, d)
        for k in range(9):
            m, n = divmod(k, 3)
            expected = lindblad_rhs(h_nh, c_list, nodes[k])
            if n:
                expected = expected + w * a_op @ nodes[k - 1]
            if m:
                expected = expected + np.conjugate(w) * nodes[k - 3] @ dag(a_op)
            npt.assert_allclose(got[k], expected, atol=1e-12, err_msg=f"node {k}")

        model = capture_model()
        db = 3
        dc = model.dim * db
        gen = dynamics.capture_generator(model, db)
        x = random_matrix(rng, dc)
        g, beta = 0.8 - 0.5j, 0.25 + 0.15j
        got = gen.apply(x.reshape(-1), np.concatenate([[1.0], capture_coeffs(g, beta)]))
        expected = capture_rhs(model, db, x, g, beta)
        npt.assert_allclose(got.reshape(dc, dc), expected, atol=1e-11)


    def test_pieces_switched_off_are_dropped_exactly(self):
        # a ladder whose w pieces stay zero evolves node 0 like the plain
        # generator and leaves the other nodes empty
        rng = np.random.default_rng(6)
        d = 4
        h0 = random_hermitian(rng, d)
        a_op = random_matrix(rng, d, 0.5)
        c_list = [random_matrix(rng, d, 0.3)]
        rho0 = random_density(rng, d)
        nsteps = 50
        eps = 0.3 * np.exp(1j * np.linspace(0, 2, 2 * nsteps + 1))
        zeros = np.zeros_like(eps)
        diag = np.arange(d) * (d + 1)
        plain = dynamics.propagate(
            dynamics.lindblad_generator(h0, c_list, a_op), rho0.reshape(-1),
            np.stack([eps, np.conjugate(eps)], axis=1), 0.02, ones(nsteps), diag,
        )
        x0 = np.zeros(9 * d * d, dtype=complex)
        x0[: d * d] = rho0.reshape(-1)
        ladder = dynamics.propagate(
            dynamics.lindblad_generator(h0, c_list, a_op, ladder=True), x0,
            np.stack([eps, np.conjugate(eps), zeros, zeros], axis=1), 0.02,
            ones(nsteps), diag,
        )
        npt.assert_allclose(ladder.state[: d * d], plain.state, rtol=0, atol=1e-15)
        assert not np.any(ladder.state[d * d:])


class TestLindbladRK4:
    def _problem(self, rng, d=6, nc=2):
        h0 = random_hermitian(rng, d)
        a_op = random_matrix(rng, d, 0.5)
        c_list = [random_matrix(rng, d, 1 / 3) for _ in range(nc)]
        return h0, a_op, c_list

    def test_constant_drive_matches_expm(self):
        rng = np.random.default_rng(7)
        d = 6
        h0, a_op, c_list = self._problem(rng, d)
        rho0 = random_density(rng, d)
        eps0 = 0.3 - 0.2j
        tspan = 2.0
        nsteps = 400
        coeffs = np.tile([eps0, np.conjugate(eps0)], (2 * nsteps + 1, 1))
        run = dynamics.propagate(
            dynamics.lindblad_generator(h0, c_list, a_op), rho0.reshape(-1), coeffs,
            tspan / nsteps, ones(nsteps), np.arange(d) * (d + 1), store_every=nsteps,
        )
        sup = liouvillian(driven_h_nh(h0, c_list, a_op, eps0), c_list, d)
        expected = expm_prop(sup, rho0, tspan)
        npt.assert_allclose(run.state.reshape(d, d), expected, atol=1e-8)
        assert len(run.snapshots) == 1
        npt.assert_allclose(run.snapshots[0], run.state, atol=1e-14)

    def test_trace_preserved_full_lindblad(self):
        rng = np.random.default_rng(8)
        d = 5
        h0 = random_hermitian(rng, d)
        c = random_matrix(rng, d, 1 / 3)
        a_op = destroy(d)
        rho0 = random_density(rng, d)
        nsteps = 300
        eps = 0.2 * np.exp(1j * np.linspace(0, 3, 2 * nsteps + 1))
        run = dynamics.propagate(
            dynamics.lindblad_generator(h0, [c], a_op), rho0.reshape(-1),
            np.stack([eps, np.conjugate(eps)], axis=1), 0.01, ones(nsteps),
            np.arange(d) * (d + 1),
        )
        out = run.state.reshape(d, d)
        assert run.max_trace_defect < 1e-10
        npt.assert_allclose(np.trace(out), 1.0, atol=1e-10)
        evals = np.linalg.eigvalsh((out + dag(out)) / 2)
        assert evals.min() > -1e-10

    def test_ladder_sources_match_block_expm(self):
        rng = np.random.default_rng(9)
        d = 4
        a_op = destroy(d)
        adag_op = dag(a_op)
        delta = 0.7
        kappa = 1.3
        h0 = delta * adag_op @ a_op
        c = np.sqrt(kappa) * a_op
        eps0 = 0.4 + 0.1j
        w0 = -0.8j + 0.3
        rho0 = random_density(rng, d)
        tspan = 1.5
        nsteps = 600
        x0 = np.zeros(9 * d * d, dtype=complex)
        x0[: d * d] = rho0.reshape(-1)
        coeffs = np.tile(
            [eps0, np.conjugate(eps0), w0, np.conjugate(w0)], (2 * nsteps + 1, 1)
        )
        run = dynamics.propagate(
            dynamics.lindblad_generator(h0, [c], a_op, ladder=True), x0, coeffs,
            tspan / nsteps, ones(nsteps), np.arange(d) * (d + 1),
        )
        out = run.state.reshape(9, d, d)
        sup = liouvillian(driven_h_nh(h0, [c], a_op, eps0), [c], d)
        eye = np.eye(d)
        left_a = np.kron(a_op, eye)
        right_adag = np.kron(eye, np.conjugate(a_op))
        dim2 = d * d
        big = np.zeros((9 * dim2, 9 * dim2), dtype=complex)
        for m in range(3):
            for n in range(3):
                k = 3 * m + n
                big[k * dim2:(k + 1) * dim2, k * dim2:(k + 1) * dim2] = sup
                if n:
                    big[k * dim2:(k + 1) * dim2, (k - 1) * dim2:k * dim2] = w0 * left_a
                if m:
                    big[k * dim2:(k + 1) * dim2, (k - 3) * dim2:(k - 2) * dim2] = np.conjugate(w0) * right_adag
        v0 = np.zeros(9 * dim2, dtype=complex)
        v0[:dim2] = rho0.reshape(-1)
        vf = expm(big * tspan) @ v0
        for k in range(9):
            npt.assert_allclose(
                out[k], vf[k * dim2:(k + 1) * dim2].reshape(d, d), atol=2e-8,
                err_msg=f"ladder node {k}",
            )

    def test_convergence_is_fourth_order(self):
        rng = np.random.default_rng(10)
        d = 5
        h0, a_op, c_list = self._problem(rng, d, nc=1)
        gen = dynamics.lindblad_generator(h0, c_list, a_op)
        rho0 = random_density(rng, d)
        tspan = 1.0

        def run(nsteps):
            tt = np.linspace(0, tspan, 2 * nsteps + 1)
            eps = 0.5 * np.exp(-((tt - 0.5) ** 2) / 0.05) * np.exp(0.7j * tt)
            out = dynamics.propagate(
                gen, rho0.reshape(-1), np.stack([eps, np.conjugate(eps)], axis=1),
                tspan / nsteps, ones(nsteps), np.arange(d) * (d + 1),
            )
            return out.state

        ref = run(800)
        e1 = np.abs(run(100) - ref).max()
        e2 = np.abs(run(200) - ref).max()
        ratio = e1 / e2
        assert 12 < ratio < 20, f"RK4 halving ratio {ratio}"


class TestCaptureRK4:
    def test_constant_coupling_matches_expm(self):
        rng = np.random.default_rng(12)
        model = capture_model()
        db = 2
        d = model.dim * db
        g0 = 0.8 - 0.5j
        beta0 = 0.25 + 0.15j
        rho0 = random_density(rng, d)
        tspan = 1.2
        nsteps = 300
        nsub = np.array([3, 1] * (nsteps // 2), dtype=np.int64)
        coeffs = np.tile(capture_coeffs(g0, beta0), (2 * int(nsub.sum()) + 1, 1))
        diag = np.arange(d) * (d + 1)
        run = dynamics.propagate(
            dynamics.capture_generator(model, db), rho0.reshape(-1), coeffs,
            tspan / nsteps, nsub, diag, (diag[:1], diag[1:2]),
        )
        sup = np.stack(
            [capture_rhs(model, db, e.reshape(d, d), g0, beta0).reshape(-1)
             for e in np.eye(d * d)],
            axis=1,
        )
        expected = expm_prop(sup, rho0, tspan)
        npt.assert_allclose(run.state.reshape(d, d), expected, atol=1e-8)
        assert run.max_trace_defect < 1e-9
        assert len(run.max_watched) == 2


def dense_map(stack):
    """(probabilities, adjoint) of a dense stack of measurement operators."""
    flat = stack.reshape(len(stack), -1)
    return (
        lambda rho: np.real(flat @ rho.T.ravel()),
        lambda w: (w @ flat).reshape(stack.shape[1:]),
    )


class TestMLEIterations:
    def _projective_problem(self, rng, d=3, n_settings=5):
        povms = []
        for _ in range(n_settings):
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, _ = np.linalg.qr(m)
            for k in range(d):
                v = q[:, k]
                povms.append(np.outer(v, np.conjugate(v)))
        return np.array(povms, dtype=complex)

    def test_recovers_state_from_exact_probabilities(self):
        rng = np.random.default_rng(14)
        d = 3
        n_settings = 6
        povm = self._projective_problem(rng, d, n_settings)
        truth = random_density(rng, d)
        freqs = np.real(np.einsum("sij,ji->s", povm, truth))
        rho0 = np.eye(d, dtype=complex) / d
        rho, logliks, n_iter = mle_iterations(
            *dense_map(povm), freqs, rho0, float(n_settings), 20000, 1e-14, 1e-12
        )
        npt.assert_allclose(rho, truth, atol=5e-6)
        diffs = np.diff(logliks)
        assert diffs.min() > -1e-11, "log-likelihood must be non-decreasing"

    def test_early_stop_and_shapes(self):
        rng = np.random.default_rng(15)
        d = 2
        povm = self._projective_problem(rng, d, 3)
        truth = random_density(rng, d)
        freqs = np.real(np.einsum("sij,ji->s", povm, truth))
        rho0 = np.eye(d, dtype=complex) / d
        rho, logliks, n_iter = mle_iterations(
            *dense_map(povm), freqs, rho0, 3.0, 5000, 1e-10, 1e-12
        )
        assert n_iter < 5000
        assert logliks.shape == (n_iter,)
        npt.assert_allclose(np.trace(rho), 1.0, atol=1e-12)
