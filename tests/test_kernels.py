"""Oracle tests for the sparse-superoperator RK4 propagator.

Each route writes one piece P per conjugate pair; the complex generator
is assembled here from a route's blocks plus the partners J P J
(`complex_generator`).  That generator is checked against the Lindblad
formula written densely here, which also checks the pair rule that
`_real_form` relies on, and `propagate` against dense
matrix-exponential propagation of the vectorized generator (row-major
convention: vec(A U B) = (A kron B^T) vec(U)), including the regression
ladder and the capture mode with unequal steps.  The capture references
restrict the product-space operators to the states the route keeps,
n + m <= max(n_max, db - 1), chosen here independently (`capture_states`).
The schedule driver is checked against a complex walk written here, and
for the live pieces it keeps.  The MLE fixed-point iteration is checked
on exact data.
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse
from scipy.linalg import expm

from qndsim import dynamics
from qndsim.linalg import dag, destroy
from qndsim.model import SystemParams, build_model, gaussian_input_mode
from qndsim.tomography import mle_iterations

import oracles
from oracles import default_params


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


def capture_model():
    """Small qubit-cavity model (n_max = 3) with every collapse channel."""
    params = SystemParams(
        omega_c=0.0, omega_q=0.0, chi=0.9, kappa_ex=2.0, kappa_in=0.3,
        T1=4.0, T2_star=3.0, p_th=0.05,
    )
    return build_model(params, n_max=3)


def capture_states(model, db):
    """Positions, in the (qubit, cavity n, capture m) product, of the states
    the capture route keeps: n + m <= max(n_max, db - 1), qubit-major."""
    n_c = model.n_max + 1
    cap = max(model.n_max, db - 1)
    return np.array([
        (q * n_c + n) * db + m
        for q in range(2) for n in range(n_c) for m in range(db) if n + m <= cap
    ])


def capture_operators(model, db):
    """a, b, H and the collapse operators of the capture route, each the
    product-space operator restricted to capture_states."""
    eye_b = np.eye(db)
    a = np.kron(model.a, eye_b)
    b = np.kron(np.eye(model.dim), destroy(db))
    p = model.params
    c_list = [np.sqrt(p.kappa_in) * a]
    for op, rate in (
        (oracles.sigma_ge(model.n_max), p.gamma_1),
        (oracles.sigma_eg(model.n_max), p.gamma_2),
        (model.sigma_ee, 2 * max(p.gamma_phi, 0.0)),
    ):
        if rate > 0:
            c_list.append(np.sqrt(rate) * np.kron(op, eye_b))
    kept = np.ix_(*[capture_states(model, db)] * 2)
    return a[kept], b[kept], np.kron(model.H, eye_b)[kept], [c[kept] for c in c_list]


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


def spre(op):
    """X -> op X, as a sparse Kronecker product."""
    return sparse.kron(op, sparse.identity(op.shape[0], dtype=complex), format="csr")


def spost(op):
    """X -> X op, as a sparse Kronecker product."""
    return sparse.kron(sparse.identity(op.shape[0], dtype=complex), op.T, format="csr")


def sprepost(left, right):
    """X -> left X right, as a sparse Kronecker product."""
    return sparse.kron(left, right.T, format="csr")


def kron_lindblad(h, c_ops):
    """-i (K X - X K^dag) + sum C X C^dag summed from sparse Kronecker products."""
    c_ops = [sparse.csr_matrix(c) for c in c_ops]
    k_nh = sparse.csr_matrix(h, dtype=complex)
    for c in c_ops:
        k_nh = k_nh - 0.5j * (c.conj().T @ c)
    out = -1j * (spre(k_nh) - spost(k_nh.conj().T))
    for c in c_ops:
        out = out + sprepost(c, c.conj().T)
    return out.tocsr()


def assert_same_csr(got, want, label):
    """Equal CSR arrays, field by field, dtypes included."""
    for field in ("data", "indices", "indptr"):
        assert getattr(got, field).dtype == getattr(want, field).dtype, (label, field)
        npt.assert_array_equal(
            getattr(got, field), getattr(want, field), err_msg=f"{label} {field}"
        )


def capture_coeffs(g, beta):
    """Coefficients of the capture route's pieces."""
    return [beta, g * np.conjugate(beta), np.conjugate(g), abs(g) ** 2]


def partner(piece, swap):
    """J P J, J X = X^dag: the conjugate partner of the piece P; swap is
    the index involution of X -> X^dag."""
    return piece[swap][:, swap].conj()


def complex_generator(blocks, swap):
    """The complex generator of a route's blocks: L0, then each piece P
    followed by its partner J P J, weighted as with_partners orders them.
    L0 must be its own partner, as _real_form assumes."""
    l0, *pieces = blocks
    assert abs(partner(l0, swap) - l0).max() <= 1e-15 * abs(l0).max()
    return dynamics._side_by_side([l0, *(q for p in pieces for q in (p, partner(p, swap)))])


def n_pieces(gen):
    """K of a generator [L0 | L1 | ... | LK]."""
    return gen.shape[1] // gen.shape[0] - 1


def stage(gen, x, weights):
    """L x for weights (1, f_1, ..., f_K), written as one public sparse
    product with the stacked weighted copies (x, f_1 x, ..., f_K x): the
    reference for propagate's stages."""
    return gen @ (weights[:, None] * x[None]).reshape(-1, *x.shape[1:])


def with_partners(*coeffs):
    """Weights (c_1, conj(c_1), c_2, conj(c_2), ...) of complex_generator's
    pieces, along axis 1 of sampled coefficients (axis 0 of scalars)."""
    axis = 1 if np.ndim(coeffs[0]) else 0
    return np.stack([f(c) for c in coeffs for f in (np.asarray, np.conjugate)], axis=axis)


def spy_real_form(monkeypatch):
    """Record (live pieces, real pieces) of every _real_form call."""
    calls = []
    real_form = dynamics._real_form

    def spy(blocks, t, t_h, live):
        calls.append((int(np.sum(live)), len(live)))
        return real_form(blocks, t, t_h, live)

    monkeypatch.setattr(dynamics, "_real_form", spy)
    return calls


class TestGenerators:
    def test_generators_match_dense_lindblad_formula(self):
        rng = np.random.default_rng(5)
        d = 5
        h0 = random_hermitian(rng, d)
        a_op = random_matrix(rng, d, 0.5)
        c_list = [random_matrix(rng, d, 0.3) for _ in range(2)]
        eps, w = 0.3 - 0.7j, -0.4 + 0.2j
        nodes = [random_matrix(rng, d) for _ in range(9)]

        gen = complex_generator(
            dynamics._ladder_blocks(h0, c_list, a_op, 0), dynamics._adjoint_swap(d)
        )
        got = stage(gen, nodes[0].reshape(-1), np.r_[1.0, with_partners(eps)])
        h_nh = driven_h_nh(h0, c_list, a_op, eps)
        expected = lindblad_rhs(h_nh, c_list, nodes[0])
        npt.assert_allclose(got.reshape(d, d), expected, atol=1e-12)

        ladder = complex_generator(
            dynamics._ladder_blocks(h0, c_list, a_op, 2), dynamics._adjoint_swap(d, 3)
        )
        weights = np.r_[1.0, with_partners(eps, w)]
        got = stage(ladder, np.concatenate([x.reshape(-1) for x in nodes]), weights)
        got = got.reshape(9, d, d)
        for k in range(9):
            m, n = divmod(k, 3)
            expected = lindblad_rhs(h_nh, c_list, nodes[k])
            if n:
                expected = expected + w * a_op @ nodes[k - 1]
            if m:
                expected = expected + np.conjugate(w) * nodes[k - 3] @ dag(a_op)
            npt.assert_allclose(got[k], expected, atol=1e-12, err_msg=f"node {k}")

        # n_max = 3: the cap n + m <= 3 is the cavity's at db = 3 and the
        # capture mode's, n + m <= 4, at db = 5
        model = capture_model()
        for db in (3, 5):
            dc = capture_states(model, db).size
            swap = dynamics._adjoint_swap(dc)
            blocks = list(dynamics._capture_blocks(model, db))
            # the |g|^2 piece is self-conjugate: half of it is its own partner
            half = blocks[-1]
            assert abs(partner(half, swap) - half).max() <= 1e-15 * abs(half).max()
            gen = complex_generator(blocks, swap)
            x = random_matrix(rng, dc)
            g, beta = 0.8 - 0.5j, 0.25 + 0.15j
            got = stage(gen, x.reshape(-1), np.r_[1.0, with_partners(*capture_coeffs(g, beta))])
            expected = capture_rhs(model, db, x, g, beta)
            npt.assert_allclose(got.reshape(dc, dc), expected, atol=1e-11, err_msg=f"db {db}")


    def test_capture_keeps_the_pairs_under_the_cap(self):
        # defaults: n_max = 7, db = 7, so n + m <= 7 keeps 35 of the 56 pairs
        model = build_model(default_params())
        keep = dynamics._capture_pairs(model.n_max + 1, 7)
        npt.assert_array_equal(keep, capture_states(model, 7))
        assert keep.size == 70

    def test_ladder_matches_hand_built_nine_nodes(self):
        # reference: the order-2 ladder written out by hand from sparse
        # Kronecker products, node 3m + n sourced by w from node 3m + n - 1
        # and by conj(w) from node 3(m - 1) + n; order 0 is node 0 alone
        model = capture_model()
        a = sparse.csr_matrix(model.a, dtype=complex)
        ad = a.conj().T
        nodes = sparse.identity(9, dtype=complex, format="csr")
        k = np.arange(9)
        right = k[k % 3 != 0]
        src_w = sparse.csr_matrix((np.ones(6), (right, right - 1)), shape=(9, 9))
        src_wb = sparse.csr_matrix((np.ones(6), (k[3:], k[3:] - 3)), shape=(9, 9))
        lindblad = kron_lindblad(model.H, model.collapse)
        eps = spre(ad) - spost(ad)
        expected = dynamics._side_by_side([
            sparse.kron(nodes, lindblad, format="csr"),
            sparse.kron(nodes, eps, format="csr"),
            sparse.kron(src_w, spre(a), format="csr"),
        ])
        l0, *pieces = dynamics._ladder_blocks(model.H, model.collapse, model.a, 2)
        got = dynamics._side_by_side([l0, *pieces])
        assert dynamics.MOMENT_ORDER == 2
        assert_same_csr(got, expected, "order 2")
        got = dynamics._ladder_blocks(model.H, model.collapse, model.a, 0)
        one = sparse.identity(1, dtype=complex, format="csr")
        for block, want in zip(got, (lindblad, eps), strict=True):
            assert_same_csr(block, sparse.kron(one, want, format="csr"), "order 0")
        # the partners conj(eps) and conj(w) that the pair rule stands for
        swap = dynamics._adjoint_swap(model.dim, 3)
        partners = (
            sparse.kron(nodes, spost(a) - spre(a), format="csr"),
            sparse.kron(src_wb, spost(ad), format="csr"),
        )
        for piece, want in zip(pieces, partners, strict=True):
            assert (partner(piece, swap) != want).nnz == 0

    @pytest.mark.parametrize("n_max, db", [(3, 3), (3, 5), (7, 7)])
    def test_capture_pieces_match_kronecker_products(self, n_max, db):
        # the five blocks against the sums of sparse Kronecker products they
        # stand for, in the same order of evaluation: equal bit for bit
        model = build_model(capture_model().params, n_max=n_max)
        kept = np.ix_(*[capture_states(model, db)] * 2)

        def ext(op):
            return sparse.csr_matrix(np.kron(op, np.eye(db))[kept])

        a = ext(model.a)
        b = sparse.csr_matrix(np.kron(np.eye(model.dim), destroy(db))[kept])
        ad, bd = a.conj().T.tocsr(), b.conj().T.tocsr()
        sk = np.sqrt(model.params.kappa_ex)
        expected = (
            kron_lindblad(ext(model.H), [ext(c) for c in model.collapse]),
            (-1j * sk * (spre(ad) - spost(ad))).tocsr(),
            (spre(b) - spost(b)).tocsr(),
            (1j * sk * (spre(bd @ a) - sprepost(a, bd))).tocsr(),
            (0.5 * (sprepost(b, bd) - 0.5 * (spre(bd @ b) + spost(bd @ b)))).tocsr(),
        )
        got = list(dynamics._capture_blocks(model, db))
        assert len(got) == len(expected)
        for k, (block, want) in enumerate(zip(got, expected)):
            assert_same_csr(block, want, f"piece {k}")

    def test_pieces_switched_off_are_dropped_exactly(self, monkeypatch):
        # a ladder whose w pieces stay zero evolves node 0 like the plain
        # generator and leaves the other nodes empty
        calls = spy_real_form(monkeypatch)
        rng = np.random.default_rng(6)
        d = 4
        h0 = random_hermitian(rng, d)
        a_op = random_matrix(rng, d, 0.5)
        c_list = [random_matrix(rng, d, 0.3)]
        rho0 = random_density(rng, d)
        sched = dynamics.PulseSchedule(
            0.0, 0.6, 1.0, gaussian_input_mode(500e-9), alpha_in=0.0, ramsey_gates=False
        )

        def eps(t0, nsteps, dt_seg):
            return 0.3 * np.exp(1j * dynamics._half_grid(t0, nsteps, dt_seg))

        def plain_coeffs(t0, nsteps, dt_seg):
            return dynamics._conj_pairs(eps(t0, nsteps, dt_seg)), np.full(nsteps, dt_seg)

        def ladder_coeffs(t0, nsteps, dt_seg):
            e = eps(t0, nsteps, dt_seg)
            return dynamics._conj_pairs(e, np.zeros_like(e)), np.full(nsteps, dt_seg)

        plain = dynamics._run_schedule(
            "plain", dynamics._ladder_blocks(h0, c_list, a_op, 0), rho0.reshape(-1), sched, 0.02,
            plain_coeffs, d, (),
        )
        x0 = np.zeros(9 * d * d, dtype=complex)
        x0[: d * d] = rho0.reshape(-1)
        ladder = dynamics._run_schedule(
            "ladder", dynamics._ladder_blocks(h0, c_list, a_op, 2), x0, sched, 0.02,
            ladder_coeffs, d, (),
        )
        assert calls == [(2, 2), (2, 4)]
        npt.assert_allclose(ladder.state[: d * d], plain.state, rtol=0, atol=1e-15)
        assert not np.any(ladder.state[d * d:])


class TestSuperop:
    """_superop against dense Kronecker products: vec(L X R) = (L kron R^T) vec(X)."""

    def test_single_terms_match_dense_kron(self):
        rng = np.random.default_rng(21)
        n = 6
        left = random_matrix(rng, n) * (rng.random((n, n)) < 0.4)
        right = random_matrix(rng, n) * (rng.random((n, n)) < 0.4)
        eye = np.eye(n)
        for c, lop, rop, want in (
            (1, left, right, np.kron(left, right.T)),
            (0.5 - 2j, left, right, (0.5 - 2j) * np.kron(left, right.T)),
            (-1j, left, None, -1j * np.kron(left, eye)),
            (1, None, right, np.kron(eye, right.T)),
            (3.0, None, None, 3.0 * np.eye(n * n)),
        ):
            got = dynamics._superop([(c, lop, rop)], n)
            assert got.has_canonical_format
            npt.assert_array_equal(got.toarray(), want)
            assert np.all(got.data != 0)

    def test_terms_sum_in_order_and_cancellations_drop(self):
        rng = np.random.default_rng(22)
        n = 5
        ops = [random_matrix(rng, n) * (rng.random((n, n)) < 0.5) for _ in range(3)]
        terms = [(0.3j, ops[0], None), (1, None, ops[1]), (-2, ops[2], ops[0])]
        want = 0.3j * np.kron(ops[0], np.eye(n))
        want = want + np.kron(np.eye(n), ops[1].T)
        want = want + -2 * np.kron(ops[2], ops[0].T)
        got = dynamics._superop(terms, n)
        npt.assert_array_equal(got.toarray(), want)
        assert got.nnz == np.count_nonzero(want)
        # equal and opposite terms leave no stored entry
        assert dynamics._superop([(1, ops[0], ops[1]), (-1, ops[0], ops[1])], n).nnz == 0


class TestColumns:
    def test_columns_equal_single_runs(self):
        # members in the columns of one run, one of them undriven, over
        # steps of three lengths
        rng = np.random.default_rng(11)
        d = 5
        h0 = random_hermitian(rng, d)
        a_op = random_matrix(rng, d, 0.5)
        c_list = [random_matrix(rng, d, 0.3) for _ in range(2)]
        gen = complex_generator(
            dynamics._ladder_blocks(h0, c_list, a_op, 0), dynamics._adjoint_swap(d)
        )
        nsub = np.array([2, 1, 3] * 20)
        steps = np.repeat(0.02 / nsub, nsub)
        tt = np.linspace(0.0, 1.0, 2 * steps.size + 1)
        eps = np.stack(
            [0.4 * np.exp(1j * (0.7 + k) * tt) * np.cos(2 * tt) for k in range(4)], axis=1
        )
        eps[:, 2] = 0.0
        x0 = np.stack([random_density(rng, d).reshape(-1) for _ in range(4)], axis=1)
        diag = np.arange(d) * (d + 1)
        watch = (diag[-2:], diag[:1])
        batch = dynamics.propagate(gen, x0, with_partners(eps), steps, diag, watch)
        assert batch.state.shape == x0.shape
        for j in range(4):
            single = dynamics.propagate(
                gen, x0[:, j], with_partners(eps[:, j]), steps, diag, watch
            )
            scale = np.abs(single.state).max()
            npt.assert_allclose(batch.state[:, j], single.state, rtol=0, atol=1e-15 * scale)
            # monitors on the trace scale, 1: the trace defect is round-off
            npt.assert_allclose(
                batch.max_trace_defect[j], single.max_trace_defect, rtol=0, atol=1e-15
            )
            for got, want in zip(batch.max_watched, single.max_watched, strict=True):
                npt.assert_allclose(got[j], want, rtol=0, atol=1e-15)


def stepwise_propagate(gen, x0, coeffs, steps, trace_idx, watch):
    """propagate's RK4 with its monitors updated after every step."""
    x = np.array(x0)
    rows = np.concatenate([np.ones((len(coeffs), 1, *coeffs.shape[2:])), coeffs], axis=1)
    max_tr = np.zeros(x.shape[1:])
    max_watched = [np.zeros(x.shape[1:])] * len(watch)
    for i, h in enumerate(steps):
        j = 2 * i
        k1 = stage(gen, x, rows[j])
        k2 = stage(gen, x + (h / 2) * k1, rows[j + 1])
        k3 = stage(gen, x + (h / 2) * k2, rows[j + 1])
        k4 = stage(gen, x + h * k3, rows[j + 2])
        x = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        tr = x[trace_idx].sum(axis=0)
        max_tr = np.maximum(max_tr, abs(tr.real - 1.0) + abs(tr.imag))
        for w, idx in enumerate(watch):
            max_watched[w] = np.maximum(max_watched[w], x[idx].real.sum(axis=0))
    return x, max_tr, max_watched


def small_problem(real=False, n_members=3, nsteps=40):
    """A driven d = 5 master equation with n_members members: the complex
    generator with complex states, or with real=True its real form in real
    coordinates, as _run_schedule runs it.  Returns the arguments of
    propagate."""
    rng = np.random.default_rng(23)
    d = 5
    blocks = dynamics._ladder_blocks(
        random_hermitian(rng, d), [random_matrix(rng, d, 0.3)], random_matrix(rng, d, 0.5), 0
    )
    tt = np.linspace(0.0, 1.0, 2 * nsteps + 1)
    eps = np.stack([0.5 * np.exp(1j * (k + 1) * tt) for k in range(n_members)], axis=1)
    x0 = np.stack([random_density(rng, d).reshape(-1) for _ in range(n_members)], axis=1)
    diag = np.arange(d) * (d + 1)
    steps = np.full(nsteps, 1.0 / nsteps)
    swap = dynamics._adjoint_swap(d)
    if real:
        t = dynamics._real_basis(swap)
        gen = dynamics._real_form(blocks, t, t.conj().T.tocsr(), np.ones(2, dtype=bool))
        x0, coeffs = np.ascontiguousarray((t.conj().T @ x0).real), dynamics._conj_pairs(eps)
    else:
        gen, coeffs = complex_generator(blocks, swap), with_partners(eps)
    return gen, x0, coeffs, steps, diag, (diag[3:], diag[:1])


class TestMonitors:
    """propagate's monitors, taken after the loop, against a step-by-step loop."""

    def test_matches_stepwise_loop(self):
        # complex and real, one vector and member columns: bitwise
        for real in (False, True):
            gen, x0, coeffs, steps, diag, watch = small_problem(real)
            for x, c in ((x0, coeffs), (x0[:, 1], coeffs[..., 1])):
                run = dynamics.propagate(gen, x, c, steps, diag, watch)
                x_ref, max_tr, max_watched = stepwise_propagate(gen, x, c, steps, diag, watch)
                assert run.state.dtype == x_ref.dtype == x.dtype
                npt.assert_array_equal(run.state, x_ref)
                npt.assert_allclose(run.max_trace_defect, max_tr, rtol=0, atol=1e-15)
                assert np.shape(run.max_trace_defect) == np.shape(max_tr)
                for got, want in zip(run.max_watched, max_watched, strict=True):
                    assert np.all(want > 0)
                    npt.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_nan_stays_in_its_maximum(self):
        gen, x0, coeffs, steps, diag, watch = small_problem()
        coeffs = coeffs.copy()
        coeffs[41, :, 1] = np.nan  # member 1, midpoint of step 20 of 40
        run = dynamics.propagate(gen, x0, coeffs, steps, diag, watch)
        for value in (run.max_trace_defect, *run.max_watched):
            npt.assert_array_equal(np.isnan(value), [False, True, False])
        with pytest.raises(RuntimeError, match=r"x: trace drifted by nan"):
            dynamics._check_monitors("x", run.max_trace_defect, [])
        # finite members: a breach quotes the worst of them
        ok = dynamics.propagate(gen, x0[:, ::2], coeffs[..., ::2], steps, diag, watch)
        worst = float(np.max(ok.max_watched[1]))
        assert worst > float(np.min(ok.max_watched[1]))
        with pytest.raises(RuntimeError, match=rf"x: ground {worst:.3e} exceeds 1e-09; fix it"):
            dynamics._check_monitors("x", ok.max_trace_defect, [
                (ok.max_watched[0], (1.0, "top", "")),
                (ok.max_watched[1], (1e-9, "ground", "fix it")),
            ])

    def test_zero_steps_leave_the_state(self):
        gen, x0, coeffs, _, diag, watch = small_problem()
        for x, c in ((x0, coeffs[:1]), (x0[:, 0], coeffs[:1, :, 0])):
            run = dynamics.propagate(gen, x, c, np.zeros(0), diag, watch)
            npt.assert_array_equal(run.state, x)
            for value in (run.max_trace_defect, *run.max_watched):
                npt.assert_array_equal(value, np.zeros(x.shape[1:]))

    def test_input_left_untouched(self):
        # the run updates its own buffers in place: x0 keeps its bytes, and
        # the state keeps x0's dtype, real with a real generator and
        # coefficients, with and without steps
        for real in (False, True):
            gen, x0, coeffs, steps, diag, watch = small_problem(real)
            for x, c in ((x0, coeffs), (np.ascontiguousarray(x0[:, 1]), coeffs[..., 1])):
                before = x.copy()
                for s in (steps, np.zeros(0)):
                    run = dynamics.propagate(gen, x, c[: 2 * len(s) + 1], s, diag, watch)
                    assert x.tobytes() == before.tobytes()
                    assert run.state.dtype == x.dtype == (float if real else complex)
                    assert not np.shares_memory(run.state, x)


class TestDirectKernel:
    """The CSR kernel that csr_matrix's product ends in, called directly."""

    def test_csr_product_equals_public_product(self):
        # bitwise a @ x for one vector, one column and member columns, real
        # and complex, into an output that starts as garbage
        rng = np.random.default_rng(31)
        pattern = sparse.random(40, 60, density=0.2, format="csr", random_state=rng)
        for a_complex, x_complex in itertools.product((False, True), repeat=2):
            a = pattern.astype(complex if a_complex else float)
            if a_complex:
                a.data += 1j * rng.normal(size=a.nnz)
            for shape in ((60,), (60, 1), (60, 7)):
                x = rng.normal(size=shape) + (1j * rng.normal(size=shape) if x_complex else 0)
                want = a @ x
                out = np.full_like(want, np.nan)
                dynamics._csr_product(a, x, out)
                assert (out.dtype, out.shape) == (want.dtype, want.shape)
                assert out.tobytes() == want.tobytes()

    def test_state_that_does_not_fit_is_refused(self):
        # the kernel reads past a short stack: propagate checks the layout
        gen, x0, coeffs, steps, diag, watch = small_problem(real=True)
        for x, c in ((x0[:-1], coeffs), (x0, coeffs[:, :1])):
            with pytest.raises(ValueError, match="does not fit a generator"):
                dynamics.propagate(gen, x, c, steps, diag, watch)


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
        coeffs = np.tile(with_partners(eps0), (2 * nsteps + 1, 1))
        gen = complex_generator(
            dynamics._ladder_blocks(h0, c_list, a_op, 0), dynamics._adjoint_swap(d)
        )
        run = dynamics.propagate(
            gen, rho0.reshape(-1), coeffs, np.full(nsteps, tspan / nsteps), np.arange(d) * (d + 1),
        )
        sup = liouvillian(driven_h_nh(h0, c_list, a_op, eps0), c_list, d)
        expected = expm_prop(sup, rho0, tspan)
        npt.assert_allclose(run.state.reshape(d, d), expected, atol=1e-8)

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
            complex_generator(
                dynamics._ladder_blocks(h0, [c], a_op, 0), dynamics._adjoint_swap(d)
            ),
            rho0.reshape(-1), with_partners(eps), np.full(nsteps, 0.01), np.arange(d) * (d + 1),
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
        coeffs = np.tile(with_partners(eps0, w0), (2 * nsteps + 1, 1))
        run = dynamics.propagate(
            complex_generator(
                dynamics._ladder_blocks(h0, [c], a_op, 2), dynamics._adjoint_swap(d, 3)
            ),
            x0, coeffs, np.full(nsteps, tspan / nsteps), np.arange(d) * (d + 1),
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
        gen = complex_generator(
            dynamics._ladder_blocks(h0, c_list, a_op, 0), dynamics._adjoint_swap(d)
        )
        rho0 = random_density(rng, d)
        tspan = 1.0

        def run(nsteps):
            tt = np.linspace(0, tspan, 2 * nsteps + 1)
            eps = 0.5 * np.exp(-((tt - 0.5) ** 2) / 0.05) * np.exp(0.7j * tt)
            out = dynamics.propagate(
                gen, rho0.reshape(-1), with_partners(eps), np.full(nsteps, tspan / nsteps),
                np.arange(d) * (d + 1),
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
        d = capture_states(model, db).size
        g0 = 0.8 - 0.5j
        beta0 = 0.25 + 0.15j
        rho0 = random_density(rng, d)
        tspan = 1.2
        nsteps = 300
        nsub = np.array([3, 1] * (nsteps // 2))
        steps = np.repeat(tspan / nsteps / nsub, nsub)
        coeffs = np.tile(with_partners(*capture_coeffs(g0, beta0)), (2 * steps.size + 1, 1))
        diag = np.arange(d) * (d + 1)
        run = dynamics.propagate(
            complex_generator(dynamics._capture_blocks(model, db), dynamics._adjoint_swap(d)),
            rho0.reshape(-1), coeffs, steps, diag, (diag[:1], diag[1:2]),
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


class TestRealCoordinates:
    """The real form of each generator against the complex one it comes from."""

    @pytest.mark.parametrize("n, n_nodes", [(5, 1), (4, 3)])
    def test_basis_is_unitary_and_fixes_the_diagonal(self, n, n_nodes):
        swap = dynamics._adjoint_swap(n, n_nodes)
        t = dynamics._real_basis(swap).toarray()
        npt.assert_allclose(dag(t) @ t, np.eye(swap.size), rtol=0, atol=1e-15)
        # fixed points: the diagonal entries of the diagonal nodes
        diag_nodes = np.arange(n_nodes) * (n_nodes + 1)
        want = (diag_nodes[:, None] * n * n + np.arange(n) * (n + 1)).ravel()
        fixed = np.flatnonzero(swap == np.arange(swap.size))
        npt.assert_array_equal(fixed, want)
        npt.assert_array_equal(t[:, fixed], np.eye(swap.size)[:, fixed])
        # a real r maps to a Hermitian ladder: node (k, m) = node (m, k)^dag
        x = t @ np.random.default_rng(n).normal(size=swap.size)
        x = x.reshape(n_nodes, n_nodes, n, n)
        npt.assert_array_equal(x, np.conjugate(x.transpose(1, 0, 3, 2)))

    def _check_real_form(self, blocks, swap, coeffs):
        rng = np.random.default_rng(swap.size)
        t = dynamics._real_basis(swap)
        t_h = t.conj().T.tocsr()
        blocks = list(blocks)
        gen = complex_generator(blocks, swap)
        real = dynamics._real_form(blocks, t, t_h, np.ones(n_pieces(gen), dtype=bool))
        assert n_pieces(real) == n_pieces(gen)
        # a piece flagged off is dropped: the other blocks stay as they are
        live = np.arange(n_pieces(gen)) % 2 == 0
        kept = dynamics._real_form(blocks, t, t_h, live)
        n = swap.size
        cols = [real[:, k * n:(k + 1) * n] for k in (0, *(np.flatnonzero(live) + 1))]
        assert n_pieces(kept) == int(live.sum())
        assert (kept != sparse.hstack(cols, format="csr")).nnz == 0
        w_complex = np.r_[1.0, with_partners(*coeffs)]
        w_real = np.r_[1.0, [f(c) for c in coeffs for f in (np.real, np.imag)]]
        for _ in range(3):
            r = rng.normal(size=swap.size)
            want = dag(t.toarray()) @ stage(gen, t @ r, w_complex)
            got = stage(real, r, w_real)
            assert got.dtype == np.float64
            scale = np.abs(want).max()
            npt.assert_allclose(got, want.real, rtol=0, atol=1e-14 * scale)
            npt.assert_allclose(want.imag, 0.0, rtol=0, atol=1e-14 * scale)

    def test_real_form_is_the_conjugated_generator(self):
        rng = np.random.default_rng(16)
        d = 5
        h0 = random_hermitian(rng, d)
        a_op = random_matrix(rng, d, 0.5)
        c_list = [random_matrix(rng, d, 0.3) for _ in range(2)]
        eps, w = 0.3 - 0.7j, -0.4 + 0.2j
        self._check_real_form(
            dynamics._ladder_blocks(h0, c_list, a_op, 0), dynamics._adjoint_swap(d), [eps]
        )
        assert dynamics.MOMENT_ORDER == 2
        self._check_real_form(
            dynamics._ladder_blocks(h0, c_list, a_op, 2), dynamics._adjoint_swap(d, 3), [eps, w]
        )
        model = capture_model()
        db = 4
        self._check_real_form(
            dynamics._capture_blocks(model, db),
            dynamics._adjoint_swap(capture_states(model, db).size),
            capture_coeffs(0.8 - 0.5j, 0.25 + 0.15j),
        )

    def test_run_schedule_matches_complex_route(self):
        # both rotations on; the reference walks the segments in the complex
        # matrices.  Inputs: three plain members, then two members of a
        # 9-node ladder with w != 0, whose layout the driver works out
        rng = np.random.default_rng(17)
        model = capture_model()
        d = model.dim
        sched = dynamics.PulseSchedule(
            0.0, 1.0, 1.6, gaussian_input_mode(500e-9), alpha_in=0.0, ramsey_gates=True
        )
        dt = 0.01
        top, rule = dynamics._top_level(np.arange(d) % (model.n_max + 1))
        diag = np.arange(d) * (d + 1)
        npt.assert_array_equal(top, diag[[model.n_max, 2 * model.n_max + 1]])
        assert rule[0] == dynamics.TOP_LEVEL_MAX
        # random states fill the top level: checked against no limit here

        def samples(rates, phase):
            def at(t0, nsteps, dt_seg):
                tt = dynamics._half_grid(t0, nsteps, dt_seg)[:, None]
                return 0.4 * np.exp(1j * rates * tt) * np.cos(2 * tt + rates + phase)
            return at

        eps3 = samples(np.array([0.7, 1.9, 3.1]), 0.0)
        x3 = np.stack([random_density(rng, d).reshape(-1) for _ in range(3)], axis=1)
        eps2, w2 = samples(np.array([1.1, 2.3]), 0.0), samples(np.array([-1.6, 0.8]), 0.5)
        x2 = rng.normal(size=(9 * d * d, 2)) + 1j * rng.normal(size=(9 * d * d, 2))
        swap = dynamics._adjoint_swap(d, 3)
        x2 = (x2 + x2[swap].conj()) / 2  # Hermitian ladder: node (n, m) = node (m, n)^dag
        x2[: d * d] = np.stack([random_density(rng, d).reshape(-1) for _ in range(2)], axis=1)
        cases = (
            (dynamics._ladder_blocks(model.H, model.collapse, model.a, 0), 1, x3, (eps3,)),
            (dynamics._ladder_blocks(model.H, model.collapse, model.a, 2), 3, x2, (eps2, w2)),
        )
        for blocks, nodes, x0, coeff_fns in cases:
            def real_coeffs(t0, nsteps, dt_seg, fns=coeff_fns):
                values = [f(t0, nsteps, dt_seg) for f in fns]
                return dynamics._conj_pairs(*values), np.full(nsteps, dt_seg)

            got = dynamics._run_schedule(
                "route", blocks, x0, sched, dt, real_coeffs, d, [(top, (np.inf, "top", ""))]
            )

            gen = complex_generator(blocks, dynamics._adjoint_swap(d, nodes))
            x = x0
            max_tr, max_top = np.zeros(x0.shape[1]), np.zeros(x0.shape[1])
            for gate, t0, t1 in (
                (dynamics.GATE_Y90, sched.t_i, sched.t_g),
                (dynamics.GATE_YM90, sched.t_g, sched.t_f),
            ):
                x = dynamics._rotate_qubit(x, gate, d)
                nsteps = dynamics._segment_steps(t1 - t0, dt)
                dt_seg = (t1 - t0) / nsteps
                run = dynamics.propagate(
                    gen, x, with_partners(*[f(t0, nsteps, dt_seg) for f in coeff_fns]),
                    np.full(nsteps, dt_seg), diag, (top,),
                )
                x = run.state
                max_tr = np.maximum(max_tr, run.max_trace_defect)
                max_top = np.maximum(max_top, run.max_watched[0])

            scale = np.abs(x).max()
            npt.assert_allclose(got.state, x, rtol=0, atol=1e-14 * scale, err_msg=f"{nodes}")
            npt.assert_allclose(got.max_trace_defect, max_tr, rtol=0, atol=1e-14)
            npt.assert_allclose(got.max_watched[0], max_top, rtol=0, atol=1e-14)

    def test_routes_keep_the_pieces_a_real_amplitude_drives(self, monkeypatch):
        # a real input amplitude and real envelopes switch off Re eps, Re w
        # and the Im parts of beta, g conj(beta), conj(g) and |g|^2
        calls = spy_real_form(monkeypatch)
        model = build_model(default_params(), n_max=5)
        mode = gaussian_input_mode(500e-9)
        sched = dynamics.PulseSchedule(-400e-9, 700e-9, 800e-9, mode, alpha_in=0.2)
        dynamics.evolve(model, sched)
        assert calls == [(1, 2)]
        dynamics.output_mode_moments(model, sched, delay=108e-9)
        assert calls[1:] == [(2, 4)]
        dynamics.capture_mode_oracle(model, sched, delay=108e-9, dim_b=5)
        assert calls[2:] == [(4, 8)]


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
        rho, logliks, n_iter, _ = mle_iterations(
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
        rho, logliks, n_iter, _ = mle_iterations(
            *dense_map(povm), freqs, rho0, 3.0, 5000, 1e-10, 1e-12
        )
        assert n_iter < 5000
        assert logliks.shape == (n_iter,)
        npt.assert_allclose(np.trace(rho), 1.0, atol=1e-12)
