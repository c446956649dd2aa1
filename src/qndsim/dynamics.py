"""Driven-dissipative time evolution and temporal-mode output observables.

Implements fixed-step RK4 master-equation propagation of the qubit-cavity
system with a classical pulse drive and instantaneous qubit rotations, the
ladder of output-mode moments (qubit-resolved mean amplitude, photon number,
and second-order moments of the reflected temporal mode), and an
independent capture-mode oracle that absorbs the outgoing field into an
auxiliary resonator for cross-validation.  All three walk the pulse
schedule through one driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .linalg import coherent, dag, destroy, fock
from .model import LindbladModel, SystemParams, TemporalMode, _require

# qubit basis ordering (|g>, |e>)
GATE_Y90 = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2.0)
GATE_YM90 = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / math.sqrt(2.0)

TRACE_DRIFT_MAX = 1e-8
TOP_LEVEL_MAX = 1e-7
CAPTURE_TOP_MAX = 1e-5
# highest power of A and of Adag in the output-mode moments; the regression
# ladder holds one node per moment, (MOMENT_ORDER + 1)^2 in all
MOMENT_ORDER = 2
# floor of the capture coupling's denominator, relative to the windowed mode
# energy: regularizes the coupling on the leading tail of the mode
CAPTURE_EPS_FLOOR = 1e-6
# most RK4 substeps the capture coupling may take within one step; a step
# that needs more raises instead of running under-resolved
CAPTURE_MAX_SUBSTEPS = 256
# most objective evaluations the delay search may spend (scipy's default for
# its bounded scalar search); one that needs more raises
DELAY_MAX_EVALS = 500


@dataclass(frozen=True)
class PulseSchedule:
    """Timing of the two qubit rotations and the readout relative to the pulse.

    The input envelope arrives as f(-t), peaked near t = 0.  The first
    rotation (+90 deg about y) fires at t_i, the second (-90 deg) at t_g,
    and observables are evaluated at t_f.
    """

    t_i: float
    t_g: float
    t_f: float
    mode: TemporalMode
    alpha_in: complex = 0.0

    def __post_init__(self) -> None:
        _require(self.t_i < self.t_g, "t_i must precede t_g")
        _require(self.t_g <= self.t_f, "t_g must not exceed t_f")

    @property
    def mean_input_photons(self) -> float:
        return float(abs(self.alpha_in) ** 2)


@dataclass
class Trajectory:
    """The state at t_f of one propagation and its monitors."""

    rho: np.ndarray
    max_trace_defect: float
    max_top_population: float

    def expect(self, op: np.ndarray) -> complex:
        return complex(np.einsum("ij,ji->", op, self.rho))


@dataclass
class MomentSet:
    """Normally ordered output-mode moments resolved on the qubit.

    moments[p, q, m, n] holds <sigma_pq Adag^m A^n> at the readout time,
    with p, q in {0: g, 1: e} and m, n up to MOMENT_ORDER.  A is the
    annihilator of the reflected temporal mode; phase_ref is the phase of
    the mean reflected amplitude of an empty-qubit (ground-pinned) linear
    reference used for gauge fixing.
    """

    moments: np.ndarray
    phase_ref: float

    def rotated(self) -> "MomentSet":
        """Re-gauge the mode phase to zero: A -> A e^{-i phase_ref}."""
        k = np.arange(self.moments.shape[-1])
        return MomentSet(
            self.moments * np.exp(1j * np.subtract.outer(k, k) * self.phase_ref), 0.0
        )

    @property
    def mean_photon(self) -> float:
        return float((self.moments[0, 0, 1, 1] + self.moments[1, 1, 1, 1]).real)


# ---------------------------------------------------------------------------
# gates and grids


def _rotate_qubit(x: np.ndarray, gate: np.ndarray, d: int) -> np.ndarray:
    """Rotate the qubit of every d x d block of each column of x by the
    2 x 2 gate (GATE_Y90 or GATE_YM90)."""
    u = np.kron(gate, np.eye(d // 2, dtype=complex))
    cols = np.moveaxis(x, 0, -1)  # (m, n^2); x itself when it is one vector
    out = (u @ cols.reshape(-1, d, d) @ dag(u)).reshape(cols.shape)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def default_timestep(params: SystemParams, mode: TemporalMode) -> float:
    """Fixed RK4 step: the shorter of 1/(10 kappa_tot) and 1/(40 max|f|^2).

    The linewidth term is the longest whole multiple of 1/(40 kappa_tot)
    that meets this error target on the reference set and the ideal
    preset (500 ns pulse; t_i, t_g, t_f = -400, 700, 800 ns), each gap
    taken against a run at a quarter of the step; the envelope term keeps
    its ratio to it:
    - output_mode_moments: largest gap at most 2e-9 of the largest moment;
    - phase_ref: gap at most 2e-8 rad;
    - evolve: gap of the final p_e at most 1e-9.
    The first two bounds hold for second-order (trapezoid) read-outs at a
    quarter of this step: 1.3e-9 and 1.1e-8 rad on the reference set,
    1.8e-9 and 1.4e-8 rad on the ideal preset.  Every route and read-out
    is fourth order, so each gap grows as the fourth power of the step.
    At this step, where the linewidth term sets it, the three gaps are
    6.7e-10, 1.2e-8 rad and 1.3e-10 on the reference set and 1.4e-9,
    1.5e-8 rad and 3.0e-10 on the ideal preset.  1/(8 kappa_tot) breaks
    the target: 3.4e-9 on the ideal preset's moments and 2.9e-8 rad
    on the reference set's phase_ref.  phase_ref's gap is the RK4 error
    of the linear cavity; its quadrature adds 4e-11 rad.
    """
    peak2 = float(np.max(np.abs(mode.f) ** 2))
    _require(peak2 > 0, "mode envelope is identically zero")
    dt = (1.0 / peak2) / 40.0
    kappa = params.kappa_tot
    if np.isfinite(kappa) and kappa > 0:
        dt = min(dt, 1.0 / (10.0 * kappa))
    return dt


def _uniform_integral(y: np.ndarray, span: float) -> complex:
    """Integral of the samples y of a uniform grid over span: composite
    Simpson, with the 3/8 rule over the last three intervals when the
    interval count is odd.  Fourth order; needs at least two intervals."""
    n = len(y) - 1
    _require(n >= 2, "a fourth-order integral needs at least two intervals")
    m = n - 3 if n % 2 else n  # intervals under Simpson's rule
    w = np.zeros(n + 1)
    w[1:m:2], w[2:m:2] = 4.0 / 3.0, 2.0 / 3.0
    if m:
        w[[0, m]] += 1.0 / 3.0
    if m < n:
        w[m:] += (3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0)
    return (span / n) * (y @ w)


def _segment_steps(span: float, dt: float) -> int:
    return max(1, int(math.ceil(span / dt - 1e-12)))


def _half_grid(t0: float, nsteps: int, dt_seg: float) -> np.ndarray:
    return t0 + np.arange(2 * nsteps + 1) * (dt_seg / 2.0)


def _pulse_drive(params: SystemParams, mode: TemporalMode, alpha_in, times: np.ndarray):
    """Cavity drive eps = -i sqrt(kappa_ex) alpha_in f(-t) of the pulse of
    input amplitude alpha_in in mode at times (zeros without a pulse or port)."""
    if alpha_in == 0 or params.kappa_ex == 0:
        return np.zeros(times.shape, dtype=complex)
    return -1j * math.sqrt(params.kappa_ex) * alpha_in * _mode_u(mode, times)


def _mode_u(mode: TemporalMode, times: np.ndarray) -> np.ndarray:
    """Mode waveform f(-t) in the propagation frame (input or projection)."""
    return mode.amplitude(-times)


# ---------------------------------------------------------------------------
# sparse-superoperator propagation
#
# Matrices are row-major vectors, vec(A X B) = (A kron B^T) vec(X), under
# generators L(t) = L0 + sum_k f_k(t) L_k whose pieces are short sums of
# Kronecker products of dense operators, assembled straight into CSR
# (_superop).  Every generator here preserves Hermiticity,
# L(X^dag) = L(X)^dag, and every state the routes evolve is Hermitian (the
# ladder's nodes in the sense X_nm = X_mn^dag), so the routes propagate the
# real coordinates r = T^H x of _real_basis: n^2 reals for an n x n matrix
# instead of n^2 complex values.  Each route writes its generator in the
# complex x, one piece per conjugate pair (see _real_form);
# _run_schedule carries it over once per run and owns T: states enter and
# leave it as matrices.  The diagonal entries keep their positions, so trace
# and population indices read r as they read x.


def _superop(terms, n: int) -> sparse.csr_matrix:
    """X -> sum_k c_k L_k X R_k on vectorised n x n matrices, built in one
    COO -> CSR pass.  terms yields (c, L, R) with L and R dense n x n
    arrays, or None for the identity.  Each entry sums its contributions
    c (L_ik R_lj) in the order of terms and exact zeros are dropped, as the
    chain of sparse Kronecker products and sums that adds the terms in turn
    does."""
    eye = np.eye(n)
    keys, vals = [], []
    for c, left, right in terms:
        lm, rm = (eye if op is None else op for op in (left, right))
        (li, lk), (rl, rj) = np.nonzero(lm), np.nonzero(rm)
        # vec(L X R)[i n + j] += L[i, k] R[l, j] vec(X)[k n + l]
        keys.append(((li[:, None] * n + rj) * (n * n) + lk[:, None] * n + rl).ravel())
        vals.append((c * (lm[li, lk][:, None] * rm[rl, rj])).ravel())
    key, where = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros(key.size, dtype=complex)
    np.add.at(total, where, np.concatenate(vals))  # in index order, so term by term
    nonzero = total != 0
    rows, cols = np.divmod(key[nonzero], n * n)
    indptr = np.searchsorted(rows, np.arange(n * n + 1))
    return sparse.csr_matrix((total[nonzero], cols, indptr), shape=(n * n, n * n))


def _lindblad_superop(h, c_ops) -> sparse.csr_matrix:
    """X -> -i (K X - X K^dag) + sum_c C X C^dag, K = H - (i/2) sum_c C^dag C,
    for dense H and C."""
    k_nh = np.asarray(h, dtype=complex)
    for c in c_ops:
        k_nh = k_nh - 0.5j * (dag(c) @ c)
    terms = [(-1j, k_nh, None), (1j, None, dag(k_nh))]
    return _superop(terms + [(1, c, dag(c)) for c in c_ops], len(k_nh))


def _adjoint_swap(n: int, n_nodes: int = 1) -> np.ndarray:
    """Index involution of X -> X^dag on an n_nodes x n_nodes grid of
    n x n matrices: node (m, k) entry (i, j) <-> node (k, m) entry (j, i).
    With one node it is the transpose of one matrix."""
    size = n_nodes * n_nodes * n * n
    return np.arange(size).reshape(n_nodes, n_nodes, n, n).transpose(1, 0, 3, 2).ravel()


def _real_basis(swap: np.ndarray) -> sparse.csr_matrix:
    """Unitary T mapping real coordinates r to the Hermitian vectors x = T r.

    swap is the index involution of X -> X^dag.  A fixed index i keeps
    e_i; a pair i < j = swap[i] takes (e_i + e_j)/sqrt(2) at column i and
    i (e_i - e_j)/sqrt(2) at column j, so r_i = sqrt(2) Re x_i and
    r_j = sqrt(2) Im x_i.
    """
    idx = np.arange(swap.size)
    fixed = idx[swap == idx]
    lo = idx[idx < swap]
    hi = swap[lo]
    s = math.sqrt(0.5)
    rows = np.concatenate([fixed, lo, hi, lo, hi])
    cols = np.concatenate([fixed, lo, lo, hi, hi])
    vals = np.concatenate([
        np.ones(fixed.size), np.full(2 * lo.size, s), np.full(lo.size, 1j * s),
        np.full(lo.size, -1j * s),
    ])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(swap.size, swap.size))


def _trimmed(values: np.ndarray, m: sparse.csr_matrix) -> sparse.csr_matrix:
    """The CSR matrix of m's pattern with the real entries values, its
    zeros dropped into arrays of their own size (eliminate_zeros keeps the
    old arrays)."""
    keep = values != 0
    kept = np.concatenate([[0], np.cumsum(keep)])  # entries kept before each position
    return sparse.csr_matrix((values[keep], m.indices[keep], kept[m.indptr]), shape=m.shape)


def _side_by_side(blocks) -> sparse.csr_matrix:
    """[B0 | B1 | ... | BK]: the CSR blocks of n rows side by side, so one
    sparse product with the stacked weighted copies (x, f_1 x, ..., f_K x)
    gives L x = B0 x + sum_k f_k B_k x for the generator
    L(t) = L0 + sum_k f_k(t) L_k.  x is one vector of length n^2 or an
    (n^2, m) array whose columns are independent members, each with its
    own coefficients."""
    n = blocks[0].shape[0]
    # each block is moved in turn: sparse.hstack copies all of them first
    counts = np.array([np.diff(b.indptr) for b in blocks])
    indptr = np.concatenate([[0], np.cumsum(counts.sum(axis=0))])
    shift = indptr[:-1] + np.cumsum(counts, axis=0) - counts - [b.indptr[:-1] for b in blocks]
    data = np.empty(indptr[-1], dtype=np.result_type(*(b.data for b in blocks)))
    indices = np.empty(indptr[-1], dtype=np.int32)
    for k, b in enumerate(blocks):
        at = np.repeat(shift[k], counts[k])
        at += np.arange(b.nnz)
        data[at], indices[at] = b.data, b.indices + k * n
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n * len(blocks)))


def _real_form(blocks, t, t_h, live) -> sparse.csr_matrix:
    """The generator in the real coordinates r = T^H x of the unitary
    t = T of _real_basis (t_h = T^H), with only its live pieces, side by
    side (_side_by_side).

    blocks yields the complex L0, then one piece P per conjugate pair:
    the complex generator holds P with coefficient c and its partner
    J P J, J X = X^dag, with conj(c).  A self-conjugate piece with a
    real coefficient s enters as half of it, its own partner, with
    c = s.  T^H L0 T is real, and with M = T^H P T a pair adds
    Re c (2 Re M) + Im c (-2 Im M), so the real form has two pieces per
    P, with coefficients (Re c, Im c).  live flags each of these real
    pieces; only the live ones are converted, and a P with no live half
    is never conjugated.  Each block is converted as it is drawn and
    kept without its zeros, so the complex blocks are never stacked.
    """
    blocks = iter(blocks)
    m = (t_h @ next(blocks) @ t).tocsr()
    real = [_trimmed(m.data.real, m)]
    for piece, (re_on, im_on) in zip(blocks, np.reshape(live, (-1, 2)), strict=True):
        if re_on or im_on:
            m = (t_h @ piece @ t).tocsr()
            if re_on:
                real.append(_trimmed(2 * m.data.real, m))
            if im_on:
                real.append(_trimmed(-2 * m.data.imag, m))
    del m  # free before the real pieces are stacked
    return _side_by_side(real)


def _csr_product(a: sparse.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """Write a @ x into out through the kernel csr_matrix's own product ends
    in, bitwise equal to it without its allocation and dispatch.  x is one
    vector or a C-contiguous (n, m) array, out C-contiguous of the dtype
    a @ x has; the kernel adds into out, so out is zeroed first.  The kernel
    checks neither shape nor layout: the caller does."""
    out.fill(0)
    if x.ndim == 1 or x.shape[1] == 1:  # csr_matrix's choice: one vector
        _sparsetools.csr_matvec(*a.shape, a.indptr, a.indices, a.data, x.ravel(), out.ravel())
    else:
        _sparsetools.csr_matvecs(
            *a.shape, x.shape[1], a.indptr, a.indices, a.data, x.ravel(), out.ravel()
        )


class Propagation(NamedTuple):
    """Final state and monitors; each monitor has one value per member
    column (a 0-d array for a single vector)."""

    state: np.ndarray
    max_trace_defect: np.ndarray
    max_watched: tuple


def propagate(
    generator: sparse.csr_matrix,
    x0: np.ndarray,
    coeffs: np.ndarray,
    steps: np.ndarray,
    trace_idx: np.ndarray,
    watch: tuple = (),
) -> Propagation:
    """Fixed-step RK4 of x' = L(t) x over len(steps) steps.

    generator is [L0 | L1 | ... | LK] (_side_by_side).  Step i has length
    steps[i] and reads the coefficient rows 2i, 2i + 1 and 2i + 2: its
    start, midpoint and end, so consecutive steps share their boundary row.
    coeffs has one column per piece of the generator; with x0 of shape
    (n^2, m) it is (rows, K, m), one coefficient set per member column.  x keeps the dtype of x0 when the
    generator and coeffs are real, as for a real form in real
    coordinates.  The monitors are maxima per member over the states after
    each step (0 without steps): |trace - 1| of the entries trace_idx of x,
    and the summed real part of x over each index array in watch; a NaN stays.

    x0 is left as it is.  The run allocates its buffers once: the stack
    that each stage's product reads, whose row 0 takes the stage's input
    and rows 1 to K its weighted copies f_k x, the stage derivative and
    the step sum.  Each operation is the one the expression
    x + (h / 6) (k1 + 2 k2 + 2 k3 + k4) performs, in its order and with its
    operand order (numpy's complex product is not commutative to the bit),
    so every state is bitwise what that expression gives, with
    L x = [L0 | L1 | ... | LK] (1 x, f_1 x, ..., f_K x).  (Row 0 holds x, not
    1 x: for a complex x that may flip the sign of a zero, never a value.)
    """
    x = np.array(x0, dtype=np.result_type(x0, coeffs, generator.dtype), order="C")
    stack = np.empty((1 + coeffs.shape[1], *x.shape), dtype=x.dtype)
    if generator.shape != (len(x), len(x) * len(stack)):
        raise ValueError(
            f"a state of {len(x)} entries with {coeffs.shape[1]} pieces does not fit "
            f"a generator of shape {generator.shape}"
        )
    xs, k, acc = stack[0], np.empty_like(x), np.empty_like(x)
    copies = stack.reshape(-1, *x.shape[1:])

    def derivative(weights, out):
        """Write L x into out for x in xs and the coefficients weights."""
        for row, w in zip(stack[1:], weights):
            np.multiply(w, xs, out=row)
        _csr_product(generator, copies, out)

    bounds = np.cumsum([0, len(trace_idx), *map(len, watch)])
    gather = np.concatenate([trace_idx, *watch]).astype(np.intp)
    seen = np.empty((len(steps), gather.size, *x.shape[1:]), dtype=x.dtype)
    for i, h in enumerate(np.asarray(steps).tolist()):
        j = 2 * i
        np.copyto(xs, x)
        derivative(coeffs[j], acc)  # k1
        np.multiply(h / 2, acc, out=xs)
        np.add(x, xs, out=xs)
        derivative(coeffs[j + 1], k)  # k2
        np.multiply(h / 2, k, out=xs)
        np.add(x, xs, out=xs)
        np.multiply(2, k, out=k)
        acc += k  # k1 + 2 k2
        derivative(coeffs[j + 1], k)  # k3
        np.multiply(h, k, out=xs)
        np.add(x, xs, out=xs)
        np.multiply(2, k, out=k)
        acc += k  # k1 + 2 k2 + 2 k3
        derivative(coeffs[j + 2], k)  # k4
        acc += k
        np.multiply(h / 6, acc, out=acc)
        x += acc
        np.take(x, gather, axis=0, out=seen[i])
    tr, *sums = [seen[:, lo:hi].sum(axis=1) for lo, hi in zip(bounds, bounds[1:])]
    max_tr = np.max(abs(tr.real - 1.0) + abs(tr.imag), axis=0, initial=0.0)
    return Propagation(x, max_tr, tuple(np.max(s.real, axis=0, initial=0.0) for s in sums))


def _ladder_blocks(h, c_ops, a, order: int) -> tuple:
    """L0 and the pieces of the regression ladder of order K = order: eps,
    then w when K > 0.  Order 0 is the driven master equation itself.

    The state holds (K + 1)^2 nodes, node (m, n) at offset ((K + 1) m + n) n^2
    for m, n <= K, each driven by the master equation: L0 and the piece eps
    of the drive term -i[i eps a^dag - i conj(eps) a, X].  Node (m, n) is
    sourced by w a X_{m,n-1} and conj(w) X_{m-1,n} a^dag: the piece w and
    its partner in a block-lower-triangular generator.  The ladder is
    Hermitian in the sense X_{n,m} = X_{m,n}^dag.  h, c_ops and a are dense.
    """
    ad, n = dag(a), len(a)
    blocks = (_lindblad_superop(h, c_ops), _superop([(1, ad, None), (-1, None, ad)], n))
    if not order:
        return blocks
    nodes = sparse.identity((order + 1) ** 2, dtype=complex, format="csr")
    src = sparse.kron(sparse.identity(order + 1), sparse.eye(order + 1, k=-1))  # n - 1 -> n
    return (
        *(sparse.kron(nodes, b, format="csr") for b in blocks),
        sparse.kron(src, _superop([(1, a, None)], n), format="csr"),
    )


def _top_level(levels: np.ndarray) -> tuple:
    """Monitor of the top cavity level, for _run_schedule: the positions of
    the populations of the states whose cavity level, in levels (one per
    state of a d x d matrix), is the highest, and its rule."""
    at = np.flatnonzero(levels == levels.max()) * (levels.size + 1)
    return at, (TOP_LEVEL_MAX, "top-level population", "raise the truncation dimension")


def _conj_pairs(*samples: np.ndarray) -> np.ndarray:
    """Real-form coefficient rows (Re s_1, Im s_1, Re s_2, Im s_2, ...) of
    the pieces with coefficients s_k (see _real_form)."""
    return np.stack([f(s) for s in samples for f in (np.real, np.imag)], axis=1)


def _check_monitors(label: str, max_tr, watched) -> None:
    """Raise on the first breach: of the trace drift max_tr against
    TRACE_DRIFT_MAX, then of each running maximum in watched, in order,
    against the (limit, name, remedy) it is paired with.  Each maximum has
    one value per member; a NaN is a breach, and the worst member is quoted."""
    worst = float(np.max(max_tr))  # np.max keeps a NaN, which fails every <=
    if not worst <= TRACE_DRIFT_MAX:
        raise RuntimeError(f"{label}: trace drifted by {worst:.3e} (limit {TRACE_DRIFT_MAX:.0e})")
    for value, (limit, name, remedy) in watched:
        worst = float(np.max(value))
        if not worst <= limit:
            raise RuntimeError(f"{label}: {name} {worst:.3e} exceeds {limit:.0e}; {remedy}")


# ---------------------------------------------------------------------------
# propagation


def _run_schedule(
    label: str,
    blocks,
    x: np.ndarray,
    schedule: PulseSchedule,
    dt: float,
    coeffs_for: Callable,
    d: int,
    monitors,
) -> Propagation:
    """Propagate the Hermitian matrices x, the state at t_i, to t_f.

    x is a square grid of nodes of d x d matrices, as the regression ladder
    holds them (one node for a plain state), and may hold one member per
    column (see propagate).  blocks yields the complex L0 and one piece per
    conjugate pair, as _real_form reads them.  The schedule has two
    segments, t_i to t_g and t_g to t_f, each opened by a qubit rotation of
    every node (GATE_Y90, then GATE_YM90).  Each segment is cut into nsteps
    equal steps no longer than dt; coeffs_for(t0, nsteps, dt_seg) returns its
    real-form coefficient rows and step lengths for propagate.  A piece is
    live when its coefficient is nonzero in some row, member or segment;
    the run builds its real form once, from the live pieces only, and
    propagates the real coordinates r = T^H x, T = _real_basis of the
    nodes' _adjoint_swap.  The trace monitor reads node (0, 0); monitors
    pairs index arrays into x with the (limit, name, remedy) each sum is
    held to.  The monitors are maximised per member over both segments and
    checked under label by _check_monitors, which raises on a breach.
    Only the state at t_f is kept, and it is returned as matrices.
    """
    segments = []
    for gate, t0, t1 in (
        (GATE_Y90, schedule.t_i, schedule.t_g), (GATE_YM90, schedule.t_g, schedule.t_f)
    ):
        nsteps = _segment_steps(t1 - t0, dt) if t1 - t0 > 1e-15 else 0
        segments.append((gate, *coeffs_for(t0, nsteps, (t1 - t0) / max(nsteps, 1))))
    live = np.any(
        [np.any(c.reshape(*c.shape[:2], -1) != 0, axis=(0, 2)) for *_, c, _ in segments], axis=0
    )
    watch = tuple(at for at, _ in monitors)
    t = _real_basis(_adjoint_swap(d, math.isqrt(len(x) // (d * d))))
    trace_idx = np.arange(d) * (d + 1)
    t_h = t.conj().T.tocsr()
    gen = _real_form(blocks, t, t_h, live)
    r = (t_h @ x).real
    max_tr = np.zeros(x.shape[1:])
    max_watched = (max_tr,) * len(watch)
    for gate, coeffs, steps in segments:
        r = (t_h @ _rotate_qubit(t @ r, gate, d)).real
        run = propagate(gen, r, coeffs[:, live], steps, trace_idx, watch)
        r = run.state
        max_tr = np.maximum(max_tr, run.max_trace_defect)
        max_watched = tuple(map(np.maximum, max_watched, run.max_watched))
    _check_monitors(label, max_tr, zip(max_watched, (rule for _, rule in monitors)))
    return Propagation(t @ r, max_tr, max_watched)


def _prepared_states(
    model: LindbladModel, schedule: PulseSchedule, alphas, dt: float, db: int = 1
) -> np.ndarray:
    """The states at t_i of members with input amplitudes alphas, one
    column vec(|g><g| x |a_j><a_j| x |0><0|_b) per member.

    Until t_i the qubit is held in |g> and no channel heats the cavity, so
    the cavity holds the coherent amplitude a_j of the ground-pinned linear
    cavity; a_j is linear in alphas[j] and is integrated once, at unit
    input.  |0>_b is the empty capture mode of db levels (none for db = 1).
    """
    unit = (_prepared_amplitude(model.params, schedule.mode, schedule.t_i, dt)
            if any(alphas) else 0.0)
    # coherent(n, 0) is the vacuum
    kets = [np.kron([1.0, 0.0], np.kron(coherent(model.n_max + 1, a * unit), fock(db, 0)))
            for a in alphas]
    return np.stack([np.outer(k, np.conjugate(k)).ravel() for k in kets], axis=1)


def evolve(model: LindbladModel, schedule: PulseSchedule, alphas=None) -> list:
    """Propagate from t_i to t_f one member per input amplitude in alphas.

    Member j is schedule's pulse at amplitude alphas[j]; alphas defaults
    to [schedule.alpha_in], and schedule.alpha_in is read only then.  The
    members are the columns of one RK4 run: each trajectory and its
    monitors equal those of the member's own run up to round-off, and a
    monitor breach in any member raises.  Every member starts at t_i from
    its prepared state: the qubit in |g> and the cavity in the coherent
    state that the pulse has built up by t_i (see _prepared_states).  Qubit
    rotations fire at t_i and t_g.  Each trajectory holds its state at t_f.
    """
    alphas = [schedule.alpha_in] if alphas is None else list(alphas)
    dt = default_timestep(model.params, schedule.mode)
    x0 = _prepared_states(model, schedule, alphas, dt)
    d = model.dim

    def coeffs_for(t0, nsteps, dt_seg):
        tt = _half_grid(t0, nsteps, dt_seg)
        eps = np.stack([_pulse_drive(model.params, schedule.mode, a, tt) for a in alphas], axis=-1)
        return _conj_pairs(eps), np.full(nsteps, dt_seg)

    run = _run_schedule(
        "evolve", _ladder_blocks(model.H, model.collapse, model.a, 0), x0, schedule, dt,
        coeffs_for, d, [_top_level(np.arange(d) % (model.n_max + 1))],
    )
    rhos = run.state.reshape(d, d, -1)
    return [
        Trajectory(np.ascontiguousarray(rhos[..., j]), float(tr), float(top))
        for j, (tr, top) in enumerate(zip(run.max_trace_defect, run.max_watched[0]))
    ]


# ---------------------------------------------------------------------------
# linear (ground-pinned) reference and delay choice


def _linear_cavity(params: SystemParams, mode: TemporalMode, alpha_in, t0, t1, dt, a0=0.0):
    """RK4 step grid from t0 to t1 and the amplitude alpha on it of the
    ground-pinned linear cavity alpha' = -(i chi + kappa_tot/2) alpha + eps,
    driven by the pulse of input amplitude alpha_in in mode (eps of
    _pulse_drive), with alpha(t0) = a0.  The grid has at least the two
    intervals that _uniform_integral needs.  An RK4 step of this linear
    equation is a_{k+1} = P a_k + q_k, z = lambda h: P = 1 + z + z^2/2 +
    z^3/6 + z^4/24, and q_k = (h/6) [(1 + z + z^2/2 + z^3/4) eps_{2k} +
    (4 + 2z + z^2/2) eps_{2k+1} + eps_{2k+2}]."""
    nsteps = max(2, _segment_steps(t1 - t0, dt))
    dt_seg = (t1 - t0) / nsteps
    eps = _pulse_drive(params, mode, alpha_in, _half_grid(t0, nsteps, dt_seg))
    z = -(1j * params.chi + params.kappa_tot / 2.0) * dt_seg
    p = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    q = (dt_seg / 6) * (
        (1 + z + z**2 / 2 + z**3 / 4) * eps[:-1:2] + (4 + 2 * z + z**2 / 2) * eps[1::2] + eps[2::2]
    )
    alpha = [complex(a0)]
    for q_k in q.tolist():
        alpha.append(p * alpha[-1] + q_k)
    return t0 + np.arange(nsteps + 1) * dt_seg, np.array(alpha)


def _prepared_amplitude(params: SystemParams, mode: TemporalMode, t_i: float, dt: float):
    """Linear-cavity amplitude at t_i per unit input amplitude in mode, empty
    at the pulse's start -mode.t[-1] (0j when the pulse starts later)."""
    t0 = -float(mode.t[-1])
    if t_i - t0 <= 1e-15:
        return 0j
    return complex(_linear_cavity(params, mode, 1.0, t0, t_i, dt)[1][-1])


def _linear_output(params: SystemParams, mode: TemporalMode, alpha_in, t0, t1, dt, a0=0.0):
    """Output field psi_out = beta - i sqrt(kex) alpha of the ground-pinned
    linear cavity (_linear_cavity: the pulse of input amplitude alpha_in in
    mode, alpha(t0) = a0) on its RK4 step grid from t0 to t1."""
    t_full, alpha = _linear_cavity(params, mode, alpha_in, t0, t1, dt, a0)
    return t_full, alpha_in * _mode_u(mode, t_full) - 1j * math.sqrt(params.kappa_ex) * alpha


def linear_reference(
    params: SystemParams,
    schedule: PulseSchedule,
    output_mode: TemporalMode,
    *,
    dt: Optional[float] = None,
) -> complex:
    """Windowed projection a_ref = <u, psi_out> over [t_i, t_f] of the mean
    output field of the ground-pinned linear cavity, driven from the
    pulse's start."""
    if dt is None:
        dt = default_timestep(params, schedule.mode)
    mode, alpha_in = schedule.mode, schedule.alpha_in
    a0 = alpha_in * _prepared_amplitude(params, mode, schedule.t_i, dt)
    t_full, psi_out = _linear_output(params, mode, alpha_in, schedule.t_i, schedule.t_f, dt, a0)
    uu = _mode_u(output_mode, t_full)
    return complex(_uniform_integral(np.conjugate(uu) * psi_out, schedule.t_f - schedule.t_i))


def _bounded_brent(f: Callable[[float], float], lo: float, hi: float, xatol: float) -> float:
    """Minimizer of f on [lo, hi] by Brent's bounded method.

    A step-for-step port of scipy.optimize's _minimize_scalar_bounded
    (BSD-licensed): golden-section steps with parabolic interpolation, the
    same tolerance terms and bracket updates, so it evaluates f at the same
    points and returns the same x.  Raises RuntimeError on a NaN value of f
    or when DELAY_MAX_EVALS evaluations do not converge.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise RuntimeError(f"delay search met a NaN objective at tau = {x:.6g} s")
        return fx

    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = value(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
            if parabolic:
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if not parabolic:  # golden-section step into the larger part
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = value(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= DELAY_MAX_EVALS:
            raise RuntimeError(
                f"delay search did not converge in {DELAY_MAX_EVALS} evaluations"
            )
    return xf


def optimize_delay(params: SystemParams, mode: TemporalMode) -> float:
    """Delay of the projection mode maximizing captured reflected energy.

    Maximizes |<f(. - tau), psi_out>|^2 for the ground-pinned linear cavity
    over tau in [0, 5/kappa_ex] by Brent's bounded search to 1 ns
    (_bounded_brent, a port of scipy's minimize_scalar(method="bounded")
    that gives the same tau bit for bit).  Raises RuntimeError when the
    search meets a NaN objective or spends DELAY_MAX_EVALS evaluations.
    """
    if params.kappa_ex <= 0:
        return 0.0
    dt = default_timestep(params, mode)
    t0 = float(mode.t[0])
    t1 = float(mode.t[-1]) + 5.0 / params.kappa_ex
    a0 = _prepared_amplitude(params, mode, t0, dt)
    t_full, psi_out = _linear_output(params, mode, 1.0, t0, t1, dt, a0)

    def negative_capture(tau: float) -> float:
        uu = _mode_u(mode, t_full - tau)
        return -abs(_uniform_integral(np.conjugate(uu) * psi_out, t1 - t0)) ** 2

    return float(_bounded_brent(negative_capture, 0.0, 5.0 / params.kappa_ex, xatol=1e-9))


# ---------------------------------------------------------------------------
# output-mode moments: regression ladder


def _classical_shift(moments: np.ndarray, c: complex) -> np.ndarray:
    """Normally ordered moments of A + c from those of A: P̄ M Pᵀ over the
    last two axes, with P[n, k] = C(n, k) c^(n - k)."""
    k = np.arange(moments.shape[-1])
    binom = np.array([[math.comb(n, j) for j in k] for n in k])
    p = binom * np.power(c, np.maximum(np.subtract.outer(k, k), 0))
    return np.conjugate(p) @ moments @ p.T


def _gauge_phase(
    params: SystemParams, schedule: PulseSchedule, output_mode: TemporalMode, dt: float
) -> float:
    """Argument of the linear reference's projection (0 without a pulse)."""
    a_ref = linear_reference(params, schedule, output_mode, dt=dt)
    return float(np.angle(a_ref)) if abs(a_ref) > 1e-300 else 0.0


def output_mode_moments(
    model: LindbladModel,
    schedule: PulseSchedule,
    *,
    delay: float,
    output_mode: Optional[TemporalMode] = None,
) -> MomentSet:
    """Qubit-resolved moments of the reflected temporal mode at t_f.

    Propagates a ladder of matrices sourced by ladder-operator insertions
    weighted with the projection-mode waveform (regression route), its node
    (0, 0) started at t_i from the prepared state (see evolve), then
    shifts by the classical amplitude c = alpha_in o_f, where o_f is the
    overlap of the projection mode with the input envelope over [t_i, t_f].
    The projection mode is output_mode if given, else the input mode
    delayed by delay.
    """
    p = model.params
    dt = default_timestep(p, schedule.mode)
    if output_mode is None:
        output_mode = schedule.mode.delayed(delay)
    d = model.dim
    n_k = MOMENT_ORDER + 1  # nodes per ladder axis
    x = np.zeros(n_k * n_k * d * d, dtype=complex)
    x[: d * d] = _prepared_states(model, schedule, [schedule.alpha_in], dt)[:, 0]
    sqrt_kex = math.sqrt(p.kappa_ex) if p.kappa_ex > 0 else 0.0

    def coeffs_for(t0, nsteps, dt_seg):
        tt = _half_grid(t0, nsteps, dt_seg)
        eps = _pulse_drive(p, schedule.mode, schedule.alpha_in, tt)
        w = -1j * sqrt_kex * np.conjugate(_mode_u(output_mode, tt))
        return _conj_pairs(eps, w), np.full(nsteps, dt_seg)

    run = _run_schedule(
        "output_mode_moments", _ladder_blocks(model.H, model.collapse, model.a, MOMENT_ORDER),
        x, schedule, dt, coeffs_for, d, [_top_level(np.arange(d) % (model.n_max + 1))],
    )
    # <sigma_pq Adag^m A^n> = m! n! Tr[sigma_pq X_mn], sigma_pq = |p><q| x 1
    n_c = model.n_max + 1
    fac = np.array([math.factorial(m) for m in range(n_k)], dtype=float)
    mb = np.einsum("mnqkpk->pqmn", run.state.reshape(n_k, n_k, 2, n_c, 2, n_c))
    tt = np.linspace(
        schedule.t_i, schedule.t_f, 4 * _segment_steps(schedule.t_f - schedule.t_i, dt) + 1
    )
    overlap = np.conjugate(_mode_u(output_mode, tt)) * _mode_u(schedule.mode, tt)
    o_f = complex(_uniform_integral(overlap, schedule.t_f - schedule.t_i))
    moments = _classical_shift(mb * np.outer(fac, fac), schedule.alpha_in * o_f)
    return MomentSet(moments, _gauge_phase(p, schedule, output_mode, dt))


# ---------------------------------------------------------------------------
# capture-mode oracle


def _capture_pairs(n_c: int, db: int) -> np.ndarray:
    """Positions, in the product of the qubit, the cavity (n_c levels) and
    the capture mode (db levels), of the states whose cavity and capture
    levels n and m keep n + m <= max(n_c, db) - 1: qubit-major, in product
    order.  Each mode keeps its full range; only the corners that neither
    mode's own truncation reaches are cut."""
    n, m = np.divmod(np.arange(n_c * db), db)
    pairs = np.flatnonzero(n + m < max(n_c, db))
    return np.concatenate([pairs, n_c * db + pairs])


def _capture_blocks(model: LindbladModel, db: int):
    """Yield L0 and the pieces of the system cascaded into a capture mode b
    of db levels, one at a time, on the states of _capture_pairs.

    With the input amplitude beta(t) and the capture coupling g(t), the
    effective Hamiltonian is
    K + sqrt(kex) (beta a^dag + conj(beta) a) + i g conj(beta) b
    - i conj(g) beta b^dag - sqrt(kex) conj(g) b^dag a - (i/2) |g|^2 b^dag b
    (K the constant non-Hermitian part) and the output collapse operator is
    -i sqrt(kex) a + g b.  Expanding both gives the pieces beta,
    g conj(beta) and conj(g), each standing for its conjugate pair, and
    half the self-conjugate |g|^2 piece (see _real_form).  The
    constant part keeps the model's own collapse operators: the internal
    loss kin D[a] and the output's g-free part kex D[a] sum to its
    kappa_tot D[a].

    Every operator is the product-space one restricted to the kept states.
    The cascaded coupling b^dag a keeps n + m; only the drives a^dag and
    b^dag leave the cap, and the restriction drops those transitions as the
    per-mode truncation drops level n_max + 1.  The lowering operators map
    kept states to kept states, so products of restricted operators equal
    the restricted products.
    """
    keep = _capture_pairs(model.n_max + 1, db)

    def extend(op):
        return np.kron(op, np.eye(db))[np.ix_(keep, keep)]

    d, sqrt_kex = keep.size, math.sqrt(model.params.kappa_ex)
    yield _lindblad_superop(extend(model.H), [extend(c) for c in model.collapse])
    # each dense operator lives from the block that first reads it to the last
    a = extend(model.a)
    yield _superop([(-1j * sqrt_kex, dag(a), None), (-1j * sqrt_kex, None, -dag(a))], d)
    b = np.kron(np.eye(model.dim), destroy(db))[np.ix_(keep, keep)]
    yield _superop([(1, b, None), (-1, None, b)], d)
    bd = dag(b)
    yield _superop([(1j * sqrt_kex, bd @ a, None), (1j * sqrt_kex, -a, bd)], d)
    del a
    bdb = bd @ b
    # 0.5 (b X b^dag - 0.5 (b^dag b X + X b^dag b)): the b^dag b terms are summed first
    yield _superop([(-0.25, bdb, None), (-0.25, None, bdb), (0.5, b, bd)], d)


def capture_mode_oracle(
    model: LindbladModel,
    schedule: PulseSchedule,
    *,
    delay: float,
    output_mode: Optional[TemporalMode] = None,
    dim_b: int = 7,
) -> MomentSet:
    """Independent route to the output-mode moments via an absorbing mode.

    Augments the system with an auxiliary resonator whose time-dependent
    coupling is shaped so it absorbs exactly the projection mode of the
    reflected field; the joint state starts at t_i as the prepared state
    (see evolve) with the capture mode empty, and at t_f the
    auxiliary-mode moments are read directly from it.  The coupling
    denominator is floored at CAPTURE_EPS_FLOOR of the windowed mode
    energy to regularize the leading tail.

    The joint state keeps only the cavity and capture levels n, m with
    n + m <= N = max(n_max, dim_b - 1) (_capture_pairs): 35 of the 56
    pairs at the defaults, so d = 70 in place of 112.  Three monitors
    guard the truncation: the top cavity level and the n + m = N shell
    against TOP_LEVEL_MAX, the top capture level against CAPTURE_TOP_MAX.
    At t_f the state is embedded back into the full product for the
    read-out.  The projection mode is output_mode if given, else the input
    mode delayed by delay.
    """
    _require(dim_b >= 4, "capture mode needs at least 4 levels")
    p = model.params
    _require(p.kappa_ex > 0, "capture oracle needs an external port")
    dt = default_timestep(p, schedule.mode)
    if output_mode is None:
        output_mode = schedule.mode.delayed(delay)
    n_c = model.n_max + 1
    db = dim_b
    keep = _capture_pairs(n_c, db)
    d, d_full = keep.size, 2 * n_c * db
    x = _prepared_states(model, schedule, [schedule.alpha_in], dt, db)
    x = x.reshape(d_full, d_full)[np.ix_(keep, keep)].ravel()  # frees the full product

    # fine-grid mode energy and coupling magnitude inside the window
    n_fine = 64 * _segment_steps(schedule.t_f - schedule.t_i, dt) + 1
    t_fine = np.linspace(schedule.t_i, schedule.t_f, n_fine)
    u_fine = _mode_u(output_mode, t_fine)
    inten = np.abs(u_fine) ** 2
    cum = np.concatenate(
        [[0.0], np.cumsum((inten[1:] + inten[:-1]) / 2 * np.diff(t_fine))]
    )
    energy = float(cum[-1])
    _require(energy > 0, "projection mode carries no energy inside the window")
    f_fine = CAPTURE_EPS_FLOOR * energy + cum
    g2_fine = inten / f_fine
    del u_fine, inten, cum  # the fine grid is large; keep only what the stages read

    def coeffs_for(t0, nsteps, dt_seg):
        """Coefficient rows and lengths of the substeps of every step."""
        edges = t0 + np.arange(nsteps + 1) * dt_seg
        # step k reads the fine grid's [lo_k, hi_k); the windows may overlap
        lo = np.searchsorted(t_fine, edges[:-1] - 1e-15)
        hi = np.searchsorted(t_fine, edges[1:] + 1e-15)
        gmax = np.maximum.reduceat(np.append(g2_fine, 0.0), np.stack([lo, hi], axis=1).ravel())
        gmax = np.where(hi > lo, gmax[::2], 0.0)
        nsub = np.maximum(1, np.ceil(dt_seg * gmax / 2.0)).astype(np.int64)
        if np.any(nsub > CAPTURE_MAX_SUBSTEPS):
            k = int(np.argmax(nsub > CAPTURE_MAX_SUBSTEPS))
            raise RuntimeError(
                f"capture_mode_oracle: step {k} from t = {edges[k]:.6e} s needs "
                f"{nsub[k]} substeps (cap {CAPTURE_MAX_SUBSTEPS})"
            )
        # step k's substep starts and midpoints, t0 + k dt_seg + j dt_seg / (2 nsub_k)
        reps = 2 * nsub
        j = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        ts = np.append(
            t0 + np.repeat(np.arange(nsteps), reps) * dt_seg + j * np.repeat(dt_seg / reps, reps),
            t0 + nsteps * dt_seg,
        )
        beta = schedule.alpha_in * _mode_u(schedule.mode, ts)
        gt = -_mode_u(output_mode, ts) / np.sqrt(np.interp(ts, t_fine, f_fine))
        coeffs = _conj_pairs(
            beta, gt * np.conjugate(beta), np.conjugate(gt), gt.real**2 + gt.imag**2
        )
        return coeffs, np.repeat(dt_seg / nsub, nsub)

    diag = np.arange(d) * (d + 1)
    lvl_a, lvl_b = np.divmod(keep % (n_c * db), db)  # cavity and capture level of each state
    shell = max(n_c, db) - 1
    monitors = (
        _top_level(lvl_a),
        (diag[lvl_a + lvl_b == shell],
         (TOP_LEVEL_MAX, f"n + m = {shell} shell population", "raise n_max or dim_b")),
        (diag[lvl_b == db - 1], (CAPTURE_TOP_MAX, "capture-mode top population", "raise dim_b")),
    )
    run = _run_schedule(
        "capture_mode_oracle", _capture_blocks(model, db), x, schedule, dt, coeffs_for, d, monitors
    )

    # <sigma_pq b^dag^m b^n> from the qubit-capture state (cavity traced out)
    scale = math.sqrt(CAPTURE_EPS_FLOOR * energy + energy)
    rho = np.zeros((d_full, d_full), dtype=complex)
    rho[np.ix_(keep, keep)] = run.state.reshape(d, d)
    rho_qb = np.einsum("qnjpni->qjpi", rho.reshape(2, n_c, db, 2, n_c, db))
    k = range(MOMENT_ORDER + 1)
    b_pow = [np.linalg.matrix_power(destroy(db), n) for n in k]
    ops = np.array([[dag(b_pow[m]) @ b_pow[n] for n in k] for m in k])
    # Python's float power: numpy's vectorised one can differ in the last bit
    weights = np.array([[scale ** (m + n) for n in k] for m in k])
    moments = np.einsum("mnij,qjpi->pqmn", ops, rho_qb) * weights
    return MomentSet(moments, _gauge_phase(p, schedule, output_mode, dt))
