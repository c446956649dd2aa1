"""Quadrature measurement emulation and maximum-likelihood reconstruction.

Measurement side of the simulator: phase-swept quadrature POVMs in the Fock
basis (with detector inefficiency folded in as a loss channel), one binned
sampler and one iterative maximum-likelihood fit for mode and qubit-mode
states alike, Wigner functions, and photon-number distributions.

Quadrature convention: Var(x) = 1/2 for vacuum, with the phase-theta
quadrature x_theta = (a e^{i theta} + a^dag e^{-i theta})/sqrt(2), so a
coherent state alpha has mean quadrature sqrt(2) Re(alpha e^{i theta}).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import QuantumState

DEFAULT_BINS = 201
GRID_HALF_WIDTH = 5.0
N_TOMO_SINGLE = 5
N_TOMO_COMPOSITE = 3
MIN_PHASES = 20
PROB_FLOOR = 1e-12
LIKELIHOOD_TOL = 1e-10
DEFAULT_ITERATIONS = 10**4
RAW_COMPLETENESS_TOL = 1e-4
QUBIT_BASES = ("X", "Y", "Z")
# Accepted MLE steps between R rho R stop tests: of 2, 4 and 8, 4 fitted
# as fast as 8 with half its overshoot (at most k - 1 extra iterations)
_STOP_EVERY = 4

_PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def default_grid() -> np.ndarray:
    """DEFAULT_BINS uniform quadrature bin centers spanning +-GRID_HALF_WIDTH."""
    return np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, DEFAULT_BINS)


def phase_settings(n: int = 100) -> np.ndarray:
    """n measurement phases stepping uniformly over [0, pi)."""
    return np.linspace(0.0, math.pi, n, endpoint=False)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions psi_0..psi_{n_max-1} at x.

    Stable three-term recurrence; rows are L2-normalized on the real line
    in the Var(x) = 1/2 convention (|psi_0|^2 = e^{-x^2}/sqrt(pi)).
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max, x.size))
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * x**2)
    if n_max > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, n_max - 1):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * out[n]
            - math.sqrt(n / (n + 1)) * out[n - 1]
        )
    return out


def loss_kraus(dim: int, eta: float) -> list[np.ndarray]:
    """Kraus operators of a beam-splitter loss channel of transmittance eta."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    ops = []
    for k in range(dim):
        a_k = np.zeros((dim, dim))
        for n in range(k, dim):
            a_k[n - k, n] = math.sqrt(
                math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k
            )
        if np.any(a_k):
            ops.append(a_k)
    return ops


@dataclass
class QuadraturePOVM:
    """One phase setting: a positive matrix per quadrature bin."""

    x_centers: np.ndarray
    elements: np.ndarray  # (n_bins, d, d)


def _build_povm_any_dim(
    eta: float,
    n_tomo: int,
    x_grid: np.ndarray | None,
) -> QuadraturePOVM:
    """The phase-0 bins E_b, whose elements are real.

    Ideal projector elements psi_m(x) psi_n(x) dx are pre-composed with the
    adjoint of a transmittance-eta loss channel, then symmetrically
    renormalized so the elements resolve the identity exactly. A
    completeness defect above RAW_COMPLETENESS_TOL before renormalization
    means the grid does not cover the state space and is an error.

    Every phase-theta element is D E_b D^dag with D = diag(e^{-i n theta}):
    the loss Kraus maps shift Fock levels and the symmetric renormalization
    is built from the elements' sum, so both commute with D up to phases
    that cancel.
    """
    if n_tomo < 2:
        raise ValueError("need at least 2 Fock levels")
    x = default_grid() if x_grid is None else np.asarray(x_grid, dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 quadrature bins")
    widths = np.diff(x)
    width = float(widths[0])
    if not np.allclose(widths, width, rtol=1e-9):
        raise ValueError("quadrature grid must be uniform")
    psi = hermite_functions(n_tomo, x)
    elements = np.einsum("mb,nb->bmn", psi, psi) * width
    if eta != 1.0:
        elements = sum(a_k.T @ elements @ a_k for a_k in loss_kraus(n_tomo, eta))
    s = elements.sum(axis=0)
    defect = float(np.max(np.abs(s - np.eye(n_tomo))))
    if defect > RAW_COMPLETENESS_TOL:
        raise ValueError(
            f"quadrature grid too narrow: completeness defect {defect:.3e}"
        )
    evals, evecs = np.linalg.eigh(s)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    return QuadraturePOVM(x, inv_sqrt @ elements @ inv_sqrt)


def build_povm(
    theta: float,
    eta: float = 1.0,
    n_tomo: int = N_TOMO_SINGLE,
    x_grid: np.ndarray | None = None,
) -> QuadraturePOVM:
    """Binned quadrature POVM at one phase, smeared by detector loss.

    The shared phase-0 bins (see _build_povm_any_dim) rotated to
    D E_b D^dag with D = diag(e^{-i n theta}).
    """
    bins = _build_povm_any_dim(eta, n_tomo, x_grid)
    d = np.exp(-1j * theta * np.arange(n_tomo))
    return QuadraturePOVM(bins.x_centers, d[:, None] * bins.elements * d.conj())


def _on_grid(x, lo: float, hi: float) -> bool:
    """Whether bin centers x are the uniform grid from lo to hi, to 1e-12
    absolute: the grid a record's metadata (x_min, x_max, n_bins) rebuilds."""
    return np.allclose(x, np.linspace(lo, hi, len(x)), rtol=0.0, atol=1e-12)


@dataclass
class MeasurementRecord:
    """Binned quadrature outcomes for a list of phase settings.

    For composite (qubit x mode) runs each setting carries a qubit basis
    label and the counts are resolved on the two qubit outcomes, giving
    counts of shape (n_settings, 2, n_bins) instead of (n_settings, n_bins).
    """

    thetas: np.ndarray
    counts: np.ndarray
    x_centers: np.ndarray
    eta: float
    n_tomo: int
    qubit_basis: tuple | None = None
    seed: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        self.counts = np.asarray(self.counts)
        if np.any(self.counts < 0):
            raise ValueError("negative counts")
        if self.counts.shape[0] != self.thetas.size:
            raise ValueError("one counts row per setting required")
        if self.qubit_basis is not None:
            if len(self.qubit_basis) != self.thetas.size:
                raise ValueError("one basis label per setting required")
            unknown = [b for b in self.qubit_basis if b not in QUBIT_BASES]
            if unknown:
                raise ValueError(f"unknown qubit basis {unknown[0]!r}, not one of {QUBIT_BASES}")
            if self.counts.ndim != 3 or self.counts.shape[1] != 2:
                raise ValueError(
                    "composite counts must be (settings, 2, bins)"
                )
        elif self.counts.ndim != 2:
            raise ValueError("counts must be (settings, bins)")
        if self.counts.shape[-1] != len(self.x_centers):
            raise ValueError(
                f"counts have {self.counts.shape[-1]} bins but x_centers "
                f"has {len(self.x_centers)}"
            )
        x = self.x_centers = np.asarray(self.x_centers, dtype=float)
        if x.size < 2 or not _on_grid(x, x[0], x[-1]):
            raise ValueError(
                "x_centers is not a uniform grid of at least 2 bins: "
                f"{np.array2string(x, threshold=8)}"
            )

    @property
    def n_settings(self) -> int:
        return int(self.thetas.size)

    @property
    def shots(self) -> np.ndarray:
        axes = tuple(range(1, self.counts.ndim))
        return self.counts.sum(axis=axes)

    def distinct_phases(self) -> int:
        return int(np.unique(np.round(self.thetas, 12)).size)


def _setting_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _embedded(state: QuantumState, n_tomo: int) -> np.ndarray:
    """state.rho with its mode, the last factor, zero-padded to n_tomo levels."""
    d = state.dims[-1]
    if d > n_tomo:
        raise ValueError(
            f"mode dimension {d} exceeds reconstruction space {n_tomo}"
        )
    q = state.dim // d
    rho = np.zeros((q, n_tomo, q, n_tomo), dtype=complex)
    rho[:, :d, :, :d] = state.rho.reshape(q, d, q, d)
    return rho.reshape(q * n_tomo, q * n_tomo)


class _RotatedBins:
    """Born probabilities of one real bin set at many phases, and their adjoint.

    Row r of the map measures the bins at phase thetas[r]. With qubit-basis
    labels each setting gives two rows, the qubit outcomes +1 and -1 of its
    basis, and a row measures that outcome's projector P times the bins;
    a single-mode map has the one projector P = 1, so both cases take the
    same path. The forward map takes every projector's mode block
    B = Tr_q[(P x 1) rho] in one matrix product, rotates the row's block in
    real arithmetic, Re(B[m,n] e^{i theta (m-n)}) = cos Re B - sin Im B
    from cos(theta (m-n)) and sin(theta (m-n)) tabulated per fit, and
    contracts it with E_b in one real product. The adjoint is its exact
    transpose: the row weights summed with the same elements, rotated back
    and selected per projector as real products, then one projector product.
    """

    def __init__(self, bins: np.ndarray, thetas, qubit_basis=None):
        n_bins, n, _ = bins.shape
        self.n = n
        self.bins = bins.reshape(n_bins, n * n)
        if qubit_basis is None:
            projectors = np.ones((1, 1, 1))
            block = np.zeros(len(thetas), dtype=int)
        else:
            projectors = np.array([
                (np.eye(2) + sign * _PAULI[basis]) / 2
                for basis in QUBIT_BASES
                for sign in (1.0, -1.0)
            ])
            block = np.array([
                2 * QUBIT_BASES.index(basis) + outcome
                for basis in qubit_basis
                for outcome in (0, 1)
            ])
            thetas = np.repeat(thetas, 2)
        k, q, _ = projectors.shape
        self.q = q
        # B_k = sum_pq P_k[p,q] rho[q,:,p,:]; adjoint out[p,q] = sum_k P_k[p,q] B_k
        self.trace_out = projectors.transpose(0, 2, 1).reshape(k, q * q)
        self.embed = projectors.reshape(k, q * q).T
        levels = np.arange(n)
        angle = np.outer(thetas, (levels[:, None] - levels[None, :]).ravel())
        self.cos = np.cos(angle)
        self.sin = np.sin(angle)
        self.block = block
        self.select = (block[None, :] == np.arange(k)[:, None]).astype(float)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        q, n = self.q, self.n
        pairs = rho.reshape(q, n, q, n).transpose(0, 2, 1, 3).reshape(q * q, n * n)
        blocks = (self.trace_out @ pairs).take(self.block, axis=0)
        rotated = self.cos * blocks.real - self.sin * blocks.imag
        return (rotated @ self.bins.T).ravel()

    def adjoint(self, weights: np.ndarray) -> np.ndarray:
        q, n = self.q, self.n
        rows = weights.reshape(len(self.cos), -1) @ self.bins
        blocks = self.select @ (rows * self.cos) - 1j * (self.select @ (rows * self.sin))
        out = (self.embed @ blocks).reshape(q, q, n, n).transpose(0, 2, 1, 3)
        return out.reshape(q * n, q * n)


def _draw(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """One multinomial draw per setting's row of probs, each on its own stream."""
    counts = np.empty(probs.shape, dtype=np.int64)
    for j, row in enumerate(probs):
        p = np.clip(row.ravel(), 0.0, None)
        counts[j] = _setting_rng(seed, j).multinomial(shots, p / p.sum()).reshape(
            row.shape
        )
    return counts


def sample(
    state: QuantumState,
    thetas,
    shots: int,
    *,
    eta: float = 1.0,
    seed: int = 0,
    n_tomo: int | None = None,
    x_grid: np.ndarray | None = None,
) -> MeasurementRecord:
    """Draw binned quadrature outcomes for each phase setting.

    A qubit-mode state, dims (2, d), is measured in all three qubit bases at
    every phase, each setting resolved on the two qubit outcomes. n_tomo
    (N_TOMO_SINGLE, or N_TOMO_COMPOSITE for a qubit-mode state) need only
    contain the mode. Each setting draws from its own RNG stream of the
    master seed, so the record is reproducible and order-independent.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if len(state.dims) == 1:
        basis, outcomes = None, ()
    elif len(state.dims) == 2 and state.dims[0] == 2:
        basis, outcomes = tuple(b for b in QUBIT_BASES for _ in thetas), (2,)
        thetas = np.tile(thetas, len(QUBIT_BASES))
    else:
        raise ValueError(f"sampling expects dims (d,) or (2, d), got {state.dims}")
    if n_tomo is None:
        n_tomo = N_TOMO_SINGLE if basis is None else N_TOMO_COMPOSITE
    rho = _embedded(state, n_tomo)
    bins = _build_povm_any_dim(eta, n_tomo, x_grid)
    probs = _RotatedBins(bins.elements, thetas, basis).probabilities(rho)
    return MeasurementRecord(
        thetas,
        _draw(probs.reshape(thetas.size, *outcomes, -1), shots, seed),
        bins.x_centers,
        eta,
        n_tomo,
        qubit_basis=basis,
        seed=seed,
    )


def _nearest_state(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest (Frobenius) to the Hermitian matrix h.

    Keeps h's eigenvectors and projects its eigenvalues onto the probability
    simplex (the sort-based projection), so small eigenvalues become exact
    zeros.
    """
    evals, evecs = np.linalg.eigh(h)
    desc = evals[::-1]
    excess = np.cumsum(desc) - 1.0
    k = np.arange(1, desc.size + 1)
    r = np.flatnonzero(desc - excess / k > 0)[-1]
    weights = np.maximum(evals - excess[r] / (r + 1), 0.0)
    rho = (evecs * weights) @ evecs.conj().T
    return (rho + rho.conj().T) / 2


def mle_iterations(
    probabilities, adjoint, freqs, rho0, n_settings, max_iter, tol, floor
):
    """Maximise l(rho) = sum_s f_s log p_s by accelerated projected gradient.

    probabilities(rho) gives every p_s = Tr[Pi_s rho], which the loop clips
    at floor (the momentum point may be indefinite); adjoint(w) gives
    sum_s w_s Pi_s. The gradient of l at y is n_settings R(y), with
    R(y) = (1/n_settings) sum_s (f_s/p_s) Pi_s. Each iteration takes the
    candidate Pi(y + t R(y)), Pi the projection onto density matrices
    (_nearest_state), from the FISTA momentum point
    y = x + (theta - 1)/theta' (x - x_prev), halving t until the step
    passes the sufficient-increase test and growing it 1.5x after each
    accepted step (Shang, Zhang & Ng, PRA 95, 062336 (2017)). A candidate
    below the current iterate's likelihood is rejected and the momentum
    restarts (y = x), so the recorded likelihoods never decrease.

    Stops when one R rho R step from the current iterate gains less than
    tol, computed as sum f log(p'/p) without cancelling two totals; at the
    maximum R is the identity on the iterate's support. The test runs at
    the start and after every _STOP_EVERY-th accepted step, so a fit takes
    at most _STOP_EVERY - 1 more iterations than a test after every step
    would, and a returned fit has passed it at the returned iterate. At the
    iteration cap the gain is computed at the returned iterate if the last
    test was made at an earlier one. The concavity bound
    l* - l <= n_settings (lambda_max(R) - 1) (Glancy, Knill & Girard,
    NJP 14, 095017 (2012)) is a diagnostic, not the stop: it approaches
    zero far more slowly than the step gain. Returns (rho, log-likelihood
    after each iteration with the start first, iterations recorded, the
    R rho R step gain at rho). max_iter must be at least 1.
    """
    if max_iter < 1:
        raise ValueError(f"MLE needs at least 1 iteration, got {max_iter}")
    seen = np.flatnonzero(freqs > 0)
    observed = freqs.take(seen)

    def evaluate(rho):
        p = np.maximum(probabilities(rho), floor)
        return p, float(np.dot(observed, np.log(p.take(seen))))

    def r_of(p):
        return adjoint(freqs / p / n_settings)

    def rrr_step(rho, p):
        r_op = r_of(p)
        step = r_op @ rho @ r_op
        p_step = np.maximum(probabilities(step / np.real(np.trace(step))), floor)
        return r_op, float(np.dot(observed, np.log(p_step.take(seen) / p.take(seen))))

    x = rho0.astype(np.complex128)
    p_x, ll_x = evaluate(x)
    r_x, gain = rrr_step(x, p_x)
    logliks = [ll_x]
    x_prev, theta, t = x, 1.0, 1.0
    untested = 0  # accepted steps since the last stop test
    while gain >= tol and len(logliks) < max_iter:
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        if theta == 1.0:
            if r_x is None:
                r_x = r_of(p_x)
            y, p_y, ll_y, r_y = x, p_x, ll_x, r_x
        else:
            y = x + (theta - 1.0) / theta_next * (x - x_prev)
            p_y, ll_y = evaluate(y)
            r_y = r_of(p_y)
        while True:
            cand = _nearest_state(y + t * r_y)
            p_c, ll_c = evaluate(cand)
            move = cand - y
            bound = ll_y + n_settings * (
                np.vdot(r_y, move).real - np.vdot(move, move).real / (2.0 * t)
            )
            # The clipped likelihood is not smooth where a p_s meets floor,
            # so the test may never pass; below 1e-15 the step is lost in
            # the round-off of y anyway.
            if ll_c >= bound or t < 1e-15:
                break
            t /= 2.0
        if ll_c < ll_x:
            theta = 1.0
        else:
            x_prev, x, p_x, ll_x = x, cand, p_c, ll_c
            theta, t = theta_next, 1.5 * t
            r_x, untested = None, untested + 1
            if untested == _STOP_EVERY:
                r_x, gain = rrr_step(x, p_x)
                untested = 0
        logliks.append(ll_x)
    if untested:
        _, gain = rrr_step(x, p_x)
    return x, np.array(logliks), len(logliks), gain


def mle_reconstruct(
    record: MeasurementRecord,
    iterations: int = DEFAULT_ITERATIONS,
    *,
    correct_efficiency: bool = True,
) -> QuantumState:
    """Iterative maximum-likelihood estimate of the state behind a record.

    A record with qubit-basis labels, which must cover all three bases,
    gives the joint qubit-mode state, measured by the products of the
    qubit-basis projectors with the quadrature bins.

    With correct_efficiency the detector loss recorded with the data is
    folded into the measurement operators (reconstructing the pre-detector
    state); without it the smeared statistics are attributed to ideal
    quadrature measurements, as in the uncorrected-reconstruction variant.
    """
    if record.qubit_basis is not None:
        missing = sorted(set(QUBIT_BASES) - set(record.qubit_basis))
        if missing:
            raise ValueError(f"missing qubit basis records: {missing}")
    if record.distinct_phases() < MIN_PHASES:
        raise ValueError(
            f"need at least {MIN_PHASES} distinct phases for a complete set"
        )
    empty = np.flatnonzero(record.shots == 0)
    if empty.size:
        k = int(empty[0])
        raise ValueError(f"setting {k} (phase {record.thetas[k]:.6g} rad) has no shots")
    eta = record.eta if correct_efficiency else 1.0
    bins = _build_povm_any_dim(eta, record.n_tomo, record.x_centers)
    rotated = _RotatedBins(bins.elements, record.thetas, record.qubit_basis)
    freqs = (
        record.counts.reshape(record.n_settings, -1) / record.shots[:, None]
    ).ravel()
    dims = (record.n_tomo,) if record.qubit_basis is None else (2, record.n_tomo)
    dim = math.prod(dims)
    rho, logliks, n_iter, gain = mle_iterations(
        rotated.probabilities,
        rotated.adjoint,
        freqs,
        np.eye(dim, dtype=complex) / dim,
        record.n_settings,
        int(iterations),
        LIKELIHOOD_TOL,
        PROB_FLOOR,
    )
    if not gain < LIKELIHOOD_TOL:
        warnings.warn(
            f"MLE stopped at the {n_iter}-iteration cap before converging "
            f"(one more R rho R step gains {gain:.3e}, tolerance {LIKELIHOOD_TOL:.0e})",
            RuntimeWarning,
            stacklevel=2,
        )
    if logliks.size > 1:
        gains = np.diff(logliks)
        slack = 1e-9 * np.maximum(1.0, np.abs(logliks[:-1]))
        bad = gains < -slack
        if np.any(bad):
            raise RuntimeError(
                "likelihood decreased at iteration "
                f"{int(np.argmax(bad)) + 1} by {float(-gains[bad].min()):.3e}"
            )
    return QuantumState(rho, dims)


def _genlaguerre(n: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """Generalised Laguerre polynomial L_n^(alpha)(x) for integers n, alpha >= 0.

    The three-term recurrence in the differences d_k = p_k - p_(k-1) of
    p_k = L_k^(alpha) / C(k + alpha, k), the form scipy's eval_genlaguerre
    takes for an integer degree, so the values agree with it bit for bit.
    """
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return -x + alpha + 1
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, n):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = d + p
    return math.comb(n + alpha, n) * p


def wigner(state: QuantumState, grid: np.ndarray | None = None) -> np.ndarray:
    """Wigner function on a square phase-space grid.

    Returns W[i, j] = W(x=grid[i], p=grid[j]) from the displaced-parity
    form W(alpha) = (2/pi) Tr[rho D(alpha) P D(alpha)^dag]; the identity
    D(alpha) P D(alpha)^dag = D(2 alpha) P reduces it to exact closed-form
    displacement matrix elements, so no Fock-space padding is needed.
    """
    if grid is None:
        grid = np.linspace(-3.0, 3.0, 61)
    grid = np.asarray(grid, dtype=float)
    rho = state.rho
    d = rho.shape[0]
    x, p = np.meshgrid(grid, grid, indexing="ij")
    beta = 2.0 * (x + 1j * p)
    r = np.abs(beta) ** 2
    gauss = np.exp(-0.5 * r)
    w = np.zeros_like(x)
    for n in range(d):
        for m in range(d):
            if rho[m, n] == 0:
                continue
            lo, hi = min(n, m), max(n, m)
            k = hi - lo
            amp = math.sqrt(
                math.factorial(lo) / math.factorial(hi)
            ) * _genlaguerre(lo, k, r) * gauss
            if n >= m:
                dmat = amp * beta**k
            else:
                dmat = amp * (-beta.conj()) ** k
            w += np.real(rho[m, n] * (-1.0) ** m * dmat)
    return (2.0 / math.pi) * w


def photon_distribution(state: QuantumState) -> np.ndarray:
    """Photon-number probabilities (Fock-basis diagonal) of a mode state."""
    if len(state.dims) != 1:
        raise ValueError("expected a single-mode state")
    return np.real(np.diag(state.rho)).copy()


def write_record(record: MeasurementRecord, csv_path, json_path) -> None:
    """Serialize a record as (setting, bin_center, count) CSV plus metadata.

    Composite records flatten each (basis, phase) setting's two qubit
    outcomes into consecutive setting ids; the JSON sidecar carries the
    phase, basis label, and qubit outcome of every flattened id, along with
    the grid, efficiency, and reconstruction-space parameters needed to
    rebuild the record exactly.
    """
    composite = record.qubit_basis is not None
    centers = [f"{c:.17g}" for c in record.x_centers.tolist()]
    flat = record.counts.reshape(-1, len(centers)).tolist()
    write_csv(csv_path, ("setting", "bin_center", "count"), (
        (sid, center, str(count))
        for sid, row in zip(map(str, range(len(flat))), flat)
        for center, count in zip(centers, row)
    ))
    meta = {
        "thetas": [float(t) for t in record.thetas],
        "eta": record.eta,
        "n_tomo": record.n_tomo,
        "x_min": float(record.x_centers[0]),
        "x_max": float(record.x_centers[-1]),
        "n_bins": int(record.x_centers.size),
        "composite": composite,
        "seed": record.seed,
    }
    if composite:
        meta["qubit_basis"] = list(record.qubit_basis)
        meta["setting_theta"] = [
            float(t) for t in np.repeat(record.thetas, 2)
        ]
        meta["setting_outcome"] = [0, 1] * record.n_settings
    write_json(json_path, meta)


def read_record(csv_path, json_path) -> MeasurementRecord:
    """Rebuild a MeasurementRecord written by write_record."""
    with open(json_path) as fh:
        meta = json.load(fh)
    n_bins = meta["n_bins"]
    centers = np.linspace(meta["x_min"], meta["x_max"], n_bins)
    rows = {}
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["setting", "bin_center", "count"]:
            raise ValueError(f"unexpected record header: {header}")
        for sid_s, center_s, count_s in reader:
            rows.setdefault(int(sid_s), []).append(
                (float(center_s), int(count_s))
            )
    n_flat = len(rows)
    bad = sorted(set(rows) - set(range(n_flat)))
    if bad:
        raise ValueError(f"setting id {bad[0]} outside 0..{n_flat - 1}")
    counts = np.zeros((n_flat, n_bins), dtype=np.int64)
    for sid, pairs in rows.items():
        if len(pairs) != n_bins:
            raise ValueError(f"setting {sid} has {len(pairs)} bins, not {n_bins}")
        centers_read, vals = zip(*pairs)
        if not _on_grid(centers_read, meta["x_min"], meta["x_max"]):
            raise ValueError(f"setting {sid} bin centers disagree with metadata")
        counts[sid] = vals
    thetas = np.array(meta["thetas"], dtype=float)
    n_ids = thetas.size * (2 if meta["composite"] else 1)
    if n_flat != n_ids:
        raise ValueError(
            f"record has {n_flat} setting ids but its sidecar's "
            f"{thetas.size} thetas need {n_ids}"
        )
    if meta["composite"]:
        counts = counts.reshape(thetas.size, 2, n_bins)
        basis = tuple(meta["qubit_basis"])
    else:
        basis = None
    return MeasurementRecord(
        thetas,
        counts,
        centers,
        float(meta["eta"]),
        int(meta["n_tomo"]),
        qubit_basis=basis,
        seed=meta.get("seed"),
    )


def write_wigner(path, grid: np.ndarray, values: np.ndarray) -> None:
    """Write a Wigner array as (x, p, W) CSV rows ready for plotting.

    Each grid value is formatted once.
    """
    coords = [f"{v:.17g}" for v in np.asarray(grid, dtype=float).tolist()]
    write_csv(path, ("x", "p", "W"), (
        (x, p, f"{w:.17g}")
        for x, row in zip(coords, np.asarray(values, dtype=float).tolist())
        for p, w in zip(coords, row)
    ))


def write_csv(path, header, rows) -> None:
    """Write a CSV table in one pass: every output table goes through here.

    Each row is a sequence of already-formatted strings. No field needs
    quoting (numbers, ids and plain names), so the bytes are those of the
    csv module's default writer: fields joined by commas, lines ended by CRLF.
    """
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, rows), ""]))


def write_json(path, payload) -> None:
    """Write payload as JSON with sorted keys, a 2-space indent and a final
    newline: every output's JSON goes through here."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
