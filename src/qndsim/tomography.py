"""Quadrature measurement emulation and maximum-likelihood reconstruction.

Measurement side of the simulator: phase-swept quadrature POVMs in the Fock
basis (with detector inefficiency folded in as a loss channel), synthetic
binned sampling, single-mode and qubit-mode iterative maximum-likelihood
reconstruction, Wigner functions, and photon-number distributions.

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
from scipy.special import eval_genlaguerre, gammaln

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
COMPLETENESS_TOL = 1e-6
QUBIT_BASES = ("X", "Y", "Z")

_PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def default_grid(n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """Uniform quadrature bin centers spanning +-GRID_HALF_WIDTH."""
    return np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, n_bins)


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

    theta: float
    x_centers: np.ndarray
    width: float
    eta: float
    elements: np.ndarray  # (n_bins, d, d)

    @property
    def n_tomo(self) -> int:
        return self.elements.shape[1]

    def completeness_defect(self) -> float:
        s = self.elements.sum(axis=0)
        return float(np.max(np.abs(s - np.eye(self.n_tomo))))

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        p = np.real(np.einsum("bij,ji->b", self.elements, rho))
        p = np.clip(p, 0.0, None)
        return p / p.sum()


def _build_povm_any_dim(
    theta: float,
    eta: float,
    n_tomo: int,
    x_grid: np.ndarray | None,
) -> QuadraturePOVM:
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
    phase = np.exp(
        1j * theta * (np.arange(n_tomo)[None, :] - np.arange(n_tomo)[:, None])
    )
    elements = (
        np.einsum("mb,nb->bmn", psi, psi) * phase[None, :, :] * width
    ).astype(complex)
    if eta != 1.0:
        smeared = np.zeros_like(elements)
        for a_k in loss_kraus(n_tomo, eta):
            smeared += np.einsum("nm,bnk,kl->bml", a_k.conj(), elements, a_k)
        elements = smeared
    s = elements.sum(axis=0)
    defect = float(np.max(np.abs(s - np.eye(n_tomo))))
    if defect > RAW_COMPLETENESS_TOL:
        raise ValueError(
            f"quadrature grid too narrow: completeness defect {defect:.3e}"
        )
    evals, evecs = np.linalg.eigh(s)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    elements = np.einsum("ij,bjk,kl->bil", inv_sqrt, elements, inv_sqrt)
    return QuadraturePOVM(float(theta), x, width, float(eta), elements)


def build_povm(
    theta: float,
    eta: float = 1.0,
    n_tomo: int = N_TOMO_SINGLE,
    x_grid: np.ndarray | None = None,
) -> QuadraturePOVM:
    """Binned quadrature POVM at one phase, smeared by detector loss.

    Ideal projector elements psi_m(x) psi_n(x) e^{i(n-m)theta} dx are
    pre-composed with the adjoint of a transmittance-eta loss channel, then
    symmetrically renormalized so the elements resolve the identity exactly.
    A completeness defect above RAW_COMPLETENESS_TOL before renormalization
    means the grid does not cover the state space and is an error.
    """
    if n_tomo < 4:
        raise ValueError("need at least 4 Fock levels")
    return _build_povm_any_dim(theta, eta, n_tomo, x_grid)


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
    width: float
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
            if self.counts.ndim != 3 or self.counts.shape[1] != 2:
                raise ValueError(
                    "composite counts must be (settings, 2, bins)"
                )
        elif self.counts.ndim != 2:
            raise ValueError("counts must be (settings, bins)")

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
    d = state.dim
    if d > n_tomo:
        raise ValueError(
            f"state dimension {d} exceeds reconstruction space {n_tomo}"
        )
    rho = np.zeros((n_tomo, n_tomo), dtype=complex)
    rho[:d, :d] = state.rho
    return rho


def _bin_set(eta, n_tomo, x_grid) -> QuadraturePOVM:
    """The phase-0 bins E_b, whose elements are real.

    Every phase-theta element is D E_b D^dag with D = diag(e^{-i n theta}):
    the loss Kraus maps shift Fock levels and the symmetric renormalization
    is built from the elements' sum, so both commute with D up to phases
    that cancel.
    """
    povm = _build_povm_any_dim(0.0, eta, n_tomo, x_grid)
    povm.elements = np.ascontiguousarray(povm.elements.real)
    return povm


class _RotatedBins:
    """Born probabilities of one real bin set at many phases, and their adjoint.

    Row r of the map measures the bins at phase thetas[r]. With qubit-basis
    labels each setting gives two rows, the qubit outcomes +1 and -1 of its
    basis, and a row measures that outcome's projector P times the bins;
    a single-mode map has the one projector P = 1. The forward map takes
    each projector's mode block B = Tr_q[(P x 1) rho], rotates it to
    B[m,n] e^{i theta (m-n)} and contracts its real part with E_b in one
    real product; the adjoint sums the same elements with the row weights.
    """

    def __init__(self, bins: np.ndarray, thetas, qubit_basis=None):
        n_bins, n, _ = bins.shape
        self.n = n
        self.bins = bins.reshape(n_bins, n * n)
        if qubit_basis is None:
            self.projectors = np.ones((1, 1, 1), dtype=complex)
            block = np.zeros(len(thetas), dtype=int)
        else:
            self.projectors = np.array([
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
        levels = np.arange(n)
        shift = (levels[:, None] - levels[None, :]).ravel()
        self.phase = np.exp(1j * np.outer(thetas, shift))
        self.block = block
        self.select = (
            block[None, :] == np.arange(len(self.projectors))[:, None]
        ).astype(complex)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        q = self.projectors.shape[1]
        blocks = np.einsum(
            "kpq,qmpn->kmn", self.projectors, rho.reshape(q, self.n, q, self.n)
        ).reshape(len(self.projectors), -1)
        rotated = np.real(blocks[self.block] * self.phase)
        return (rotated @ self.bins.T).ravel()

    def adjoint(self, weights: np.ndarray) -> np.ndarray:
        rows = weights.reshape(len(self.phase), -1) @ self.bins
        blocks = self.select @ (rows * self.phase.conj())
        out = np.einsum(
            "kpq,kmn->pmqn", self.projectors, blocks.reshape(-1, self.n, self.n)
        )
        d = self.projectors.shape[1] * self.n
        return out.reshape(d, d)


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
    n_tomo: int = N_TOMO_SINGLE,
    x_grid: np.ndarray | None = None,
) -> MeasurementRecord:
    """Draw binned quadrature outcomes for each phase setting.

    Settings are sampled on independent RNG streams spawned from the master
    seed, so the record is reproducible and order-independent. The sampling
    space n_tomo need only contain the state (smaller reconstruction spaces
    than the single-mode default are legitimate, e.g. the composite runs'
    three-level mode sector).
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    rho = _embedded(state, n_tomo)
    bins = _bin_set(eta, n_tomo, x_grid)
    probs = _RotatedBins(bins.elements, thetas).probabilities(rho)
    return MeasurementRecord(
        thetas,
        _draw(probs.reshape(thetas.size, -1), shots, seed),
        bins.x_centers,
        bins.width,
        eta,
        n_tomo,
        seed=seed,
    )


def sample_composite(
    state: QuantumState,
    thetas,
    shots: int,
    *,
    eta: float = 1.0,
    seed: int = 0,
    n_tomo: int = N_TOMO_COMPOSITE,
    x_grid: np.ndarray | None = None,
) -> MeasurementRecord:
    """Joint qubit-basis x quadrature-phase outcomes for a qubit-mode state.

    Every phase is measured in all three qubit bases; each (basis, phase)
    setting stores the counts resolved on the two qubit outcomes.
    """
    if len(state.dims) != 2 or state.dims[0] != 2:
        raise ValueError("composite sampling expects dims (2, mode)")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    mode_dim = state.dims[1]
    if mode_dim > n_tomo:
        raise ValueError(
            f"mode dimension {mode_dim} exceeds reconstruction space {n_tomo}"
        )
    rho = np.zeros((2 * n_tomo, 2 * n_tomo), dtype=complex)
    r = state.rho.reshape(2, mode_dim, 2, mode_dim)
    big = rho.reshape(2, n_tomo, 2, n_tomo)
    big[:, :mode_dim, :, :mode_dim] = r
    basis_labels = tuple(b for b in QUBIT_BASES for _ in thetas)
    all_thetas = np.tile(thetas, len(QUBIT_BASES))
    bins = _bin_set(eta, n_tomo, x_grid)
    joint = _RotatedBins(bins.elements, all_thetas, basis_labels)
    probs = joint.probabilities(rho).reshape(all_thetas.size, 2, -1)
    return MeasurementRecord(
        all_thetas,
        _draw(probs, shots, seed),
        bins.x_centers,
        bins.width,
        eta,
        n_tomo,
        qubit_basis=basis_labels,
        seed=seed,
    )


def mle_iterations(
    probabilities, adjoint, freqs, rho0, n_settings, max_iter, tol, floor
):
    """Iterate rho -> R rho R with R = (1/n_settings) sum_s (f_s/p_s) Pi_s.

    probabilities(rho) gives every p_s = Tr[Pi_s rho]; adjoint(w) gives
    sum_s w_s Pi_s. Returns (rho, log-likelihood per recorded iteration,
    iterations done). Stops early when the log-likelihood gain drops below
    tol.
    """
    rho = rho0.astype(np.complex128).copy()
    logliks = np.empty(max_iter, dtype=np.float64)
    mask = freqs > 0
    observed = freqs[mask]
    prev = -np.inf
    it = 0
    for it in range(max_iter):
        pc = np.maximum(probabilities(rho), floor)
        ll = float(np.dot(observed, np.log(pc[mask])))
        logliks[it] = ll
        if it > 0 and ll - prev < tol:
            it += 1
            break
        prev = ll
        r_op = adjoint(freqs / pc / n_settings)
        rho = r_op @ rho @ r_op
        rho = (rho + rho.conj().T) / 2
        rho = rho / np.real(np.trace(rho))
    else:
        it += 1
    return rho, logliks[:it], it


def _run_mle(rotated: _RotatedBins, freqs, n_settings, dim, iterations):
    rho0 = np.eye(dim, dtype=complex) / dim
    rho, logliks, n_iter = mle_iterations(
        rotated.probabilities,
        rotated.adjoint,
        np.ascontiguousarray(freqs, dtype=np.float64),
        rho0,
        n_settings,
        int(iterations),
        LIKELIHOOD_TOL,
        PROB_FLOOR,
    )
    last_gain = float(logliks[-1] - logliks[-2]) if logliks.size > 1 else math.inf
    if not last_gain < LIKELIHOOD_TOL:
        warnings.warn(
            f"MLE stopped at the {n_iter}-iteration cap before converging "
            f"(last log-likelihood gain {last_gain:.3e}, tolerance {LIKELIHOOD_TOL:.0e})",
            RuntimeWarning,
            stacklevel=3,
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
    return rho


def mle_reconstruct(
    record: MeasurementRecord,
    iterations: int = DEFAULT_ITERATIONS,
    *,
    correct_efficiency: bool = True,
) -> QuantumState:
    """Iterative maximum-likelihood estimate of the single-mode state.

    With correct_efficiency the detector loss recorded with the data is
    folded into the measurement operators (reconstructing the pre-detector
    state); without it the smeared statistics are attributed to ideal
    quadrature measurements, as in the uncorrected-reconstruction variant.
    """
    if record.qubit_basis is not None:
        raise ValueError("composite record passed to the single-mode routine")
    if record.distinct_phases() < MIN_PHASES:
        raise ValueError(
            f"need at least {MIN_PHASES} distinct phases for a complete set"
        )
    eta = record.eta if correct_efficiency else 1.0
    bins = _bin_set(eta, record.n_tomo, record.x_centers)
    rotated = _RotatedBins(bins.elements, record.thetas)
    freqs = (record.counts / record.shots[:, None]).ravel()
    rho = _run_mle(rotated, freqs, record.n_settings, record.n_tomo, iterations)
    return QuantumState(rho, (record.n_tomo,))


def composite_mle(
    record: MeasurementRecord,
    iterations: int = DEFAULT_ITERATIONS,
    *,
    correct_efficiency: bool = True,
) -> QuantumState:
    """Joint qubit-mode maximum-likelihood reconstruction.

    Requires records in all three qubit bases, each resolved on both qubit
    outcomes across the phase sweep; the measurement operators are the
    products of qubit-basis projectors with the quadrature bins.
    """
    if record.qubit_basis is None:
        raise ValueError("record carries no qubit-basis labels")
    present = set(record.qubit_basis)
    if present != set(QUBIT_BASES):
        missing = sorted(set(QUBIT_BASES) - present)
        raise ValueError(f"missing qubit basis records: {missing}")
    if record.distinct_phases() < MIN_PHASES:
        raise ValueError(
            f"need at least {MIN_PHASES} distinct phases for a complete set"
        )
    eta = record.eta if correct_efficiency else 1.0
    n = record.n_tomo
    bins = _bin_set(eta, n, record.x_centers)
    joint = _RotatedBins(bins.elements, record.thetas, record.qubit_basis)
    freqs = (
        record.counts / record.shots[:, None, None]
    ).ravel()
    rho = _run_mle(joint, freqs, record.n_settings, 2 * n, iterations)
    return QuantumState(rho, (2, n))


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
            amp = math.exp(
                0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
            ) * eval_genlaguerre(lo, k, r) * gauss
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
    flat = record.counts.reshape(-1, record.counts.shape[-1])
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting", "bin_center", "count"])
        for sid, row in enumerate(flat):
            for center, count in zip(record.x_centers, row):
                writer.writerow([sid, f"{center:.17g}", int(count)])
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
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    counts = np.zeros((n_flat, n_bins), dtype=np.int64)
    for sid, pairs in rows.items():
        if len(pairs) != n_bins:
            raise ValueError(f"setting {sid} has {len(pairs)} bins, not {n_bins}")
        centers_read, vals = zip(*pairs)
        if not np.allclose(centers_read, centers, atol=1e-12):
            raise ValueError(f"setting {sid} bin centers disagree with metadata")
        counts[sid] = vals
    thetas = np.array(meta["thetas"], dtype=float)
    if meta["composite"]:
        counts = counts.reshape(thetas.size, 2, n_bins)
        basis = tuple(meta["qubit_basis"])
    else:
        basis = None
    width = float(centers[1] - centers[0])
    return MeasurementRecord(
        thetas,
        counts,
        centers,
        width,
        float(meta["eta"]),
        int(meta["n_tomo"]),
        qubit_basis=basis,
        seed=meta.get("seed"),
    )


def write_wigner(path, grid: np.ndarray, values: np.ndarray) -> None:
    """Write a Wigner array as (x, p, W) CSV rows ready for plotting."""
    grid = np.asarray(grid, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "p", "W"])
        for i, x in enumerate(grid):
            for j, p in enumerate(grid):
                writer.writerow([f"{x:.17g}", f"{p:.17g}", f"{values[i, j]:.17g}"])
