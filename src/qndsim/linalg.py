"""Dense linear algebra for small multipartite quantum systems.

Matrices are plain complex numpy arrays; a :class:`QuantumState` pairs a
density matrix with the ordered list of subsystem dimensions it lives on.
All Hilbert-space dimensions in this package are tiny (<= ~100), so dense
eigendecompositions are used throughout.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
EIGENVALUE_FLOOR = -1e-9


class NumericalError(RuntimeError):
    """A computed state broke down numerically beyond what repair allows."""


def dag(a: np.ndarray) -> np.ndarray:
    return np.conjugate(a.T)


def destroy(dim: int) -> np.ndarray:
    """Bosonic annihilation operator on a truncated Fock space."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def fock(dim: int, n: int) -> np.ndarray:
    """Number-state ket |n> as a 1-D array."""
    if not 0 <= n < dim:
        raise ValueError(f"fock level {n} outside dimension {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[n] = 1.0
    return ket


def ket_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a (not necessarily normalized) ket."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("zero ket")
    psi = psi / norm
    return np.outer(psi, psi.conj())


def coherent(dim: int, alpha: complex) -> np.ndarray:
    """Truncated coherent-state ket, renormalized on the truncated space."""
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    amp = np.exp(-abs(alpha) ** 2 / 2) * np.power(complex(alpha), n) / np.exp(log_fact / 2)
    return amp / np.linalg.norm(amp)


class QuantumState:
    """Density matrix over an ordered tensor product of subsystems.

    Validates hermiticity, unit trace, and positivity on construction.
    Eigenvalues in [EIGENVALUE_FLOOR, 0) are clipped to zero by
    clip_and_renormalize (warning below -1e-14); anything more negative
    raises NumericalError.
    """

    __slots__ = ("rho", "dims")

    def __init__(self, rho: np.ndarray, dims) -> None:
        rho = np.asarray(rho, dtype=complex)
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError("subsystem dimensions must be >= 1")
        d = int(np.prod(dims))
        if rho.shape != (d, d):
            raise ValueError(f"rho shape {rho.shape} does not match dims {dims}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("non-finite entries in rho")
        herm_defect = np.max(np.abs(rho - rho.conj().T))
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(f"rho not Hermitian (defect {herm_defect:.3e})")
        rho = (rho + rho.conj().T) / 2
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond tolerance")
        rho = rho / tr
        # eigh, not eigvalsh: the two LAPACK paths can disagree on the sign of
        # a round-off eigenvalue, and the repair below redoes this same eigh
        if np.linalg.eigh(rho)[0][0] < 0:
            # a defect up to 1e-14 is bare round-off and is clipped silently
            rho = clip_and_renormalize(rho, warn_above=1e-14, error_above=-EIGENVALUE_FLOOR)
        self.rho = rho
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"QuantumState(dims={self.dims})"


def clip_and_renormalize(
    rho: np.ndarray,
    *,
    warn_above: float = 1e-9,
    error_above: float = 5e-3,
) -> np.ndarray:
    """Project a nearly physical Hermitian matrix onto the PSD unit-trace set.

    Clips negative eigenvalues to zero and renormalizes the trace.  Used for
    matrices carrying a known small truncation bias (e.g. states rebuilt from
    a finite set of operator moments), whose negativity defect can exceed the
    strict QuantumState repair floor.  A defect above ``warn_above`` warns;
    above ``error_above`` raises NumericalError.
    """
    rho = np.asarray(rho, dtype=complex)
    rho = (rho + rho.conj().T) / 2
    evals, evecs = np.linalg.eigh(rho)
    defect = max(0.0, -float(evals[0]))
    if defect > error_above:
        raise NumericalError(f"eigenvalue defect {defect:.3e} exceeds {error_above:.1e}")
    if defect > warn_above:
        warnings.warn(
            f"projecting out eigenvalue defect {defect:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    clipped = np.clip(evals, 0.0, None)
    out = (evecs * clipped) @ evecs.conj().T
    out = (out + out.conj().T) / 2
    tr = float(np.real(np.trace(out)))
    if tr <= 0:
        raise NumericalError("non-positive trace after clipping")
    return out / tr


def partial_transpose(state: QuantumState, subsystem: int) -> np.ndarray:
    """Transpose on one subsystem; returns a plain matrix (may be non-PSD)."""
    n = len(state.dims)
    if not 0 <= subsystem < n:
        raise ValueError(f"subsystem {subsystem} out of range for {n} subsystems")
    tensor_rho = state.rho.reshape(state.dims + state.dims)
    axes = list(range(2 * n))
    axes[subsystem], axes[subsystem + n] = axes[subsystem + n], axes[subsystem]
    d = state.dim
    return tensor_rho.transpose(axes).reshape(d, d)


def negativity(state: QuantumState) -> float:
    """Entanglement negativity (||rho^PT||_1 - 1)/2 with subsystem 1
    transposed; for two subsystems either cut has the same spectrum."""
    pt = partial_transpose(state, 1)
    evals = np.linalg.eigvalsh(pt)
    return float(np.sum(np.abs(evals[evals < 0])))


def fidelity(state: QuantumState, target: QuantumState) -> float:
    """Uhlmann fidelity (squared convention: equals <psi|rho|psi> for pure targets)."""
    if state.dims != target.dims:
        raise ValueError(f"dimension mismatch: {state.dims} vs {target.dims}")
    rho, sigma = state.rho, target.rho
    evals, evecs = np.linalg.eigh(rho)
    sqrt_rho = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    m = sqrt_rho @ sigma @ sqrt_rho
    m_evals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    if m_evals[-1] > 0:  # drop pure round-off modes: sqrt amplifies them
        m_evals[m_evals < 1e-13 * m_evals[-1]] = 0.0
    f = float(np.sum(np.sqrt(m_evals)) ** 2)
    return min(max(f, 0.0), 1.0)
