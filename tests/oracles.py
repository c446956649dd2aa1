"""Closed forms the tests compare the simulator against, and test-state helpers.

No subcommand runs these, so they live beside the tests instead of in
``qndsim``.  Import as ``import oracles``: ``tests/`` has no ``__init__.py``,
so pytest puts this directory on the path.
"""

import numpy as np

from qndsim.cli import default_config
from qndsim.linalg import QuantumState, fock, ket_density
from qndsim.model import TWO_PI, SystemParams, TemporalMode, reflection_coefficient


def default_params() -> SystemParams:
    """The reference set of the characterization table, from the CLI's
    defaults (in Hz there)."""
    return SystemParams.from_hz(**default_config()["params"])


def gamma_phi_tot(p: SystemParams) -> float:
    """Total qubit coherence decay rate."""
    return max(p.gamma_phi, 0.0) + (p.gamma_1 + p.gamma_2) / 2.0


def drive_induced_dephasing(p: SystemParams, ndot_d: float, delta_d: float) -> float:
    """Qubit dephasing rate induced by a weak continuous cavity drive.

    ndot_d is the incident photon flux (photons/s), delta_d the drive
    detuning from the bare cavity (rad/s).
    """
    if ndot_d < 0:
        raise ValueError("ndot_d must be >= 0")
    kt = p.kappa_tot
    n_plus = p.kappa_ex * ndot_d / (kt**2 / 4.0 + (delta_d + p.chi) ** 2)
    n_minus = p.kappa_ex * ndot_d / (kt**2 / 4.0 + (delta_d - p.chi) ** 2)
    return kt * p.chi**2 / (kt**2 / 4.0 + p.chi**2 + delta_d**2) * (n_plus + n_minus)


def reflected_photon_number(p: SystemParams, mode: TemporalMode, n_in: float) -> float:
    """Mean photon number surviving reflection off the qubit-g cavity.

    n_out = integral dw |r_g(w)|^2 n_in(w) with n_in(w) the input spectral
    density n_in * |F(w)|^2 of the pulse envelope (carrier at omega_c).
    """
    f = mode.f
    dt = mode.dt
    # pad x2 for a denser frequency sampling of the smooth integrand
    n_pad = len(f)
    f_pad = np.concatenate([f, np.zeros(n_pad, dtype=complex)])
    n_fft = len(f_pad)
    # spectrum F(w) = integral f(t) e^{+iwt} dt  (positive-frequency convention)
    spectrum = np.fft.ifft(f_pad) * n_fft * dt
    omega = TWO_PI * np.fft.fftfreq(n_fft, d=dt)
    weight = np.abs(reflection_coefficient(p, "g", p.omega_c + omega)) ** 2
    # Parseval: sum |F_k|^2 / (N dt) = sum |f_j|^2 dt = 1
    return float(n_in * np.sum(weight * np.abs(spectrum) ** 2) / (n_fft * dt))


def thermal(dim: int, nbar: float) -> np.ndarray:
    """Thermal density matrix with mean occupation nbar, renormalized."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if nbar == 0:
        return ket_density(fock(dim, 0))
    r = nbar / (1.0 + nbar)
    p = r ** np.arange(dim)
    p /= p.sum()
    return np.diag(p).astype(complex)


def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced state over the subsystems listed in ``keep`` (original order)."""
    keep = sorted(set(int(k) for k in keep))
    n = len(state.dims)
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    tensor_rho = state.rho.reshape(state.dims + state.dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tensor_rho, row + col, out)
    kept_dims = tuple(state.dims[i] for i in keep)
    d = int(np.prod(kept_dims))
    return QuantumState(reduced.reshape(d, d), kept_dims)
