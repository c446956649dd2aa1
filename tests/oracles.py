"""Closed forms the tests compare the simulator against, and test-state helpers.

No subcommand runs these, so they live beside the tests instead of in
``qndsim``.  Import as ``import oracles``: ``tests/`` has no ``__init__.py``,
so pytest puts this directory on the path.
"""

import math

import numpy as np

from qndsim.cli import _window, default_config
from qndsim.linalg import QuantumState, fock, ket_density
from qndsim.model import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    TWO_PI,
    SystemParams,
    TemporalMode,
    reflection_coefficient,
)
from qndsim.protocol import default_schedule

# the CLI's photon grid and fit window
GRID = tuple(default_config()["schedule"]["alpha_sq_grid"])
FIT_WINDOW = default_config()["efficiency"]["fit_window"]


def default_params() -> SystemParams:
    """The reference set of the characterization table, from the CLI's
    defaults (in Hz there)."""
    return SystemParams.from_hz(**default_config()["params"])


def ideal_params(kappa_ex_over_2chi: float = 1.0) -> SystemParams:
    """Lossless detector: the reference set with no internal loss, a perfect
    qubit and readout, and kappa_ex = ratio * 2 chi."""
    p = default_params()
    return p.replace(
        kappa_ex=kappa_ex_over_2chi * 2.0 * p.chi, kappa_in=0.0,
        T1=math.inf, T2_star=math.inf, T2_echo=math.inf,
        p_th=0.0, n_th=0.0, eps_rg=0.0, eps_re=0.0, eta_meas=1.0,
    )


def window(**overrides) -> dict:
    """The keywords of default_schedule at the CLI's schedule defaults (the
    protocol's 1100 ns window), with overrides."""
    return {**_window(default_config()), **overrides}


def schedule(**overrides):
    """default_schedule(**window(**overrides))."""
    return default_schedule(**window(**overrides))


def dims(n_max: int) -> tuple:
    """The (qubit, cavity) dims of a LindbladModel's space."""
    return (2, n_max + 1)


def sigma_ge(n_max: int) -> np.ndarray:
    """|g><e| (x) identity on a LindbladModel's space."""
    return np.kron(SIGMA_MINUS, np.eye(n_max + 1))


def sigma_eg(n_max: int) -> np.ndarray:
    """|e><g| (x) identity on a LindbladModel's space."""
    return np.kron(SIGMA_PLUS, np.eye(n_max + 1))


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
