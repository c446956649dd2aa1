"""Physical model of the dispersively coupled qubit-cavity detector.

Holds the system parameters with their derived rates, builds the drift
Hamiltonian and dissipators in the frame rotating at the bare cavity and
qubit frequencies, constructs normalized pulse envelopes, and evaluates the
closed-form one-port reflection coefficient.

Conventions: all frequencies and rates inside this module are angular
(rad/s); times are seconds.  The qubit basis ordering is (|g>, |e>) and
composite operators are qubit (x) cavity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import linalg

TWO_PI = 2.0 * math.pi
# the SystemParams fields that from_hz and the CLI take in Hz, not rad/s
HZ_FIELDS = ("omega_c", "omega_q", "chi", "kappa_ex", "kappa_in", "anharmonicity")

PROJ_G = np.diag([1.0, 0.0]).astype(complex)
PROJ_E = np.diag([0.0, 1.0]).astype(complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
SIGMA_PLUS = SIGMA_MINUS.conj().T


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and error parameters of the detector.

    Frequencies are angular (rad/s); use :meth:`from_hz` to enter them as
    plain Hz the way a characterization table lists them.
    """

    omega_c: float  # bare cavity frequency
    omega_q: float  # qubit frequency
    chi: float  # dispersive shift (half the g/e cavity pull splitting)
    kappa_ex: float  # external cavity coupling
    kappa_in: float  # internal cavity loss
    anharmonicity: float = -TWO_PI * 0.344e9  # stored, not used by the two-level model
    T1: float = math.inf  # qubit relaxation time
    T2_star: float = math.inf  # qubit Ramsey dephasing time
    T2_echo: float = math.inf  # qubit echo dephasing time
    p_th: float = 0.0  # equilibrium qubit excited-state population
    n_th: float = 0.0  # cavity thermal occupation
    eps_rg: float = 0.0  # probability of reading e given g
    eps_re: float = 0.0  # probability of reading g given e
    eta_meas: float = 1.0  # quadrature measurement efficiency

    def __post_init__(self) -> None:
        for name in ("chi", "kappa_ex", "kappa_in", "T2_echo"):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")
        for name in ("T1", "T2_star"):  # the rates divide by them
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        for name in ("p_th", "n_th", "eps_rg", "eps_re", "eta_meas"):
            v = getattr(self, name)
            _require(0.0 <= v <= 1.0, f"{name} must lie in [0, 1]")
        # small absolute slack (s^-1) so rounding at T2* = 2*T1 is accepted
        _require(self.gamma_phi >= -1e-6, "T2* may not exceed 2*T1 (negative pure dephasing)")

    @classmethod
    def from_hz(cls, **kwargs) -> "SystemParams":
        """Build from keyword fields, the HZ_FIELDS given in Hz (as
        frequency/2pi values) and every other field as it is stored."""
        return cls(**{
            k: TWO_PI * v if k in HZ_FIELDS else v for k, v in kwargs.items()
        })

    def replace(self, **kwargs) -> "SystemParams":
        return replace(self, **kwargs)

    # ---- derived rates ----

    @property
    def kappa_tot(self) -> float:
        return self.kappa_ex + self.kappa_in

    @property
    def n_B(self) -> float:
        """Effective thermal occupation of the qubit bath."""
        return self.p_th / (1.0 + 2.0 * self.p_th)

    @property
    def gamma(self) -> float:
        """Bare qubit energy-decay rate: 1/T1 = gamma*(1+2*n_B)."""
        return 1.0 / ((1.0 + 2.0 * self.n_B) * self.T1)

    @property
    def gamma_1(self) -> float:
        """Downward qubit jump rate."""
        return self.gamma * (1.0 + self.n_B)

    @property
    def gamma_2(self) -> float:
        """Upward (thermal) qubit jump rate."""
        return self.gamma * self.n_B

    @property
    def gamma_phi(self) -> float:
        """Pure dephasing rate from the Ramsey decay time."""
        return 1.0 / self.T2_star - 1.0 / (2.0 * self.T1)


# ---------------------------------------------------------------------------
# temporal modes


@dataclass
class TemporalMode:
    """Normalized complex pulse envelope: samples f on a uniform time grid t
    and the exact continuous-time envelope func that they sample.

    The envelope is defined in the frame rotating at the carrier, the bare
    cavity frequency: the pulse is centered between the two dressed
    resonances.  func evaluates it at arbitrary times (amplitude).
    """

    t: np.ndarray
    f: np.ndarray
    func: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.f = np.asarray(self.f, dtype=complex)
        if self.t.ndim != 1 or self.t.shape != self.f.shape:
            raise ValueError("t and f must be matching 1-D arrays")
        if len(self.t) < 8:
            raise ValueError("grid too short")
        steps = np.diff(self.t)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("time grid must be uniform")
        if not np.all(np.isfinite(self.f)):
            raise ValueError("envelope samples must be finite")
        norm = float(np.sum(np.abs(self.f) ** 2) * self.dt)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"envelope norm {norm!r} deviates from 1 beyond 1e-6")
        # make the discrete norm exact
        scale = 1.0 / math.sqrt(norm)
        if scale != 1.0:
            self.f = self.f * scale
            self.func = lambda tt, _b=self.func, _s=scale: _s * _b(tt)

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def amplitude(self, times) -> np.ndarray:
        """Envelope evaluated at arbitrary times."""
        return np.asarray(self.func(np.asarray(times, dtype=float)), dtype=complex)

    def delayed(self, tau: float) -> "TemporalMode":
        """Same envelope arriving ``tau`` later: g(r) = f(r + tau)."""
        return TemporalMode(
            self.t - tau, self.f.copy(), lambda tt, _b=self.func, _tau=tau: _b(tt + _tau)
        )


def gaussian_input_mode(l: float) -> TemporalMode:
    """Gaussian envelope with amplitude FWHM ``l``, centered at t = 0,
    sampled every l/200 over 8 l.

    f(t) = (8 ln2 / (pi l^2))^(1/4) * 2^(-(2t/l)^2), unit-normalized.
    """
    _require(l > 0, "l must be positive")
    span, dt = 8.0 * l, l / 200.0
    peak = (8.0 * math.log(2.0) / (math.pi * l * l)) ** 0.25

    def func(tt, _p=peak, _l=l):
        return _p * np.exp2(-np.square(2.0 * np.asarray(tt, dtype=float) / _l)) + 0.0j

    n_half = int(math.ceil(span / (2.0 * dt)))
    t = (np.arange(2 * n_half + 1) - n_half) * dt
    return TemporalMode(t, func(t), func)


# ---------------------------------------------------------------------------
# Lindblad model


@dataclass
class LindbladModel:
    """Drift Hamiltonian and dissipators on the qubit (x) cavity space."""

    params: SystemParams
    n_max: int
    H: np.ndarray
    collapse: list  # operators already scaled by sqrt(rate)
    a: np.ndarray  # cavity annihilation on the full space
    sigma_ee: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


def build_model(p: SystemParams, n_max: int = 7) -> LindbladModel:
    """Assemble drift Hamiltonian and collapse operators.

    In the frame rotating at (omega_c, omega_q) the drift is
    H = chi * a'a * (sigma_gg - sigma_ee): the cavity resonance sits at
    omega_c + chi with the qubit in |g> and at omega_c - chi in |e>.
    Collapse operators: sqrt(kappa_tot)*a, sqrt(gamma_1)*sigma-,
    sqrt(gamma_2)*sigma+, sqrt(2*gamma_phi)*sigma_ee; the last normalization
    makes the qubit coherence decay at exactly
    max(gamma_phi, 0) + (gamma_1 + gamma_2)/2.
    """
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    dim_c = n_max + 1
    eye_c = np.eye(dim_c, dtype=complex)
    a_c = linalg.destroy(dim_c)
    n_c = a_c.conj().T @ a_c

    a = np.kron(np.eye(2, dtype=complex), a_c)
    sigma_ee = np.kron(PROJ_E, eye_c)
    sigma_ge = np.kron(SIGMA_MINUS, eye_c)
    sigma_eg = np.kron(SIGMA_PLUS, eye_c)

    H = p.chi * np.kron(PROJ_G - PROJ_E, n_c)

    collapse = []
    if p.kappa_tot > 0:
        collapse.append(math.sqrt(p.kappa_tot) * a)
    if p.gamma_1 > 0:
        collapse.append(math.sqrt(p.gamma_1) * sigma_ge)
    if p.gamma_2 > 0:
        collapse.append(math.sqrt(p.gamma_2) * sigma_eg)
    gp = max(p.gamma_phi, 0.0)
    if gp > 0:
        collapse.append(math.sqrt(2.0 * gp) * sigma_ee)

    return LindbladModel(
        params=p,
        n_max=n_max,
        H=H,
        collapse=collapse,
        a=a,
        sigma_ee=sigma_ee,
    )


# ---------------------------------------------------------------------------
# closed-form reflection


def reflection_coefficient(p: SystemParams, qubit_state: str, omega) -> np.ndarray:
    """One-port reflection coefficient at absolute angular frequency omega.

    r(w) = [i(w - w_r) + (kappa_ex - kappa_in)/2] / [-i(w - w_r) + (kappa_ex + kappa_in)/2]
    with the dressed cavity resonance w_r = omega_c + chi (qubit g) or
    omega_c - chi (qubit e).
    """
    if qubit_state not in ("g", "e"):
        raise ValueError("qubit_state must be 'g' or 'e'")
    omega = np.asarray(omega, dtype=float)
    omega_r = p.omega_c + (p.chi if qubit_state == "g" else -p.chi)
    delta = omega - omega_r
    num = 1j * delta + (p.kappa_ex - p.kappa_in) / 2.0
    den = -1j * delta + (p.kappa_ex + p.kappa_in) / 2.0
    return num / den
