"""Reference computations for the benchmark's output checks.

Nothing here calls qndsim.  Each function recomputes, from the closed-form
physics or from first principles, a quantity that the program also
computes, so that every check compares two independent routes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_genlaguerre, eval_hermite

# ---------------------------------------------------------------------------
# detector


def dark_count(T1, T2_star, p_th, eps_rg, eps_re, gate_interval, readout_delay):
    """Readout-dressed flip probability of the Ramsey sequence with no photon.

    The qubit starts in |g>.  After the first rotation its coherence decays
    at the total Ramsey rate for one gate interval, the second rotation maps
    the remaining coherence onto the population, and the population then
    relaxes toward its thermal value for the readout delay.
    """
    n_b = p_th / (1.0 + 2.0 * p_th)
    relax = 1.0 / T1  # = gamma (1 + 2 n_B)
    gamma2 = 1.0 / T2_star  # pure dephasing plus half the relaxation
    p_e = (1.0 - math.exp(-gamma2 * gate_interval)) / 2.0
    p_ss = n_b / (1.0 + 2.0 * n_b)
    p_e = p_ss + (p_e - p_ss) * math.exp(-relax * readout_delay)
    return eps_rg + p_e * (1.0 - eps_rg - eps_re)


def ideal_composite(n_in: float, n_ph: int = 2) -> np.ndarray:
    """Lossless detector state sum_n sqrt(p_n) |n mod 2> |n>, Poisson p_n."""
    dim = n_ph + 1
    p = np.array([n_in**n / math.factorial(n) for n in range(dim)])
    psi = np.zeros(2 * dim)
    for n in range(dim):
        psi[(n % 2) * dim + n] = math.sqrt(p[n] / p.sum())
    return np.outer(psi, psi).astype(complex)


def negativity(rho: np.ndarray, dims: tuple) -> float:
    """Sum of the negative eigenvalues' moduli of the partial transpose."""
    da, db = dims
    pt = rho.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, -1)
    evals = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    return float(-evals[evals < 0].sum())


def density_problems(rho: np.ndarray, name: str, tol: float) -> list[str]:
    """Hermiticity, unit trace and positivity, each to within tol."""
    out = []
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > tol:
        out.append(f"{name}: not Hermitian (defect {herm:.2e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol:
        out.append(f"{name}: trace {tr:.12g} is not 1")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
    if low < -tol:
        out.append(f"{name}: negative eigenvalue {low:.2e}")
    return out


def fock_wigner(n: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner function of |n>, with alpha = x + i p (vacuum: 2/pi e^{-2|alpha|^2})."""
    r2 = x**2 + p**2
    return (2.0 / math.pi) * (-1.0) ** n * eval_genlaguerre(n, 0, 4.0 * r2) * np.exp(-2.0 * r2)


# ---------------------------------------------------------------------------
# homodyne tomography


def coherent(dim: int, alpha: float) -> np.ndarray:
    """Coherent-state density matrix truncated to dim levels and renormalised."""
    amp = np.array([alpha**n / math.sqrt(math.factorial(n)) for n in range(dim)])
    amp /= np.linalg.norm(amp)
    return np.outer(amp, amp).astype(complex)


def loss_kraus(dim: int, eta: float) -> list[np.ndarray]:
    """Kraus maps of a beam splitter of transmittance eta on dim levels."""
    ops = []
    for k in range(dim):
        a = np.zeros((dim, dim))
        for n in range(k, dim):
            a[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1 - eta) ** k)
        ops.append(a)
    return ops


def attenuate_mode(rho: np.ndarray, dims: tuple, eta: float) -> np.ndarray:
    """Apply the loss channel to the last subsystem of rho."""
    rest, dim = int(np.prod(dims[:-1])), dims[-1]
    out = np.zeros_like(rho)
    for a in loss_kraus(dim, eta):
        k = np.kron(np.eye(rest), a)
        out += k @ rho @ k.T
    return out


def quadrature_povm(theta: float, eta: float, dim: int, x: np.ndarray) -> np.ndarray:
    """Binned quadrature POVM (bins, dim, dim) at phase theta, efficiency eta.

    Ideal elements psi_m(x) psi_n(x) e^{i(n-m)theta} dx, pre-composed with
    the adjoint loss channel and symmetrically renormalised to resolve the
    identity on the truncated space.
    """
    width = float(x[1] - x[0])
    psi = np.array([
        eval_hermite(n, x) * np.exp(-x**2 / 2)
        / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        for n in range(dim)
    ])
    n = np.arange(dim)
    phase = np.exp(1j * theta * (n[None, :] - n[:, None]))
    elems = np.einsum("mb,nb->bmn", psi, psi) * phase * width
    if eta != 1.0:
        elems = sum(a.T @ elems @ a for a in loss_kraus(dim, eta))
    evals, evecs = np.linalg.eigh(elems.sum(axis=0))
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    return inv_sqrt @ elems @ inv_sqrt


def likelihood_terms(rows: np.ndarray, counts: np.ndarray, rho: np.ndarray):
    """Per-setting frequencies, model probabilities and log-likelihood.

    The log-likelihood is sum over rows of f log p with f the frequency
    within its setting, the normalisation the program's fit maximises.
    """
    counts = counts.reshape(counts.shape[0], -1)
    freqs = (counts / counts.sum(axis=1, keepdims=True)).ravel()
    p = np.real(np.einsum("kij,ji->k", rows, rho))
    seen = freqs > 0
    return freqs, p, float(freqs[seen] @ np.log(np.maximum(p[seen], 1e-300)))


def rrr_step_gain(rows: np.ndarray, counts: np.ndarray, rho: np.ndarray) -> float:
    """Log-likelihood gained by one more R rho R step from rho.

    R = (1/settings) sum_k (f_k / p_k) Pi_k.  At a maximum of the likelihood
    R is the identity on the support of rho, so rho is a fixed point and the
    step gains nothing; a fit cut short still gains.
    """
    freqs, p, ll = likelihood_terms(rows, counts, rho)
    w = np.where(freqs > 0, freqs / np.maximum(p, 1e-300), 0.0) / counts.shape[0]
    r = np.tensordot(w, rows, axes=1)
    nxt = r @ rho @ r
    nxt = (nxt + nxt.conj().T) / 2
    return likelihood_terms(rows, counts, nxt / np.trace(nxt).real)[2] - ll
