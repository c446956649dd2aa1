"""Detection-protocol orchestration.

Produces the headline quantities of the detector: readout-dressed phase-flip
probability, conditional output-mode states, the composite qubit-mode state
with its negativity and fidelities, quantum-efficiency scans, and parameter
sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    MOMENT_ORDER,
    MomentSet,
    PulseSchedule,
    evolve,
    optimize_delay,
    output_mode_moments,
)
from .linalg import (
    QuantumState,
    clip_and_renormalize,
    dag,
    fidelity,
    fock,
    ket_density,
    negativity,
)
from .model import SystemParams, build_model, gaussian_input_mode

PROB_FLOOR = 1e-12
# eigenvalue defects projected out of the inverted states: above CLIP_WARN
# the repair warns, above CLIP_ERR it raises NumericalError
CLIP_WARN = 5e-2
CLIP_ERR = 0.2
MIN_GRID = 4  # the fewest grid points efficiency_scan takes

SWEEP_AXES = (
    "gate_interval",
    "pulse_length",
    "kappa_ex",
    "kappa_in",
    "gamma",
    "gamma_phi",
)


class ConditioningError(RuntimeError):
    """Conditioning was requested on a qubit outcome of negligible probability."""


# ---------------------------------------------------------------------------
# moment inversion


def _ladder_factor(m: int, n: int, k: int) -> float:
    # <k - n + m| adag^m a^n |k>
    return math.sqrt(
        math.factorial(k) * math.factorial(k - n + m)
    ) / math.factorial(k - n)


def field_operator_from_moments(block: np.ndarray) -> np.ndarray:
    """Invert Tr[R adag^m a^n] = block[m, n] on a truncated Fock space.

    Assumes R has support on photon numbers 0..n_ph where n_ph + 1 is the
    block size.  Each matrix diagonal of R couples only to the moments with
    the matching index difference, and within one diagonal the system is
    triangular from the highest order down, so the inversion is exact.
    """
    block = np.asarray(block, dtype=complex)
    dim = block.shape[0]
    if block.shape != (dim, dim):
        raise ValueError("moment block must be square")
    top = dim - 1
    out = np.zeros((dim, dim), dtype=complex)
    for diff in range(-top, top + 1):
        k_max = min(top, top + diff)
        for n in range(k_max, max(diff, 0) - 1, -1):
            m = n - diff
            if m > top:
                continue
            acc = block[m, n]
            for k in range(n + 1, k_max + 1):
                acc -= _ladder_factor(m, n, k) * out[k, k - diff]
            out[n, n - diff] = acc / _ladder_factor(m, n, n)
    return out


def dressed_flip_probability(p_e: float, params: SystemParams) -> float:
    """Excitation probability as reported through an imperfect z readout."""
    return params.eps_rg + p_e * (1.0 - params.eps_rg - params.eps_re)


# ---------------------------------------------------------------------------
# results


@dataclass
class ProtocolResult:
    n_in: float
    n_ph: int
    delay: float
    phase_ref: float
    p_e_raw: float
    p_e: float
    p_g: float
    survival: float
    moments: MomentSet
    rho_g: QuantumState
    rho_e: QuantumState | None
    rho_uncond: QuantumState
    rho_comp: QuantumState
    comp_assembled: np.ndarray
    negativity: float
    fidelity_vacuum: float
    fidelity_single: float
    fidelity_ideal: float


@dataclass
class EfficiencyReport:
    grid: np.ndarray
    p_flip: np.ndarray
    eta: float
    dark_count: float
    curvature: float
    residual_rms: float
    bending: float
    fit_window: float


@dataclass
class SweepPoint:
    value: float
    eta: float
    dark_count: float
    survival: float
    negativity: float


MAX_ENTRY_MARGIN = 400e-9


def default_schedule(
    *,
    n_in: float,
    gate_interval: float,
    pulse_fwhm: float,
    readout_delay: float,
) -> PulseSchedule:
    """Standard schedule with the pulse peak arriving at t = 0.

    Short intervals are centered on the pulse; intervals longer than twice
    MAX_ENTRY_MARGIN keep the first rotation at -MAX_ENTRY_MARGIN and spend
    the extra span after the peak, where the delayed reflected mode
    actually lives.
    """
    if not n_in >= 0:
        raise ValueError(f"n_in must be non-negative, got {n_in}")
    mode = gaussian_input_mode(pulse_fwhm)
    t_i = -min(gate_interval / 2, MAX_ENTRY_MARGIN)
    t_g = t_i + gate_interval
    return PulseSchedule(
        t_i, t_g, t_g + readout_delay, mode, alpha_in=math.sqrt(n_in)
    )


# ---------------------------------------------------------------------------
# protocol


def ideal_composite(n_in: float, n_ph: int = 2) -> QuantumState:
    """Lossless-detector target: qubit flips on odd photon number.

    Pure state sum_n sqrt(p_n) |parity(n)> |n> with Poissonian p_n
    renormalized on the truncated space.
    """
    if n_ph < 1:
        raise ValueError("n_ph must be >= 1")
    dim = n_ph + 1
    probs = np.array(
        [math.exp(-n_in) * n_in**n / math.factorial(n) for n in range(dim)]
    )
    probs /= probs.sum()
    psi = np.zeros(2 * dim, dtype=complex)
    for n in range(dim):
        qubit = n % 2
        psi[qubit * dim + n] = math.sqrt(probs[n])
    return QuantumState(ket_density(psi), (2, dim))


def run_protocol(
    params: SystemParams,
    schedule: PulseSchedule,
    n_ph: int,
) -> ProtocolResult:
    """Run the full detection sequence and assemble every reported state.

    The output-mode moments resolved on the qubit are inverted into
    conditional field states and the joint qubit-mode state; readout errors
    dress the qubit outcome statistics and mix the conditional states
    accordingly (the reported outcome is dominated by the matching true
    outcome, with the complementary state entering at the misread rate).

    Truncating the moment inversion at n_ph photons aliases coherences that
    reach outside the kept subspace (chiefly the one-to-three-photon
    coherence of the heralded branch) onto kept entries, so the
    single-outcome blocks can acquire spurious negative eigenvalues of a
    few percent before repair; CLIP_WARN and CLIP_ERR bound the warning and
    failure thresholds for that repair.
    """
    if not 1 <= n_ph <= MOMENT_ORDER:
        raise ValueError(f"n_ph must be between 1 and {MOMENT_ORDER}")
    n_in = schedule.mean_input_photons
    model = build_model(params)
    delay = optimize_delay(params, schedule.mode)
    ms = output_mode_moments(model, schedule, delay=delay)
    rot = ms.rotated()

    def repaired(rho: np.ndarray) -> np.ndarray:
        return clip_and_renormalize(rho, warn_above=CLIP_WARN, error_above=CLIP_ERR)

    dim = n_ph + 1
    sub = rot.moments[:, :, : dim, : dim]
    blocks = {}
    for p in range(2):
        for q in range(2):
            blocks[(q, p)] = field_operator_from_moments(sub[p, q])
    r_gg = (blocks[(0, 0)] + dag(blocks[(0, 0)])) / 2
    r_ee = (blocks[(1, 1)] + dag(blocks[(1, 1)])) / 2
    r_ge = (blocks[(0, 1)] + dag(blocks[(1, 0)])) / 2

    p_g_raw = float(np.real(np.trace(r_gg)))
    p_e_raw = float(np.real(np.trace(r_ee)))
    rho_uncond = repaired(r_gg + r_ee)

    # conditional states before the readout dressing
    p_raw = (p_g_raw, p_e_raw)
    raw = [repaired(r / p) if p > PROB_FLOOR else 0.0 * r for p, r in zip(p_raw, (r_gg, r_ee))]

    # readout dressing: outcome q is dominated by true q, contaminated by the
    # other outcome at the misread rate
    p_e = dressed_flip_probability(p_e_raw, params)
    p_g = 1.0 - p_e
    misread = (params.eps_rg, params.eps_re)
    dressed = []
    for q, p_q in enumerate((p_g, p_e)):
        o = 1 - q
        mix = p_raw[q] * (1.0 - misread[q]) * raw[q] + p_raw[o] * misread[o] * raw[o]
        dressed.append(QuantumState(repaired(mix / p_q), (dim,)) if p_q > PROB_FLOOR else None)
    rho_g, rho_e = dressed
    if rho_g is None:
        raise ConditioningError(
            f"ground-outcome probability {p_g:.3e} below {PROB_FLOOR:.0e}"
        )

    # composite state; the final gate maps the phase-flipped qubit onto -|e>,
    # so the e block carries a conventional sign flip relative to the
    # positive-coherence target
    comp_assembled = np.block([[r_gg, -r_ge], [-dag(r_ge), r_ee]])
    rho_comp = QuantumState(repaired(comp_assembled), (2, dim))

    vac = QuantumState(ket_density(fock(dim, 0)), (dim,))
    one = QuantumState(ket_density(fock(dim, 1)), (dim,))

    return ProtocolResult(
        n_in=n_in,
        n_ph=n_ph,
        delay=delay,
        phase_ref=ms.phase_ref,
        p_e_raw=p_e_raw,
        p_e=p_e,
        p_g=p_g,
        survival=ms.mean_photon / n_in if n_in > 0 else math.nan,
        moments=ms,
        rho_g=rho_g,
        rho_e=rho_e,
        rho_uncond=QuantumState(rho_uncond, (dim,)),
        rho_comp=rho_comp,
        comp_assembled=comp_assembled,
        negativity=negativity(rho_comp),
        fidelity_vacuum=fidelity(rho_g, vac),
        fidelity_single=fidelity(rho_e, one) if rho_e is not None else math.nan,
        fidelity_ideal=fidelity(rho_comp, ideal_composite(n_in, n_ph)),
    )


# ---------------------------------------------------------------------------
# efficiency


def efficiency_scan(
    params: SystemParams,
    schedule_template: PulseSchedule,
    grid,
    *,
    fit_window: float,
    n_max: int = 7,
) -> EfficiencyReport:
    """Phase-flip probability versus mean input photon number.

    The dark count is pinned by a direct zero-input run; the low-power part
    of the curve (mean photon number <= ``fit_window``) is fitted with
    ``dark + eta*x + curvature*x**2`` by least squares.  ``bending`` reports
    the relative shortfall of the highest grid point below the linear
    extrapolation (saturation strength); it is NaN when the grid does not
    extend meaningfully past the fit window.

    The grid points differ only in the input amplitude, so they are
    propagated as the columns of one RK4 run (``evolve``), the dark
    run first; every member starts at t_i from its prepared state.
    """
    grid = np.asarray(sorted(float(x) for x in grid))
    if not np.all(np.isfinite(grid)):
        raise ValueError("mean photon numbers must be finite")
    if grid.size < MIN_GRID:
        raise ValueError(f"need at least {MIN_GRID} grid points for a quadratic fit")
    if grid[0] < 0:
        raise ValueError("mean photon numbers must be >= 0")
    model = build_model(params, n_max=n_max)

    def flip(traj) -> float:
        p_e = float(np.real(traj.expect(model.sigma_ee)))
        return dressed_flip_probability(p_e, params)

    driven = [math.sqrt(x) for x in grid if x > 0]
    dark, *members = map(flip, evolve(model, schedule_template, [0.0] + driven))
    # the grid is sorted, so its zero points come first
    p_flip = np.array([dark] * (grid.size - len(driven)) + members)

    sel = grid <= fit_window
    if np.count_nonzero(sel) < 3:
        raise ValueError("fewer than 3 grid points inside the fit window")
    xs = grid[sel]
    ys = p_flip[sel] - dark
    design = np.column_stack([xs, xs**2])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    eta, curvature = float(coef[0]), float(coef[1])
    residual_rms = float(np.sqrt(np.mean((design @ coef - ys) ** 2)))

    x_top = grid[-1]
    if x_top > 2 * fit_window and eta > 0:
        linear = eta * x_top
        bending = float(1.0 - (p_flip[-1] - dark) / linear)
    else:
        bending = math.nan

    return EfficiencyReport(
        grid=grid,
        p_flip=p_flip,
        eta=eta,
        dark_count=dark,
        curvature=curvature,
        residual_rms=residual_rms,
        bending=bending,
        fit_window=fit_window,
    )


# ---------------------------------------------------------------------------
# sweeps


def _swept_configuration(
    params: SystemParams,
    window: dict,
    axis: str,
    value: float,
) -> tuple[SystemParams, PulseSchedule]:
    if axis == "gate_interval":
        return params, default_schedule(**{**window, "gate_interval": value})
    template = default_schedule(**window)
    if axis == "pulse_length":
        edge = 0.8 * value
        sched = PulseSchedule(
            -edge, edge, edge + window["readout_delay"], gaussian_input_mode(value),
            alpha_in=template.alpha_in,
        )
        return params, sched
    if axis == "kappa_ex":
        return params.replace(kappa_ex=value), template
    if axis == "kappa_in":
        return params.replace(kappa_in=value), template
    if axis == "gamma":
        scale = 1.0 + 2.0 * params.n_B
        rate_sum = value * scale
        t1 = math.inf if value == 0 else 1.0 / rate_sum
        denom_star = params.gamma_phi + rate_sum / 2
        t2s = math.inf if denom_star == 0 else 1.0 / denom_star
        return params.replace(T1=t1, T2_star=t2s), template
    if axis == "gamma_phi":
        half_relax = 0.0 if math.isinf(params.T1) else (
            (1.0 + 2.0 * params.n_B) * params.gamma / 2
        )
        denom = value + half_relax
        t2 = math.inf if denom == 0 else 1.0 / denom
        return params.replace(T2_star=t2), template
    raise ValueError(f"unknown sweep axis {axis!r} (choose from {SWEEP_AXES})")


def sweep(
    params: SystemParams,
    axis: str,
    values,
    window: dict,
    grid,
    *,
    fit_window: float,
    n_ph: int,
) -> list[SweepPoint]:
    """Efficiency scan plus protocol figures at each value of one parameter.

    Every value starts from ``default_schedule(**window)``, the efficiency
    operating point; the ``gate_interval`` axis sets the window's interval,
    and ``pulse_length`` a pulse of that FWHM with the rotations at
    -+0.8 of it.  A point reports only eta and the dark count of its scan,
    so only the grid points inside ``fit_window`` are propagated, topped up
    to the MIN_GRID points efficiency_scan takes.  Times are
    in seconds and rates in angular units (rad/s); ``gamma`` and
    ``gamma_phi`` set the qubit relaxation and pure-dephasing rates while
    holding the complementary decoherence channel fixed.
    """
    values = [float(v) for v in values]
    if not values or not all(math.isfinite(v) for v in values):
        raise ValueError("sweep values must be a non-empty finite list")
    grid = sorted(float(x) for x in grid)  # the fit-window points come first
    fit_grid = grid[: max(MIN_GRID, sum(x <= fit_window for x in grid))]
    points = []
    for value in values:
        p_i, sched_i = _swept_configuration(params, window, axis, value)
        report = efficiency_scan(p_i, sched_i, fit_grid, fit_window=fit_window)
        result = run_protocol(p_i, sched_i, n_ph)
        points.append(
            SweepPoint(
                value=value,
                eta=report.eta,
                dark_count=report.dark_count,
                survival=result.survival,
                negativity=result.negativity,
            )
        )
    return points
