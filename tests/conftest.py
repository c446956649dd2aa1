"""Shared fixtures: the flagship detection run is computed once per session,
and the seams through which tests vary what production never does.

Each seam fixture returns a context manager that replaces one name the
routes read at call time, and restores it on exit, so a test can turn a
knob for one run and keep the production path for the next.
"""

import os
import warnings
from contextlib import contextmanager

# One BLAS thread, set before numpy loads: at two threads the MLE's small
# products slow down about 30x whenever another process holds a core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

import numpy as np  # noqa: E402

from qndsim import dynamics, tomography
from qndsim.protocol import efficiency_scan, run_protocol

import oracles
from oracles import default_params


@contextmanager
def _replaced(module, name, value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, value)
        yield


@pytest.fixture(scope="session")
def gates_off():
    """gates_off(): the Ramsey rotations at t_i and t_g act as the identity."""
    return lambda: _replaced(dynamics, "_rotate_qubit", lambda x, gate, d: x)


@pytest.fixture(scope="session")
def timestep():
    """timestep(dt): every route steps at dt in place of default_timestep."""
    return lambda dt: _replaced(dynamics, "default_timestep", lambda params, mode: dt)


@pytest.fixture(scope="session")
def initial_state():
    """initial_state(state): every member starts at t_i from the
    QuantumState state in place of its prepared state."""

    def use(state):
        column = state.rho.astype(complex).reshape(-1, 1)
        return _replaced(
            dynamics, "_prepared_states",
            lambda model, schedule, alphas, dt, db=1: np.repeat(column, len(alphas), axis=1),
        )

    return use


@pytest.fixture(scope="session")
def pulse_drive():
    """pulse_drive(drive): the cavity drive at times is drive(times) for
    every member in place of the pulse's."""
    return lambda drive: _replaced(
        dynamics, "_pulse_drive",
        lambda params, mode, alpha_in, times: np.asarray(drive(times), dtype=complex),
    )


@pytest.fixture(scope="session")
def tomo_levels():
    """tomo_levels(n): sample measures a mode state in n Fock levels in
    place of N_TOMO_SINGLE."""
    return lambda n: _replaced(tomography, "N_TOMO_SINGLE", n)


@pytest.fixture(scope="session")
def quadrature_grid():
    """quadrature_grid(x): sample bins its records on the grid x in place
    of default_grid()."""
    return lambda x: _replaced(tomography, "default_grid", lambda: np.asarray(x, dtype=float))


@pytest.fixture(scope="session")
def table_run_n2():
    """Full protocol at the reference operating point, two-photon truncation."""
    return run_protocol(default_params(), oracles.schedule(), 2)


@pytest.fixture(scope="session")
def table_run_n1():
    """Same run with the single-photon three-element construction."""
    return run_protocol(default_params(), oracles.schedule(), 1)


@pytest.fixture(scope="session")
def table_efficiency():
    """Efficiency scan at the reference operating point, grid up to 0.6."""
    return efficiency_scan(
        default_params(),
        oracles.schedule(gate_interval=800e-9),
        oracles.GRID,
        fit_window=oracles.FIT_WINDOW,
    )


@pytest.fixture(scope="session")
def coherent_loss_record():
    """Quadrature data for a weak coherent state through a lossy detector."""
    import math

    from qndsim import tomography
    from qndsim.linalg import QuantumState, coherent, ket_density

    state = QuantumState(ket_density(coherent(5, math.sqrt(0.137))), (5,))
    return tomography.sample(
        state, tomography.phase_settings(100), 10_000, eta=0.43, seed=12
    )


@pytest.fixture(scope="session")
def composite_tomo():
    """Composite records for the ideal entangled target plus the corrected fit."""
    from qndsim import tomography
    from qndsim.protocol import ideal_composite

    state = ideal_composite(0.165)
    record = tomography.sample(
        state, tomography.phase_settings(100), 10_000, eta=0.43, seed=21
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a fit cut at the iteration cap fails
        return state, record, tomography.mle_reconstruct(record)


@pytest.fixture(scope="session")
def composite_uncorrected(composite_tomo):
    """Composite reconstruction without detector-efficiency correction."""
    from qndsim import tomography

    _, record, _ = composite_tomo
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return tomography.mle_reconstruct(record, correct_efficiency=False)
