"""Shared fixtures: the flagship detection run is computed once per session."""

import os
import warnings

# One BLAS thread, set before numpy loads: at two threads the MLE's small
# products slow down about 30x whenever another process holds a core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from qndsim.protocol import (
    DEFAULT_FIT_GRID,
    efficiency_scan,
    run_protocol,
)

from oracles import default_params


@pytest.fixture(scope="session")
def table_run_n2():
    """Full protocol at the reference operating point, two-photon truncation."""
    return run_protocol(default_params())


@pytest.fixture(scope="session")
def table_run_n1():
    """Same run with the single-photon three-element construction."""
    return run_protocol(default_params(), n_ph=1)


@pytest.fixture(scope="session")
def table_efficiency():
    """Efficiency scan at the reference operating point, grid up to 0.6."""
    return efficiency_scan(
        default_params(), None, DEFAULT_FIT_GRID + (0.3, 0.45, 0.6)
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
