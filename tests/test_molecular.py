"""Integration tests on the shipped molecular integral file (linear H4)."""

import numpy as np
import pytest

from gcim import (
    ADAPT_VQE_GCIM,
    AdaptConfig,
    excitation_energies,
    exact_spectrum,
    run_algorithm,
)
from gcim.statevector import apply_paulisum

from helpers import jw_to_matrix


@pytest.fixture(scope="module")
def h4_trace(h4):
    h, pool, ref = h4
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=10))
    trace.attach_exact(exact_spectrum(h, k=1))
    return trace


def _sector_eigenvalues(h):
    dense = jw_to_matrix(h)
    sector = [i for i in range(1 << h.n_qubits)
              if bin(i).count("1") == 4
              and bin(i & 0b01010101).count("1") == 2]
    return np.linalg.eigvalsh(dense[np.ix_(sector, sector)])


def test_h4_ground_state_exact(h4_trace):
    assert abs(h4_trace.energy_error) < 1e-8
    assert h4_trace.overlap_deficit_value < 1e-6
    eps = h4_trace.epsilon0_series()
    assert all(b <= a + 1e-10 for a, b in zip(eps, eps[1:]))


def test_h4_reference_energy_flows_through_pipeline(h4):
    # <HF|H|HF> through parse -> assemble -> JW -> statevector equals the
    # mean-field energy stored implicitly in the canonical-orbital integrals:
    # it must sit above the exact ground energy by the correlation energy
    h, pool, ref = h4
    e_hf = ref.inner(apply_paulisum(h, ref)).real
    e0 = exact_spectrum(h, k=1).eigenvalues[0]
    assert e_hf > e0
    assert 0.01 < e_hf - e0 < 0.5  # a sane correlation energy in hartree


def test_h4_excitation_gap_matches_sector_oracle(h4, h4_trace):
    h, _, _ = h4
    sector_evals = _sector_eigenvalues(h)
    gaps_ev = [(e - sector_evals[0]) * 27.211386245988 for e in sector_evals[1:]]
    first_gcim_gap = excitation_energies(h4_trace.result)[0]
    assert min(abs(first_gcim_gap - g) for g in gaps_ev) < 1e-3


def test_h4_vqe_gcim_bound_every_iteration(h4):
    h, pool, ref = h4
    trace = run_algorithm(h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE_GCIM))
    assert trace.converged
    for rec in trace.records:
        assert rec.epsilon0 <= rec.vqe_energy + 1e-10
    assert abs(trace.final_energy - exact_spectrum(h, k=1).eigenvalues[0]) < 1e-8
