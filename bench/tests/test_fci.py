"""The sector FCI reference against closed forms.

    python3 -m pytest bench/tests
"""

import math

import numpy as np
import pytest

from fci import sector_determinants, sector_fci_energy, sector_hamiltonian
from inputs import hubbard_chain, random_molecular, read_fcidump, write_fcidump


@pytest.mark.parametrize("t,u", [(1.0, 0.0), (1.0, 2.0), (1.0, 8.0), (0.5, 3.0)])
def test_two_site_hubbard_closed_form(t, u):
    expected = u / 2 - math.sqrt(u * u / 4 + 4 * t * t)
    assert sector_fci_energy(hubbard_chain(2, t, u, 1, 1)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_sites,n_alpha,n_beta", [(4, 2, 2), (5, 2, 2), (5, 3, 1), (6, 3, 3)])
def test_free_chain_fills_lowest_levels(n_sites, n_alpha, n_beta):
    t = 1.3
    levels = sorted(-2 * t * math.cos(k * math.pi / (n_sites + 1))
                    for k in range(1, n_sites + 1))
    expected = sum(levels[:n_alpha]) + sum(levels[:n_beta])
    ints = hubbard_chain(n_sites, t, 0.0, n_alpha, n_beta)
    assert sector_fci_energy(ints) == pytest.approx(expected, abs=1e-12)


def test_sector_dimension_and_symmetry():
    ints = random_molecular(4, 2, 1, seed=5)
    mat = sector_hamiltonian(ints)
    assert len(sector_determinants(4, 2, 1)) == 6 * 4 == mat.shape[0]
    assert np.array_equal(mat, mat.T)


def test_fcidump_round_trip(tmp_path):
    ints = random_molecular(3, 2, 1, seed=2)
    write_fcidump(ints, tmp_path / "x.fcidump")
    back = read_fcidump(tmp_path / "x.fcidump")
    assert (back.n_orb, back.n_alpha, back.n_beta) == (3, 2, 1)
    assert np.array_equal(back.one_body, ints.one_body)
    assert np.allclose(back.two_body, ints.two_body, rtol=0, atol=1e-15)


def _annihilators(n_modes: int) -> list[np.ndarray]:
    """Dense a_j on the 2**n_modes Fock space; bit j of a basis index is mode j."""
    dim = 1 << n_modes
    ops = []
    for j in range(n_modes):
        a = np.zeros((dim, dim))
        for state in range(dim):
            if state >> j & 1:
                a[state ^ (1 << j), state] = (-1) ** bin(state & ((1 << j) - 1)).count("1")
        ops.append(a)
    return ops


def _dense_sector_energy(ints) -> float:
    """Ground state of the second-quantized H in the (n_alpha, n_beta) sector.

    H = core + sum h_pq E_pq + 1/2 sum (pq|rs) (E_pq E_rs - delta_qr E_ps), with
    E_pq = sum_sigma a+_p,sigma a_q,sigma and mode 2p + sigma for (p, sigma).
    """
    n = ints.n_orb
    a = _annihilators(2 * n)
    e = np.array([[sum(a[2 * p + s].T @ a[2 * q + s] for s in (0, 1))
                   for q in range(n)] for p in range(n)])
    dim = e.shape[-1]
    h = ints.core * np.eye(dim) + np.einsum("pq,pqxy->xy", ints.one_body, e)
    for p in range(n):
        for q in range(n):
            h += 0.5 * e[p, q] @ np.einsum("rs,rsxy->xy", ints.two_body[p, q], e)
            h -= 0.5 * np.einsum("s,sxy->xy", ints.two_body[p, q, q], e[p])
    counts = [(bin(x & int("01" * n, 2)).count("1"), bin(x & int("10" * n, 2)).count("1"))
              for x in range(dim)]
    keep = [x for x, c in enumerate(counts) if c == (ints.n_alpha, ints.n_beta)]
    return float(np.linalg.eigvalsh(h[np.ix_(keep, keep)])[0])


@pytest.mark.parametrize("n_orb,n_alpha,n_beta,seed", [(3, 2, 1, 1), (4, 2, 2, 3), (4, 3, 1, 7)])
def test_random_integrals_match_dense_second_quantization(n_orb, n_alpha, n_beta, seed):
    # Random integrals have exchange and double-excitation elements, which the
    # Hubbard closed forms above leave at zero.
    ints = random_molecular(n_orb, n_alpha, n_beta, seed)
    ints.core = 0.37
    assert sector_fci_energy(ints) == pytest.approx(_dense_sector_energy(ints), abs=1e-10)
