"""Sector FCI reference built from spatial integrals with Slater-Condon rules.

The determinant-space Hamiltonian of one (n_alpha, n_beta) sector is
assembled directly from the integrals and diagonalized densely.  Nothing here
uses the program: no Pauli algebra, no Jordan-Wigner map, no statevector
engine.  Spin orbital 2p is alpha and 2p+1 is beta on spatial orbital p; a
determinant is a bit string over spin orbitals with creation operators in
ascending index order.
"""

from __future__ import annotations

import itertools

import numpy as np

from inputs import Integrals


def _strings(n_orb: int, n_elec: int, spin: int) -> list[int]:
    return [sum(1 << (2 * p + spin) for p in occ)
            for occ in itertools.combinations(range(n_orb), n_elec)]


def _occupied(det: int) -> list[int]:
    return [i for i in range(det.bit_length()) if det >> i & 1]


def _ladder(det: int, so: int, create: bool) -> tuple[int, int] | None:
    """(sign, det') of a+_so or a_so acting on det; None if it vanishes."""
    if bool(det >> so & 1) == create:
        return None
    sign = -1 if bin(det & ((1 << so) - 1)).count("1") % 2 else 1
    return sign, det ^ (1 << so)


def _excite(det: int, annihilate: list[int], create: list[int]) -> int:
    """Sign of a+_{c_1} ... a+_{c_k} a_{a_k} ... a_{a_1} |det>, applied right to left."""
    sign = 1
    for so in annihilate:
        s, det = _ladder(det, so, create=False)
        sign *= s
    for so in reversed(create):
        s, det = _ladder(det, so, create=True)
        sign *= s
    return sign


class SpinOrbitalIntegrals:
    """h_pq and antisymmetrized <pq||rs> over spin orbitals, looked up lazily."""

    def __init__(self, ints: Integrals):
        self.h = ints.one_body
        self.v = ints.two_body
        self.core = ints.core

    def one(self, p: int, q: int) -> float:
        return self.h[p // 2, q // 2] if p % 2 == q % 2 else 0.0

    def coulomb(self, p: int, q: int, r: int, s: int) -> float:
        """Physicist <pq|rs> = (pr|qs) with spin conserved along p-r and q-s."""
        if p % 2 != r % 2 or q % 2 != s % 2:
            return 0.0
        return self.v[p // 2, r // 2, q // 2, s // 2]

    def anti(self, p: int, q: int, r: int, s: int) -> float:
        return self.coulomb(p, q, r, s) - self.coulomb(p, q, s, r)


def matrix_element(so: SpinOrbitalIntegrals, bra: int, ket: int) -> float:
    """<bra|H|ket> by the Slater-Condon rules."""
    diff = bra ^ ket
    n_diff = bin(diff).count("1")
    if n_diff == 0:
        occ = _occupied(ket)
        energy = so.core + sum(so.one(i, i) for i in occ)
        energy += 0.5 * sum(so.anti(i, j, i, j) for i in occ for j in occ)
        return energy
    if n_diff == 2:
        (i,) = _occupied(ket & diff)
        (a,) = _occupied(bra & diff)
        sign = _excite(ket, [i], [a])
        rest = [j for j in _occupied(ket) if j != i]
        return sign * (so.one(a, i) + sum(so.anti(a, j, i, j) for j in rest))
    if n_diff == 4:
        i, j = _occupied(ket & diff)
        a, b = _occupied(bra & diff)
        return _excite(ket, [i, j], [a, b]) * so.anti(a, b, i, j)
    return 0.0


def sector_determinants(n_orb: int, n_alpha: int, n_beta: int) -> list[int]:
    return [a | b for a in _strings(n_orb, n_alpha, 0)
            for b in _strings(n_orb, n_beta, 1)]


def sector_hamiltonian(ints: Integrals) -> np.ndarray:
    dets = sector_determinants(ints.n_orb, ints.n_alpha, ints.n_beta)
    so = SpinOrbitalIntegrals(ints)
    mat = np.zeros((len(dets), len(dets)))
    for x, bra in enumerate(dets):
        for y in range(x, len(dets)):
            mat[x, y] = mat[y, x] = matrix_element(so, bra, dets[y])
    return mat


def sector_fci_energy(ints: Integrals) -> float:
    """Lowest eigenvalue of the (n_alpha, n_beta) sector Hamiltonian."""
    return float(np.linalg.eigvalsh(sector_hamiltonian(ints))[0])
