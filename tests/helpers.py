"""Shared oracles for the test suite.

Everything here stays independent of the implementation paths it checks:
dense matrices come from explicit Kronecker products or occupation-basis bit
manipulation, never from the vectorized engine code.
"""

from __future__ import annotations

import numpy as np

from gcim.fermion import COEFF_CUTOFF, FermionOperator, jordan_wigner
from gcim.pauli import PauliString, PauliSum
from gcim.pool import PoolOperator

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_from_label(label: str) -> np.ndarray:
    """Kronecker-product oracle; qubit 0 least significant (rightmost kron)."""
    mat = np.array([[1.0 + 0j]])
    for ch in label:
        mat = np.kron(PAULI_MATS[ch], mat)
    return mat


def dense_from_sum(h: PauliSum) -> np.ndarray:
    dim = 1 << h.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for p, c in h.terms.items():
        mat += c * dense_from_label(p.label)
    return mat


def fermion_term_dense(n_so: int, coeff: complex, cre, ann) -> np.ndarray:
    """Occupation-basis matrix of coeff * a+_{cre...} a_{ann...}.

    Operators act right to left; the sign of a ladder operator on orbital j
    is (-1)^(number of occupied orbitals below j), which is the intrinsic
    antisymmetry of the |n_0 n_1 ...> ordering convention.
    """
    dim = 1 << n_so
    mat = np.zeros((dim, dim), dtype=complex)
    ops = [(j, False) for j in reversed(tuple(ann))] + \
          [(j, True) for j in reversed(tuple(cre))]
    for ket in range(dim):
        bits, sign, alive = ket, 1, True
        for j, create in ops:
            occupied = (bits >> j) & 1
            if create == bool(occupied):
                alive = False
                break
            sign *= (-1) ** int(bin(bits & ((1 << j) - 1)).count("1"))
            bits ^= 1 << j
        if alive:
            mat[bits, ket] += coeff * sign
    return mat


def fermion_dense(op: FermionOperator, n_so: int) -> np.ndarray:
    dim = 1 << n_so
    mat = op.constant * np.eye(dim, dtype=complex)
    for (cre, ann), c in op.terms.items():
        mat += fermion_term_dense(n_so, c, cre, ann)
    return mat


def _ladder_sum(p: int, n_qubits: int, creation: bool) -> PauliSum:
    """JW image of a_p (or a+_p) as a two-term PauliSum: (X_p +/- iY_p)/2 Z_{k<p}."""
    zmask = (1 << p) - 1
    return PauliSum(n_qubits, {
        PauliString(1 << p, zmask, n_qubits): 0.5,
        PauliString(1 << p, zmask | (1 << p), n_qubits): -0.5j if creation else 0.5j})


def jordan_wigner_reference(op: FermionOperator, n_qubits: int) -> PauliSum:
    """Product-form JW: ladder PauliSums multiplied with PauliSum.__mul__, summed.

    The mask kernel in gcim.fermion must reproduce this term for term, in
    insertion order and bit for bit; its phases are checked separately
    against dense Kronecker products.
    """
    total = PauliSum(n_qubits)
    if abs(op.constant) >= COEFF_CUTOFF:
        total = PauliSum.identity(n_qubits, op.constant)
    for (cre, ann), coeff in op.terms.items():
        if abs(coeff) < COEFF_CUTOFF:
            continue
        prod = PauliSum.identity(n_qubits, coeff)
        for p in cre:
            prod = prod * _ladder_sum(p, n_qubits, creation=True)
        for p in ann:
            prod = prod * _ladder_sum(p, n_qubits, creation=False)
        total = total + prod
    return total


def exact_terms(h: PauliSum) -> list[tuple[int, int, str]]:
    """Terms in insertion order with bit-exact coefficients (signed zeros kept)."""
    return [(p.x, p.z, repr(c)) for p, c in h.terms.items()]


def random_hermitian_sum(rng: np.random.Generator, n: int, n_terms: int,
                         scale: float = 1.0) -> PauliSum:
    """Random Hermitian PauliSum (real coefficients on random strings)."""
    terms = {}
    for _ in range(n_terms):
        label = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        terms[PauliString.from_label(label)] = \
            terms.get(PauliString.from_label(label), 0.0) + rng.normal(0, scale)
    return PauliSum(n, terms)


def random_state(rng: np.random.Generator, n: int):
    from gcim.statevector import StateVector

    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector.from_array(amps / np.linalg.norm(amps))


def random_molecular_hamiltonian(rng: np.random.Generator, n_spatial: int,
                                 two_body_scale: float = 0.5) -> PauliSum:
    """Random particle-number/Sz-conserving Hamiltonian in molecular form.

    Pool-generated states live in a fixed (N, Sz) sector; random Pauli sums
    rarely couple sector states, so sector-conserving instances are the
    meaningful randomization for subspace tests.
    """
    from gcim.fcidump import SpatialIntegrals, assemble_hamiltonian

    one = rng.normal(size=(n_spatial, n_spatial))
    one = 0.5 * (one + one.T)
    two = rng.normal(size=(n_spatial,) * 4) * two_body_scale
    two = two + two.transpose(1, 0, 2, 3)
    two = two + two.transpose(0, 1, 3, 2)
    two = two + two.transpose(2, 3, 0, 1)
    ints = SpatialIntegrals(n_orb=n_spatial, n_elec=2, ms2=0,
                            one_body=one, two_body=two)
    return jordan_wigner(assemble_hamiltonian(ints), 2 * n_spatial)


def raw_single_pool_op(p_so: int, q_so: int, n_qubits: int) -> PoolOperator:
    """Bare skew single a+_p a_q - a+_q a_p over spin orbitals (not spin-adapted)."""
    op = FermionOperator()
    op.add_term(1.0, (p_so,), (q_so,))
    skew = op.minus_hc().simplify()
    return PoolOperator(kind="single", spatial=(p_so, q_so), fermionic=skew,
                        qubit=jordan_wigner(skew, n_qubits),
                        label=f"raw({p_so},{q_so})")


def number_operator(n_so: int) -> FermionOperator:
    op = FermionOperator()
    for j in range(n_so):
        op.add_term(1.0, (j,), (j,))
    return op


def sz_operator(n_so: int) -> FermionOperator:
    op = FermionOperator()
    for j in range(n_so):
        op.add_term(0.5 if j % 2 == 0 else -0.5, (j,), (j,))
    return op


def unitary_from_generator(a_dense: np.ndarray):
    """theta -> exp(theta * A) via eigendecomposition of the Hermitian iA."""
    herm = 1j * a_dense
    w, v = np.linalg.eigh(herm)

    def u(theta: float) -> np.ndarray:
        return (v * np.exp(-1j * theta * w)) @ v.conj().T

    return u


def rotation_applier(a_dense: np.ndarray):
    """(theta, psi) -> exp(theta * A) @ psi with two matvecs per call."""
    w, v = np.linalg.eigh(1j * a_dense)
    vh = v.conj().T

    def apply(theta: float, psi: np.ndarray) -> np.ndarray:
        return v @ (np.exp(-1j * theta * w) * (vh @ psi))

    return apply


def grid_expectations(a_dense: np.ndarray, h_dense: np.ndarray,
                      psi0: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """<psi(t)|H|psi(t)> for psi(t) = exp(t A) psi0 over a whole theta grid."""
    w, v = np.linalg.eigh(1j * a_dense)
    coeffs = v.conj().T @ psi0
    states = v @ (np.exp(-1j * np.outer(w, thetas)) * coeffs[:, None])
    return np.einsum("it,it->t", states.conj(), h_dense @ states).real


def refined_grid_minimum(energies: np.ndarray) -> float:
    """Grid minimum with one parabolic refinement (periodic grid).

    A bare 1e4-point grid leaves ~1e-7 quadratic discretization error at the
    minimum; fitting the vertex through the three neighboring samples removes
    it without any knowledge of the curve beyond the grid data.
    """
    k = int(np.argmin(energies))
    e0, e1, e2 = (energies[(k - 1) % len(energies)], energies[k],
                  energies[(k + 1) % len(energies)])
    curv = e0 + e2 - 2.0 * e1
    if curv <= 0:
        return float(e1)
    return float(e1 - (e2 - e0) ** 2 / (8.0 * curv))
