"""Shared references for the test suite.

Besides random inputs and dense Kronecker, occupation-basis and
eigendecomposition oracles, this module holds the Pauli and fermion
operator algebra and the dense PauliSum matrix that the package itself no
longer needs: string and sum products, sums, adjoints, commutators, skew
closures and hermiticity predicates, jw_to_matrix and the Gram-Schmidt
orthogonalization of a basis.  They keep the arithmetic they had as
methods of PauliSum and FermionOperator, and none of them calls the engine
paths it checks: products multiply strings one pair at a time, dense
matrices come from bit manipulation, never from the vectorized kernels.
"""

from __future__ import annotations

import numpy as np

from gcim.fermion import COEFF_CUTOFF, FermionOperator, jordan_wigner
from gcim.pauli import I_POWERS, PauliFormatError, PauliString, PauliSum, ResourceLimitError
from gcim.pool import PoolOperator
from gcim.statevector import StateVector
from gcim.subspace import BasisRecipe, SubspaceBasis

# ---------------------------------------------------------------------------
# Pauli algebra


def mask_mul(ax: int, az: int, bx: int, bz: int) -> tuple[complex, int, int]:
    """Product of the strings (ax, az) * (bx, bz) = phase * (x, z) on bare masks."""
    x, z = ax ^ bx, az ^ bz
    # i^(ya+yb-yc) from Y bookkeeping, (-1)^(za.xb) from commuting Z past X
    k = ((ax & az).bit_count() + (bx & bz).bit_count() - (x & z).bit_count()
         + 2 * (az & bx).bit_count())
    return I_POWERS[k % 4], x, z


def pauli_mul(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b = phase * c with phase in {1, i, -1, -i}."""
    if a.n != b.n:
        raise ValueError(f"qubit-count mismatch: {a.n} vs {b.n}")
    phase, x, z = mask_mul(a.x, a.z, b.x, b.z)
    return phase, PauliString(x, z, a.n)


def identity_string(n: int) -> PauliString:
    return PauliString(0, 0, n)


def identity_sum(n: int, coeff: complex = 1.0) -> PauliSum:
    return PauliSum(n, {identity_string(n): coeff})


def from_label_dict(d: dict[str, complex]) -> PauliSum:
    if not d:
        return PauliSum(0)
    labels = list(d)
    n = len(labels[0])
    if any(len(s) != n for s in labels):
        raise PauliFormatError("Pauli labels of unequal length")
    return PauliSum(n, {PauliString.from_label(s): c for s, c in d.items()})


def sum_add(a: PauliSum, b: PauliSum) -> PauliSum:
    """a + b: b's coefficients added into a's dict in b's order."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register size mismatch")
    out = dict(a.terms)
    for p, c in b.terms.items():
        out[p] = out.get(p, 0j) + c
    return PauliSum(a.n_qubits, out)


def sum_sub(a: PauliSum, b: PauliSum) -> PauliSum:
    return sum_add(a, sum_mul(b, -1.0))


def sum_mul(a: PauliSum, other) -> PauliSum:
    """a * other for a PauliSum (string products, a's terms outermost) or a
    scalar; other * a for a scalar is the same."""
    if isinstance(other, PauliSum):
        if a.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        out: dict[PauliString, complex] = {}
        for pa, ca in a.terms.items():
            for pb, cb in other.terms.items():
                ph, pc = pauli_mul(pa, pb)
                out[pc] = out.get(pc, 0j) + ca * cb * ph
        return PauliSum(a.n_qubits, out)
    out = {p: c * other for p, c in a.terms.items()}
    return PauliSum(a.n_qubits, out)


def commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    return sum_sub(sum_mul(a, b), sum_mul(b, a))


def jw_to_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a PauliSum; qubit 0 least significant.

    Brute-force oracle; refuses n > 16.
    """
    n = h.n_qubits
    if n > 16:
        raise ResourceLimitError(f"dense 2^{n} matrix exceeds the supported size")
    dim = 1 << n
    idx = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for p, c in h.terms.items():
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z) & 1)
        mat[idx ^ p.x, idx] += c * (1j) ** p.y_count * signs
    return mat


# ---------------------------------------------------------------------------
# fermion algebra


def fermion_dagger(op: FermionOperator) -> FermionOperator:
    out = FermionOperator(op.constant.conjugate())
    for (cre, ann), c in op.terms.items():
        out.add_term(c.conjugate(), tuple(reversed(ann)), tuple(reversed(cre)))
    return out


def fermion_add(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    out = FermionOperator(a.constant + b.constant, dict(a.terms))
    for k, c in b.terms.items():
        out.terms[k] = out.terms.get(k, 0.0) + c
    return out.simplify()


def fermion_mul(op: FermionOperator, scalar: complex) -> FermionOperator:
    """op * scalar; scalar * op is the same."""
    return FermionOperator(op.constant * scalar,
                           {k: c * scalar for k, c in op.terms.items()})


def fermion_sub(a: FermionOperator, b: FermionOperator) -> FermionOperator:
    return fermion_add(a, fermion_mul(b, -1.0))


def minus_hc(op: FermionOperator) -> FermionOperator:
    """op - op† (skew-Hermitian closure; constants cancel to 2i Im)."""
    return fermion_sub(op, fermion_dagger(op))


def fermion_is_hermitian(op: FermionOperator, tol: float = 1e-12) -> bool:
    return _sum_within(op, fermion_mul(fermion_dagger(op), -1.0), tol)


def fermion_is_anti_hermitian(op: FermionOperator, tol: float = 1e-12) -> bool:
    return _sum_within(op, fermion_dagger(op), tol)


def _sum_within(a: FermionOperator, b: FermionOperator, tol: float) -> bool:
    """Whether every coefficient of a + b is at most tol in modulus."""
    total = dict(a.terms)
    for k, c in b.terms.items():
        total[k] = total.get(k, 0.0) + c
    return all(abs(c) <= tol for c in (a.constant + b.constant, *total.values()))


# ---------------------------------------------------------------------------
# dense oracles

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
    """Product-form JW: ladder PauliSums multiplied with sum_mul, summed.

    The mask kernel in gcim.fermion must reproduce this term for term, in
    insertion order and bit for bit; its phases are checked separately
    against dense Kronecker products.
    """
    total = PauliSum(n_qubits)
    if abs(op.constant) >= COEFF_CUTOFF:
        total = identity_sum(n_qubits, op.constant)
    for (cre, ann), coeff in op.terms.items():
        if abs(coeff) < COEFF_CUTOFF:
            continue
        prod = identity_sum(n_qubits, coeff)
        for p in cre:
            prod = sum_mul(prod, _ladder_sum(p, n_qubits, creation=True))
        for p in ann:
            prod = sum_mul(prod, _ladder_sum(p, n_qubits, creation=False))
        total = sum_add(total, prod)
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
    skew = minus_hc(op).simplify()
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


def orthogonalize_basis(basis: SubspaceBasis) -> SubspaceBasis:
    """Modified Gram-Schmidt (with re-orthogonalization) over cached states.

    Vectors whose residual norm falls below 1e-10 are removed; the span is
    preserved.  The result keeps its source recipes for provenance only.
    """
    kept_states: list[StateVector] = []
    kept_recipes: list[BasisRecipe] = []
    for recipe, psi in zip(basis.recipes, basis.states):
        v = psi.data
        for _ in range(2):
            for q in kept_states:
                v = v - np.vdot(q.data, v) * q.data
        nrm = np.linalg.norm(v)
        if nrm < 1e-10:
            continue
        kept_states.append(StateVector(psi.space, v / nrm))
        kept_recipes.append(recipe)
    return SubspaceBasis(reference=basis.reference, pool=basis.pool,
                         recipes=kept_recipes, states=kept_states)
