"""Exact statevector engine.

Convention: bit j of a statevector index is the occupation of spin orbital
j (qubit 0 least significant).  Each PauliSum is compiled on first use to a
sparse CSR matrix over the 2^n basis, real whenever every entry is real (as
for all FCIDUMP input), and cached on the instance.  Generator exponentials
are exact: the compiled generator splits into small connected blocks, each
eigendecomposed once, so exp(theta * A) is one batched product per block
size.  The dense path exists separately as an oracle (pauli.jw_to_matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fermion import down, up
from .pauli import I_POWERS, PauliSum, ResourceLimitError

_DENSE_EIG_MAX_DIM = 1024


def _signs(idx: np.ndarray, z) -> np.ndarray:
    """(-1)^popcount(index & z) for every basis index (z may be a column)."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)


class _Compiled:
    """Compiled form of one PauliSum; the parts past the matrix are built
    the first time exp_apply or pauli_expectations needs them."""

    __slots__ = ("matrix", "blocks", "terms")

    def __init__(self, matrix: sp.csr_array):
        self.matrix = matrix
        self.blocks = None   # generator blocks, see _generator_blocks
        self.terms = None    # label-sorted strings, see pauli_expectations


def _compiled(h: PauliSum) -> _Compiled:
    if h._compiled is None:
        h._compiled = _Compiled(_compile_matrix(h))
    return h._compiled


def _compile_matrix(h: PauliSum) -> sp.csr_array:
    """CSR matrix of h, one X-mask group at a time.

    All strings sharing an X mask x map basis state j to j ^ x, so a group
    contributes one entry per column: the sum of its c * i^y * (-1)^(j.z).
    Entries that cancel to exactly zero are dropped.  The sign patterns of
    distinct z are linearly independent, so every entry is real exactly when
    every c * i^y is, and then the matrix is stored real.
    """
    dim = 1 << h.n_qubits
    idx = np.arange(dim, dtype=np.int32)
    groups: dict[int, list[tuple[int, complex]]] = {}
    for p, c in h.terms.items():
        groups.setdefault(p.x, []).append((p.z, c * I_POWERS[p.y_count % 4]))
    real = all(f.imag == 0 for g in groups.values() for _, f in g)
    dtype = np.float64 if real else np.complex128

    def entries():
        # recomputed per pass, so only one group's entries are held at a time
        for x, factors in groups.items():
            vals = np.zeros(dim, dtype=dtype)
            for z, f in factors:
                vals += (f.real if real else f) * _signs(idx, z)
            cols = np.flatnonzero(vals).astype(np.int32)
            yield cols ^ x, cols, vals[cols]

    row_counts = np.zeros(dim, dtype=np.int32)
    for rows, _, _ in entries():
        row_counts[rows] += 1
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(row_counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=dtype)
    fill = indptr[:-1].copy()
    for rows, cols, vals in entries():
        pos = fill[rows]
        indices[pos] = cols
        data[pos] = vals
        fill[rows] += 1
    return sp.csr_array((data, indices, indptr), shape=(dim, dim))


def _matvec(mat: sp.csr_array, amps: np.ndarray) -> np.ndarray:
    """mat @ amps for contiguous complex amps.

    A real mat acts on the real and imaginary parts as two columns, so no
    complex copy of its entries is made.
    """
    if mat.dtype == np.complex128:
        return mat @ amps
    return (mat @ amps.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def _generator_blocks(a: sp.csr_array) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigendecomposed connected blocks of a compiled generator.

    One entry per block size s: the basis indices (B, s) of the B blocks of
    that size, and the eigenvalues (B, s) and eigenvectors (B, s, s) of the
    Hermitian i*A on each block; for a real A only the upper s - s//2 of
    them.  States A does not touch are left out.
    """
    coo = a.tocoo()
    r, c = coo.row, coo.col
    # label propagation rather than scipy.sparse.csgraph, whose import alone
    # adds about 1 MiB of resident memory: each state takes its smallest
    # neighbour label until no label changes
    labels = np.arange(a.shape[0])
    while True:
        nxt = labels.copy()
        np.minimum.at(nxt, r, labels[c])
        np.minimum.at(nxt, c, labels[r])
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    states = np.unique(np.concatenate((r, c)))
    _, sizes = np.unique(labels[states], return_counts=True)
    grouped = states[np.argsort(labels[states], kind="stable")]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    out = []
    for s in np.unique(sizes):
        index = grouped[starts[sizes == s][:, None] + np.arange(s)]
        block = a[np.repeat(index, s, axis=1).ravel(), np.tile(index, s).ravel()]
        w, v = np.linalg.eigh(1j * block.reshape(-1, s, s))
        if a.dtype == np.float64:
            # for real A each eigenvector at w > 0 pairs with its conjugate
            # at -w, so the upper half of the ascending spectrum suffices
            w, v = w[:, s // 2:].copy(), v[:, :, s // 2:].copy()
        out.append((index.astype(np.int32), w, v))
    return out


@dataclass(frozen=True)
class StateVector:
    """Immutable complex amplitude vector over 2^n_qubits basis states."""

    amplitudes: np.ndarray
    n_qubits: int

    @classmethod
    def from_array(cls, amps: np.ndarray) -> "StateVector":
        amps = np.ascontiguousarray(amps, dtype=complex)
        n = int(amps.size - 1).bit_length()
        if amps.size != 1 << n:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        amps.setflags(write=False)
        return cls(amps, n)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls.from_array(amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector.from_array(self.amplitudes / self.norm())

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def top_amplitudes(self) -> list[dict]:
        """The eight largest-weight components, for debug dumps."""
        order = np.argsort(-np.abs(self.amplitudes))[:8]
        return [
            {"index": int(i),
             "bits": format(int(i), f"0{self.n_qubits}b")[::-1],
             "re": float(self.amplitudes[i].real),
             "im": float(self.amplitudes[i].imag)}
            for i in order if abs(self.amplitudes[i]) > 1e-12
        ]


def hf_state(n_qubits: int, n_alpha: int, n_beta: int) -> StateVector:
    """Hartree-Fock determinant: spatial orbitals 0..n_alpha-1 spin up and
    0..n_beta-1 spin down."""
    if n_alpha < 0 or n_beta < 0:
        raise ValueError("negative occupation")
    index = 0
    for spin, count in ((up, n_alpha), (down, n_beta)):
        for g in range(count):
            bit = spin(g)
            if bit >= n_qubits:
                raise ValueError(f"occupation overflow: spin orbital {bit} "
                                 f"outside {n_qubits} qubits")
            index |= 1 << bit
    return StateVector.basis_state(n_qubits, index)


def apply_paulisum(h: PauliSum, v: StateVector) -> StateVector:
    """h|v> by the compiled matrix; the result is in general unnormalized."""
    if h.n_qubits != v.n_qubits:
        raise ValueError("register size mismatch")
    return StateVector.from_array(_matvec(_compiled(h).matrix, v.amplitudes))


def exp_apply(a: PauliSum, theta: float, v: StateVector) -> StateVector:
    """exp(theta * a)|v>, exact to rounding.

    a must be anti-Hermitian (checked to 1e-12).  With i*a = V diag(w) V^H
    on each connected block of a's matrix, exp(theta * a) = V diag(e^{-i
    theta w}) V^H there and the identity elsewhere.  A real generator's
    eigenvectors come in conjugate pairs at -w and w, so its block
    exponentials are the real matrices I + 2 Re(V diag(e^{-i theta w} - 1)
    V^H) over w >= 0 alone, and real amplitudes stay exactly real.
    """
    if a.n_qubits != v.n_qubits:
        raise ValueError("register size mismatch")
    if not a.is_anti_hermitian(1e-12):
        raise ValueError("generator is not anti-Hermitian")
    if theta == 0.0 or not a.terms:
        return v
    comp = _compiled(a)
    if comp.blocks is None:
        comp.blocks = _generator_blocks(comp.matrix)
    real = comp.matrix.dtype == np.float64
    amps = v.amplitudes.copy()
    for index, w, vecs in comp.blocks:
        phase = np.expm1(-1j * theta * w) if real else np.exp(-1j * theta * w)
        u = (vecs * phase[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        if real:
            u = np.eye(u.shape[-1]) + 2.0 * u.real
        amps[index] = (u @ amps[index][..., None])[..., 0]
    return StateVector.from_array(amps)


def pauli_expectations(bras: np.ndarray, h: PauliSum, kets: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_k of h and every <bras[a]|P_k|kets[b]>.

    bras (A, 2^n) and kets (B, 2^n) are stacked amplitudes; the values are
    (A, B, T) with terms in h.sorted_terms() order, so <bras[a]|h|kets[b]>
    = sum_k c_k values[a, b, k].  The strings sharing an X mask x map j to
    j ^ x, so each group shifts the conjugated bras once; per pair its
    strings are one signed sum over conj(bra[j ^ x]) * ket[j].  That sum is
    the same product whatever the stack, so a pair's values do not depend
    on what else is evaluated with it, to the last bit.
    """
    if not bras.shape[-1] == kets.shape[-1] == 1 << h.n_qubits:
        raise ValueError("register size mismatch")
    comp = _compiled(h)
    if comp.terms is None:
        ordered = h.sorted_terms()
        groups: dict[int, list[int]] = {}
        for k, (p, _) in enumerate(ordered):
            groups.setdefault(p.x, []).append(k)
        comp.terms = (
            np.array([c for _, c in ordered], dtype=complex),
            [(x, np.array(ks),
              np.array([ordered[k][0].z for k in ks])[:, None],
              np.array([I_POWERS[ordered[k][0].y_count % 4] for k in ks]))
             for x, ks in groups.items()])
    coeffs, groups = comp.terms
    idx = np.arange(1 << h.n_qubits)
    values = np.empty((len(bras), len(kets), coeffs.size), dtype=complex)
    for x, ks, z, phase in groups:
        signs = _signs(idx, z)
        for a, shifted in enumerate(np.conj(bras[:, idx ^ x])):
            for b, ket in enumerate(kets):
                values[a, b, ks] = phase * (signs @ (shifted * ket))
    return coeffs, values


@dataclass(frozen=True)
class ExactSpectrum:
    """Lowest eigenvalues (ascending, hartree) and the ground eigenvector.

    sector is the (n_alpha, n_beta) sector that was diagonalized, or None
    for the full Fock space when no reference was given.
    """

    eigenvalues: np.ndarray
    ground_state: StateVector
    sector: tuple[int, int] | None = None


def _sector_indices(reference: StateVector) -> tuple[np.ndarray, tuple[int, int]]:
    """Basis indices with the reference's spin-up and spin-down occupation
    counts, and those two counts."""
    n_spatial = (reference.n_qubits + 1) // 2  # an odd register's top qubit is spin up
    idx = np.arange(1 << reference.n_qubits)
    n_alpha = np.bitwise_count(idx & sum(1 << up(g) for g in range(n_spatial)))
    n_beta = np.bitwise_count(idx & sum(1 << down(g) for g in range(n_spatial)))
    support = np.flatnonzero(reference.amplitudes)
    occ = (int(n_alpha[support[0]]), int(n_beta[support[0]]))
    if np.any(n_alpha[support] != occ[0]) or np.any(n_beta[support] != occ[1]):
        raise ValueError("reference spans more than one (n_alpha, n_beta) sector")
    return np.flatnonzero((n_alpha == occ[0]) & (n_beta == occ[1])), occ


def exact_spectrum(h: PauliSum, k: int = 1,
                   reference: StateVector | None = None) -> ExactSpectrum:
    """Lowest k eigenpairs of a Hermitian PauliSum, from its compiled matrix.

    With a reference, only the block of h over the determinants of the
    reference's (n_alpha, n_beta) sector is diagonalized, and the ground
    vector is embedded back into the full register.  That block is the
    reference for every method here, whether or not h couples the sector to
    the rest: the generators conserve both counts, so every generating
    function, and hence the projected pair, sees only that block.  Dense
    eigensolve up to dimension 1024; restarted Krylov (ARPACK) above, from a
    fixed start vector and with three extra eigenpairs so that a degenerate
    ground level is not split.  Residuals are verified to 1e-9.
    """
    n = h.n_qubits
    if n > 16:
        raise ResourceLimitError(f"spectrum for {n} qubits exceeds the desk-scale limit")
    if not h.is_hermitian(1e-10):
        raise ValueError("Hamiltonian is not Hermitian")
    mat = _compiled(h).matrix
    keep, sector = None, None
    if reference is not None:
        if reference.n_qubits != n:
            raise ValueError("register size mismatch")
        keep, sector = _sector_indices(reference)
        mat = mat[keep][:, keep]
    dim = mat.shape[0]
    k = min(k, dim)
    if dim <= _DENSE_EIG_MAX_DIM or k >= dim - 1:
        # only the lowest k pairs (MRRR): less workspace than a full eigh
        vals, evecs = sla.eigh(mat.toarray(), subset_by_index=[0, k - 1], driver="evr")
        ground = evecs[:, 0]
    else:
        v0 = np.random.default_rng(0).standard_normal(dim).astype(mat.dtype)
        evals, evecs = spla.eigsh(mat, k=min(k + 3, dim - 1), which="SA", v0=v0)
        order = np.argsort(evals)
        vals = evals[order][:k]
        ground = evecs[:, order[0]]
    resid = np.linalg.norm(mat @ ground - vals[0] * ground)
    if resid > 1e-9:
        raise RuntimeError(f"eigensolver residual {resid:.3e} exceeds 1e-9")
    if keep is not None:
        full = np.zeros(1 << n, dtype=ground.dtype)
        full[keep] = ground
        ground = full
    return ExactSpectrum(np.asarray(vals, dtype=float),
                         StateVector.from_array(ground / np.linalg.norm(ground)), sector)
