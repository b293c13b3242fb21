"""Exact statevector engine.

Convention: bit j of a basis index is the occupation of spin orbital j
(qubit 0 least significant).  A StateVector holds amplitudes over the basis
states of a Space: hf_state's space is the reference determinant's (n_alpha,
n_beta) sector, which every pool generator and every molecular Hamiltonian
conserves, and from_array and basis_state give the full register of all 2^n
indices, which runs the same code.  StateVector.amplitudes is the read-only
embedding into the full register, for oracles, tests and debug output.

Each PauliSum is compiled once per space to a sparse CSR matrix over that
space's indices, real whenever every entry is real (as for all FCIDUMP
input), and cached on the instance.  On a sector the matrix is the sector
block, so apply_paulisum returns the sector projection of h|v>.  Generator
exponentials are exact: the compiled generator splits into small connected
blocks, each eigendecomposed once, so exp(theta * A) is one batched product
per block size.  The dense path exists separately as an oracle
(pauli.jw_to_matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fermion import down, up
from .pauli import I_POWERS, PauliSum, ResourceLimitError

_DENSE_EIG_MAX_DIM = 1024
_ORACLE_MAX_DIM = 1 << 16
_LEAK_TOL = 1e-12   # largest entry a generator may send out of its space


def _signs(idx: np.ndarray, z) -> np.ndarray:
    """(-1)^popcount(index & z) for every basis index (z may be a column)."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)


@dataclass(frozen=True, eq=False)
class Space:
    """Basis states of a register that a StateVector holds amplitudes for.

    indices are sorted basis indices; sector is (n_alpha, n_beta) for the
    determinants with those spin-up (even bit) and spin-down (odd bit)
    occupation counts, None for the full register.  full_space and
    sector_space return one object per argument set, and compiled operators
    are cached per object, so spaces compare by identity.
    """

    n_qubits: int
    indices: np.ndarray
    sector: tuple[int, int] | None = None

    @property
    def dim(self) -> int:
        return len(self.indices)

    def positions(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the basis indices idx in this space, and which of
        them are in it (the position of one that is not is meaningless)."""
        pos = np.minimum(np.searchsorted(self.indices, idx), self.dim - 1)
        return pos, self.indices[pos] == idx


@cache
def full_space(n_qubits: int) -> Space:
    """All 2^n_qubits basis indices."""
    indices = np.arange(1 << n_qubits)
    indices.setflags(write=False)
    return Space(n_qubits, indices)


@cache
def sector_space(n_qubits: int, n_alpha: int, n_beta: int) -> Space:
    """Determinants with n_alpha spin-up and n_beta spin-down orbitals
    occupied; an odd register's top qubit is spin up."""
    strings = []
    for spin, count, n_orb in ((up, n_alpha, (n_qubits + 1) // 2),
                               (down, n_beta, n_qubits // 2)):
        strings.append(np.array([sum(1 << spin(g) for g in occ)
                                 for occ in combinations(range(n_orb), count)],
                                dtype=np.int64))
    indices = np.sort((strings[0][:, None] | strings[1][None, :]).ravel())
    indices.setflags(write=False)
    return Space(n_qubits, indices, (n_alpha, n_beta))


class _Compiled:
    """One PauliSum compiled over one space: its matrix, the largest entry
    it sends out of the space, and the generator blocks, built the first
    time exp_apply needs them."""

    __slots__ = ("matrix", "leak", "blocks")

    def __init__(self, matrix: sp.csr_array, leak: float):
        self.matrix = matrix
        self.leak = leak
        self.blocks = None   # see _generator_blocks


def _cache(h: PauliSum) -> dict:
    """What this module derives from h: a _Compiled per space, and under
    "terms" the grouping pauli_expectations uses."""
    if h._compiled is None:
        h._compiled = {}
    return h._compiled


def _compiled(h: PauliSum, space: Space) -> _Compiled:
    cache = _cache(h)
    if space not in cache:
        cache[space] = _Compiled(*_compile_matrix(h, space))
    return cache[space]


def _compile_matrix(h: PauliSum, space: Space) -> tuple[sp.csr_array, float]:
    """CSR block of h over the space, one X-mask group at a time, and the
    largest |entry| of h that maps a state of the space out of it.

    All strings sharing an X mask x map basis state j to j ^ x, so a group
    contributes one entry per column: the sum of its c * i^y * (-1)^(j.z).
    Entries that cancel to exactly zero, and entries whose row is outside
    the space, are dropped.  The sign patterns of distinct z are linearly
    independent, so every entry is real exactly when every c * i^y is, and
    then the matrix is stored real.
    """
    idx, dim = space.indices, space.dim
    groups: dict[int, list[tuple[int, complex]]] = {}
    for p, c in h.terms.items():
        groups.setdefault(p.x, []).append((p.z, c * I_POWERS[p.y_count % 4]))
    real = all(f.imag == 0 for g in groups.values() for _, f in g)
    dtype = np.float64 if real else np.complex128
    leak = 0.0
    # seeded with empty arrays, so a sum without terms concatenates
    rows, cols, vals = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0, dtype)]
    for x, factors in groups.items():
        v = np.zeros(dim, dtype=dtype)
        for z, f in factors:
            v += (f.real if real else f) * _signs(idx, z)
        pos, inside = space.positions(idx ^ x)
        leak = max(leak, float(np.abs(v[~inside]).max(initial=0.0)))
        keep = np.flatnonzero(inside & (v != 0))
        rows.append(pos[keep])
        cols.append(keep)
        vals.append(v[keep])
    rows = np.concatenate(rows)
    # a group puts at most one entry in a row, so a stable sort by row keeps
    # each row's entries in group order
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    matrix = sp.csr_array((np.concatenate(vals)[order],
                           np.concatenate(cols)[order].astype(np.int32), indptr),
                          shape=(dim, dim))
    return matrix, leak


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

    One entry per block size s: the positions (B, s) in the space of the B
    blocks of that size, and the eigenvalues (B, s) and eigenvectors
    (B, s, s) of the Hermitian i*A on each block; for a real A only the upper s - s//2 of
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
    """Immutable complex amplitudes over the basis states of a space.

    data[k] is the amplitude of basis index space.indices[k].
    """

    space: Space
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=complex)
        if data.shape != (self.space.dim,):
            raise ValueError(f"{data.shape} amplitudes for a space of dimension "
                             f"{self.space.dim}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, amps: np.ndarray) -> "StateVector":
        """A state over the full register from its 2^n amplitudes."""
        amps = np.asarray(amps)
        n = int(amps.size - 1).bit_length()
        if amps.size != 1 << n:
            raise ValueError(f"amplitude count {amps.size} is not a power of two")
        return cls(full_space(n), amps)

    @classmethod
    def basis_state(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls.from_array(amps)

    @property
    def n_qubits(self) -> int:
        return self.space.n_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only embedding into the full 2^n register."""
        amps = np.zeros(1 << self.n_qubits, dtype=complex)
        amps[self.space.indices] = self.data
        amps.setflags(write=False)
        return amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def normalized(self) -> "StateVector":
        return StateVector(self.space, self.data / self.norm())

    def inner(self, other: "StateVector") -> complex:
        """<self|other>; states on different spaces meet in the full register.

        Summed as real dot products of the real and imaginary parts, the
        four sums a complex BLAS dot accumulates: on the toy's sector this
        rounds exactly as the complex dot over the full register did, so
        BFGS stops where it did before states lived on their sector.
        """
        if self.space is other.space:
            ar, ai = self.data.real, self.data.imag
            br, bi = other.data.real, other.data.imag
            return complex(np.dot(ar, br) + np.dot(ai, bi),
                           np.dot(ar, bi) - np.dot(ai, br))
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def top_amplitudes(self) -> list[dict]:
        """The eight largest-weight components, for debug dumps."""
        order = np.argsort(-np.abs(self.data), kind="stable")[:8]
        return [
            {"index": int(i),
             "bits": format(int(i), f"0{self.n_qubits}b")[::-1],
             "re": float(a.real),
             "im": float(a.imag)}
            for i, a in zip(self.space.indices[order], self.data[order])
            if abs(a) > 1e-12
        ]


def hf_state(n_qubits: int, n_alpha: int, n_beta: int) -> StateVector:
    """Hartree-Fock determinant on its (n_alpha, n_beta) sector: spatial
    orbitals 0..n_alpha-1 spin up and 0..n_beta-1 spin down."""
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
    space = sector_space(n_qubits, n_alpha, n_beta)
    data = np.zeros(space.dim, dtype=complex)
    data[np.searchsorted(space.indices, index)] = 1.0
    return StateVector(space, data)


def apply_paulisum(h: PauliSum, v: StateVector) -> StateVector:
    """h|v> by the matrix compiled over v's space, so on a sector the sector
    projection of h|v>; the result is in general unnormalized."""
    if h.n_qubits != v.n_qubits:
        raise ValueError("register size mismatch")
    return StateVector(v.space, _matvec(_compiled(h, v.space).matrix, v.data))


def _generator(a: PauliSum, space: Space) -> _Compiled:
    """A generator compiled over the space, with its blocks.  Checked once,
    when they are built: a is anti-Hermitian (to 1e-12) and maps no state of
    the space out of it by more than _LEAK_TOL.  Smaller entries out of the
    space are rounding residues of cancelled terms and are dropped."""
    comp = _compiled(a, space)
    if comp.blocks is None:
        if not a.is_anti_hermitian(1e-12):
            raise ValueError("generator is not anti-Hermitian")
        if comp.leak > _LEAK_TOL:
            raise ValueError(f"generator leaves the state's space (sector "
                             f"{space.sector}) by {comp.leak:.3e}")
        comp.blocks = _generator_blocks(comp.matrix)
    return comp


def exp_apply(a: PauliSum, theta: float, v: StateVector) -> StateVector:
    """exp(theta * a)|v>, exact to rounding.

    a must be anti-Hermitian and keep v's space (see _generator).  With
    i*a = V diag(w) V^H on each connected block of a's matrix,
    exp(theta * a) = V diag(e^{-i theta w}) V^H there and the identity
    elsewhere.  A real generator's eigenvectors come in conjugate pairs at
    -w and w, so its block exponentials are the real matrices
    I + 2 Re(V diag(e^{-i theta w} - 1) V^H) over w >= 0 alone, and real
    amplitudes stay exactly real.
    """
    if a.n_qubits != v.n_qubits:
        raise ValueError("register size mismatch")
    comp = _generator(a, v.space)
    if theta == 0.0 or not a.terms:
        return v
    real = comp.matrix.dtype == np.float64
    data = v.data.copy()
    for index, w, vecs in comp.blocks:
        phase = np.expm1(-1j * theta * w) if real else np.exp(-1j * theta * w)
        u = (vecs * phase[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        if real:
            u = np.eye(u.shape[-1]) + 2.0 * u.real
        data[index] = (u @ data[index][..., None])[..., 0]
    return StateVector(v.space, data)


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
    cache = _cache(h)
    if "terms" not in cache:
        ordered = h.sorted_terms()
        groups: dict[int, list[int]] = {}
        for k, (p, _) in enumerate(ordered):
            groups.setdefault(p.x, []).append(k)
        cache["terms"] = (
            np.array([c for _, c in ordered], dtype=complex),
            [(x, np.array(ks),
              np.array([ordered[k][0].z for k in ks])[:, None],
              np.array([I_POWERS[ordered[k][0].y_count % 4] for k in ks]))
             for x, ks in groups.items()])
    coeffs, groups = cache["terms"]
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
    """Lowest eigenvalues (ascending, hartree) and the ground eigenvector."""

    eigenvalues: np.ndarray
    ground_state: StateVector

    @property
    def sector(self) -> tuple[int, int] | None:
        """The (n_alpha, n_beta) sector that was diagonalized, or None for
        the full register."""
        return self.ground_state.space.sector


def exact_spectrum(h: PauliSum, k: int = 1,
                   reference: StateVector | None = None) -> ExactSpectrum:
    """Lowest k eigenpairs of a Hermitian PauliSum, from its compiled matrix.

    With a reference, h's matrix over the reference's space is
    diagonalized, and the ground state lives on that space; without one,
    the full register's.  For hf_state that space is the reference's
    (n_alpha, n_beta) sector, and its block is the reference for every
    method here, whether or not h couples the sector to the rest: the
    generators conserve both counts, so every generating function, and
    hence the projected pair, sees only that block.  Dense eigensolve up to
    dimension 1024; restarted Krylov (ARPACK) above, from a fixed start
    vector and with three extra eigenpairs so that a degenerate ground
    level is not split.  Residuals are verified to 1e-9.  Dimensions past
    2^16 are refused.
    """
    n = h.n_qubits
    if reference is not None and reference.n_qubits != n:
        raise ValueError("register size mismatch")
    dim = reference.space.dim if reference is not None else 1 << n
    if dim > _ORACLE_MAX_DIM:
        raise ResourceLimitError(f"spectrum of dimension {dim} exceeds the "
                                 f"desk-scale limit {_ORACLE_MAX_DIM}")
    if not h.is_hermitian(1e-10):
        raise ValueError("Hamiltonian is not Hermitian")
    space = reference.space if reference is not None else full_space(n)
    mat = _compiled(h, space).matrix
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
    return ExactSpectrum(np.asarray(vals, dtype=float),
                         StateVector(space, ground / np.linalg.norm(ground)))
