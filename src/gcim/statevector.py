"""Exact statevector engine.

Convention: bit j of a basis index is the occupation of spin orbital j
(qubit 0 least significant).  A StateVector holds amplitudes over the basis
states of a Space: hf_state's space is the reference determinant's (n_alpha,
n_beta) sector, which every pool generator and every molecular Hamiltonian
conserves, and from_array and basis_state give the full register of all 2^n
indices, which runs the same code.  StateVector.amplitudes, the read-only
embedding into the full register, is left to oracles, tests and inner
products across spaces; no kernel here, pauli_expectations included, reads it.
Amplitudes keep the dtype of their data (hf_state and basis_state are
real), and every kernel returns the common dtype of its operator and state:
a real Hamiltonian and pool (all FCIDUMP and Hubbard input) run in float64
end to end, and a complex operator or state promotes to complex128.

Each PauliSum is compiled once per space to a sparse CSR matrix over that
space's indices, real whenever every entry is real (as for all FCIDUMP
input), and cached on the instance.  On a sector the matrix is the sector
block, so apply_paulisum returns the sector projection of h|v>.  A Hamiltonian,
or any sum a caller builds, compiles from its Pauli strings one X mask at a
time.  The generators of a pool are bound, as the pool is built, to the
lists of their excitation terms (bind_generators): the first time a space
needs any of them, all of them compile in one vectorized pass over every
term by determinant string rules, into one stacked CSR whose row block l is
generator l's matrix A_l = F_l - F_l^T.  One rule sums both: F_l sums each
position's terms in term order, and A_l sums at each position k F_l(k), then
-F_l(k^T), so A_l is exactly antisymmetric; entries below COEFF_CUTOFF
(cancellation residues) are dropped.  apply_generators is one product with
that stack.  Generator exponentials are exact: the compiled generator splits
into small connected blocks, each eigendecomposed once into spectral
projectors, cached as one stacked sparse matrix, so exp(theta * A)|v> is one
product with that stack and a sum weighted by sin(theta w) and
cos(theta w) - 1.  A dense 2^n matrix of a PauliSum is left to the tests,
as their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fermion import down, spin, up
from .pauli import COEFF_CUTOFF, I_POWERS, PauliSum, ResourceLimitError

_DENSE_EIG_MAX_DIM = 1024
_ORACLE_MAX_DIM = 1 << 16
_LEAK_TOL = 1e-12   # largest entry a generator may send out of its space
_CHUNK = 1 << 14    # (term, state) pairs per step of the excitation compile
# Unlike the Jordan-Wigner map's, these chunks pay for themselves: compiling
# the pool over the (3, 3) sector in one pass instead took 21.6 -> 28.6 ms
# and 11 MiB more peak memory at 12 qubits, 110.3 -> 129.9 ms and 61 MiB more
# at 14 (min of 7, numpy 2.4, 2-core Xeon).


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
    for orbital, count, n_orb in ((up, n_alpha, (n_qubits + 1) // 2),
                                  (down, n_beta, n_qubits // 2)):
        strings.append(np.array([sum(1 << orbital(g) for g in occ)
                                 for occ in combinations(range(n_orb), count)],
                                dtype=np.int64))
    indices = np.sort((strings[0][:, None] | strings[1][None, :]).ravel())
    indices.setflags(write=False)
    return Space(n_qubits, indices, (n_alpha, n_beta))


class _Compiled:
    """One PauliSum compiled over one space: its matrix, the largest entry
    it sends out of the space, and, the first time exp_apply needs them, the
    generator's projector stack and frequencies (see _exp_stack)."""

    __slots__ = ("matrix", "leak", "stack", "freqs")

    def __init__(self, matrix: sp.csr_array, leak: float):
        self.matrix = matrix
        self.leak = leak
        self.stack = self.freqs = None


def _cache(h: PauliSum) -> dict:
    """What this module derives from h: a _Compiled per space, under "terms"
    the grouping pauli_expectations uses, and under "group" the
    _GeneratorGroup h is bound to and its position there."""
    if h._compiled is None:
        h._compiled = {}
    return h._compiled


def _compiled(h: PauliSum, space: Space) -> _Compiled:
    cache = _cache(h)
    if space not in cache:
        if "group" in cache:
            group, l = cache["group"]
            cache[space] = _Compiled(group.block(space, l), 0.0)
        else:
            cache[space] = _Compiled(*_compile_matrix(h, space))
    return cache[space]


class _GeneratorGroup:
    """Generators compiled together from their excitation terms, one stacked
    matrix per space, built the first time the space needs any of them.
    The group holds no reference to its members, so binding makes no
    reference cycle."""

    def __init__(self, excitations: list):
        self.excitations = excitations
        self.stacks: dict[Space, sp.csr_array] = {}

    def stack(self, space: Space) -> sp.csr_array:
        """All members over the space, stacked: row block l (rows l*dim to
        (l+1)*dim) is member l's matrix."""
        if space not in self.stacks:
            self.stacks[space] = self._compile(space)
        return self.stacks[space]

    def block(self, space: Space, l: int) -> sp.csr_array:
        """Member l's matrix, a view of the stack's entries."""
        stack, dim = self.stack(space), space.dim
        ptr = stack.indptr[l * dim:(l + 1) * dim + 1]
        block = sp.csr_array((dim, dim), dtype=stack.dtype)
        # assigned, not passed to the constructor, which would copy a view
        # this much smaller than the stack
        block.indptr = ptr - ptr[0]
        block.indices = stack.indices[ptr[0]:ptr[-1]]
        block.data = stack.data[ptr[0]:ptr[-1]]
        return block

    def _compile(self, space: Space) -> sp.csr_array:
        """The stacked matrix A_l = F_l - F_l^T, F_l from member l's terms.

        Every term c a+_{cre} a_{ann} of every member is one row of flat
        term arrays: its member, c, and its ladder operators in the order
        they act on a ket (annihilations, then creations, each right to
        left) as a bit and a creation flag, padded with (0, creation), which
        acts as the identity.  Each (term, state) pair follows the ket's bit
        string through them: the pair survives if every annihilated orbital
        is occupied and every created one empty, and its sign is
        (-1)^(occupied orbitals below each ladder operator).  Members are
        compiled a run at a time, about _CHUNK pairs each.  F and A come
        from one per-key sum (summed): F sums the entries at each key in
        term order, and A sums at each key k F(k), then -F(k^T).  In IEEE
        arithmetic a + (-b) = -(b + (-a)) exactly, so A(k^T) = -A(k) to
        the bit.  Entries below COEFF_CUTOFF (cancellation residues) are
        dropped.  A term must conserve both spin counts, so the stack has no
        entry outside the space.
        """
        terms = [(l, tuple(reversed(ann)) + tuple(reversed(cre)), len(ann), c)
                 for l, ex in enumerate(self.excitations) for cre, ann, c in ex]
        for _, ops, n_ann, _ in terms:
            if sorted(map(spin, ops[:n_ann])) != sorted(map(spin, ops[n_ann:])):
                raise ValueError(f"excitation term {ops} changes a spin count")
        width = max((len(ops) for _, ops, _, _ in terms), default=0)
        member = np.array([l for l, _, _, _ in terms], dtype=np.int64)
        coeff = np.array([c for _, _, _, c in terms], dtype=np.float64)
        bits = np.zeros((len(terms), width), dtype=np.int64)
        creates = np.ones((len(terms), width), dtype=bool)
        for t, (_, ops, n_ann, _) in enumerate(terms):
            bits[t, :len(ops)] = [1 << p for p in ops]
            creates[t, :n_ann] = False
        belows = np.where(bits > 0, bits - 1, 0)   # the orbitals under each bit

        idx, dim = space.indices, space.dim
        n_members = len(self.excitations)
        first = np.searchsorted(member, np.arange(n_members + 1))   # each member's first term
        indptr = np.zeros(n_members * dim + 1, dtype=np.int32)   # row counts first
        cols, vals = [np.zeros(0, np.int32)], [np.zeros(0)]

        def transposed(k):
            block_row, col = np.divmod(k, dim)
            l, row = np.divmod(block_row, dim)
            return (l * dim + col) * dim + row

        def summed(keys, weights):   # the distinct keys, each one's weights summed in input order
            keys, inverse = np.unique(keys, return_inverse=True)
            return keys, np.bincount(inverse, weights=weights, minlength=keys.size)

        l0 = 0
        while l0 < n_members:
            # members l0..l1-1: at least one, else as many as fit in _CHUNK pairs
            l1 = max(l0 + 1, int(np.searchsorted(first, first[l0] + _CHUNK // dim, "right")) - 1)
            chunk = slice(first[l0], first[l1])
            cur = np.repeat(idx[None, :], chunk.stop - chunk.start, axis=0)
            alive = np.ones(cur.shape, dtype=bool)
            parity = np.zeros(cur.shape, dtype=np.uint8)
            # one (terms, 1) column per ladder operator
            for bit, below, create in zip(bits[chunk].T[..., None],
                                          belows[chunk].T[..., None],
                                          creates[chunk].T[..., None]):
                alive &= ((cur & bit) == 0) == create
                parity ^= np.bitwise_count(cur & below)
                cur ^= bit
            t, j = np.nonzero(alive)
            pos, _ = space.positions(cur[t, j])
            # key ((member - l0) * dim + row) * dim + col, sorted and unique
            keys, fvals = summed(((member[chunk][t] - l0) * dim + pos) * dim + j,
                                 coeff[chunk][t] * (1.0 - 2.0 * (parity[t, j] & 1)))
            # each key sums F(k), then -F(k^T)
            akeys, avals = summed(np.concatenate((keys, transposed(keys))),
                                  np.concatenate((fvals, -fvals)))
            keep = np.abs(avals) >= COEFF_CUTOFF
            rows, col = np.divmod(akeys[keep], dim)
            indptr[l0 * dim + 1:l1 * dim + 1] = np.bincount(rows, minlength=(l1 - l0) * dim)
            cols.append(col.astype(np.int32))
            vals.append(avals[keep])
            l0 = l1
        np.cumsum(indptr, out=indptr)
        return sp.csr_array((np.concatenate(vals), np.concatenate(cols), indptr),
                            shape=(n_members * dim, dim))


def bind_generators(sums: list[PauliSum], excitations: list) -> None:
    """Compile the anti-Hermitian sums from their excitation terms, together.

    excitations[l] is the list of (creations, annihilations, real
    coefficient) terms of the excitation half F_l of sums[l] = F_l -
    F_l^dagger, in the canonical order of fermion.FermionOperator
    (pool.PoolOperator.forward_terms), computed before binding; every term
    must conserve both spin counts.  From then on each sum's matrix over a
    space is row block l of the group's stacked matrix, whichever call
    compiles it first.  Bind before anything compiles the sums.
    """
    if len(sums) != len(excitations):
        raise ValueError("one excitation list per generator")
    group = _GeneratorGroup(excitations)
    for l, a in enumerate(sums):
        _cache(a)["group"] = (group, l)


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
    """mat @ amps for contiguous amps, in their common dtype: real for a
    real mat on real amps, complex otherwise.

    A real mat acts on complex amps' real and imaginary parts as two
    columns, so no complex copy of its entries is made.
    """
    if mat.dtype == np.complex128 or amps.dtype == np.float64:
        return mat @ amps
    return (mat @ amps.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


def _exp_stack(a: sp.csr_array) -> tuple[sp.csr_array, np.ndarray]:
    """The spectral-projector form of a compiled generator's exponential,

        exp(theta * A) = I + sum_k [sin(theta w_k) R_k + (cos(theta w_k) - 1) Q_k],

    as a stacked matrix [R; Q] and the frequencies w.

    A splits into connected blocks (states it does not touch are left out),
    and on each the Hermitian i*A = V diag(w) V^H; column k of V gives the
    projector P_k = v_k v_k^H, and exp(theta * A) = I + sum_k
    (e^{-i theta w_k} - 1) P_k.  For a complex A, R_k = -i P_k and Q_k = P_k
    over every column.  For a real A each eigenvector at w > 0 pairs with
    its conjugate at -w, and the pair gives the real R_k = 2 Im P_k and
    Q_k = 2 Re P_k, so only w > 0 is kept (an odd block's zero eigenvalue
    adds nothing).  Slab j holds column j of every block, and its rows, each
    one block's, carry that block's w_j: with K slabs the stack is
    (2K * dim, dim), R slabs above Q slabs, and the frequencies are (K, dim),
    0 on rows no block reaches.  Exact zeros are not stored.
    """
    dim = a.shape[0]
    real = a.dtype == np.float64
    r, c = np.repeat(np.arange(dim), np.diff(a.indptr)), a.indices
    # label propagation rather than scipy.sparse.csgraph, whose import alone
    # adds about 1 MiB of resident memory: each state takes its smallest
    # neighbour label until no label changes
    labels = np.arange(dim)
    while True:
        nxt = labels.copy()
        np.minimum.at(nxt, r, labels[c])
        np.minimum.at(nxt, c, labels[r])
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    # the touched states in order, each with its block (blocks in the order
    # of their smallest states) and its place there
    states = np.union1d(r, c)
    block = np.searchsorted(states[labels[states] == states], labels[states])
    sizes = np.bincount(block)
    local = np.empty_like(block)
    local[np.argsort(block, kind="stable")] = np.arange(block.size) - np.repeat(
        np.cumsum(sizes) - sizes, sizes)
    n_blocks, width = sizes.size, sizes.max(initial=0)
    index = np.zeros((n_blocks, width), dtype=np.int32)   # block b's states
    index[block, local] = states
    at_r, at_c = np.searchsorted(states, r), np.searchsorted(states, c)
    dense = np.zeros((n_blocks, width, width), dtype=a.dtype)
    dense[block[at_r], local[at_r], local[at_c]] = a.data
    # eigendecomposed per block size; kept columns zero-padded to n_slabs,
    # vt[b, j] is block b's column j
    kept = {s: s // 2 if real else s for s in np.unique(sizes).tolist()}
    n_slabs = max(kept.values(), default=0)
    w = np.zeros((n_blocks, n_slabs))
    vt = np.zeros((n_blocks, n_slabs, width), dtype=complex)
    for s, k in kept.items():
        sel = np.flatnonzero(sizes == s)
        ws, vs = np.linalg.eigh(1j * dense[sel, :s, :s])
        w[sel, :k], vt[sel, :k, :s] = ws[:, s - k:], vs[:, :, s - k:].transpose(0, 2, 1)
    # row (part, slab j, state) of the stack is that state's row of R_j or
    # Q_j in its block: P_j[row, col] = v_j[row] conj(v_j[col])
    p = (vt[block, :, local][..., None] * vt[block].conj()).transpose(1, 0, 2)
    terms = np.stack((2.0 * p.imag, 2.0 * p.real) if real else (-1j * p, p))
    keep = terms != 0
    counts = np.zeros((2, n_slabs, dim), dtype=np.int32)
    counts[:, :, states] = np.count_nonzero(keep, axis=-1)
    indptr = np.zeros(2 * n_slabs * dim + 1, dtype=np.int32)
    np.cumsum(counts.ravel(), out=indptr[1:])
    cols = np.broadcast_to(index[block], terms.shape)[keep]
    stack = sp.csr_array((terms[keep], cols, indptr), shape=(2 * n_slabs * dim, dim))
    freqs = np.zeros((n_slabs, dim))
    freqs[:, states] = w[block].T
    return stack, freqs


@dataclass(frozen=True)
class StateVector:
    """Immutable amplitudes over the basis states of a space.

    data[k] is the amplitude of basis index space.indices[k].  The dtype
    follows the data: float64 for real input, complex128 for complex.
    """

    space: Space
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        data = np.ascontiguousarray(data, dtype=np.result_type(data, np.float64))
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
        amps = np.zeros(1 << n_qubits)
        amps[index] = 1.0
        return cls.from_array(amps)

    @property
    def n_qubits(self) -> int:
        return self.space.n_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only embedding into the full 2^n register."""
        amps = np.zeros(1 << self.n_qubits, dtype=self.data.dtype)
        amps[self.space.indices] = self.data
        amps.setflags(write=False)
        return amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def normalized(self) -> "StateVector":
        return StateVector(self.space, self.data / self.norm())

    def inner(self, other: "StateVector") -> complex:
        """<self|other>, one BLAS dot (a real one for real states); states on
        different spaces meet in the full register."""
        if self.space is other.space:
            return complex(np.vdot(self.data, other.data))
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
    data = np.zeros(space.dim)
    data[np.searchsorted(space.indices, index)] = 1.0
    return StateVector(space, data)


def apply_paulisum(h: PauliSum, v: StateVector) -> StateVector:
    """h|v> by the matrix compiled over v's space, so on a sector the sector
    projection of h|v>; the result is in general unnormalized."""
    if h.n_qubits != v.n_qubits:
        raise ValueError("register size mismatch")
    return StateVector(v.space, _matvec(_compiled(h, v.space).matrix, v.data))


def apply_generators(gens: list[PauliSum], v: StateVector) -> np.ndarray:
    """Rows gens[l]|v> as one (len(gens), dim) array, real when v and every
    generator are.

    When gens are the members of one bound group, in order, this is one
    product with the group's stacked matrix; otherwise one product per
    generator.  A row equals apply_paulisum(gens[l], v).data to the last
    bit either way: each row of a CSR product sums that row's entries in
    stored order, and a member's matrix is its row block of the stack.
    """
    if any(a.n_qubits != v.n_qubits for a in gens):
        raise ValueError("register size mismatch")
    group = _cache(gens[0]).get("group", (None,))[0] if gens else None
    if group is not None and len(gens) == len(group.excitations) and all(
            _cache(a).get("group") == (group, l) for l, a in enumerate(gens)):
        return _matvec(group.stack(v.space), v.data).reshape(len(gens), -1)
    return np.array([_matvec(_compiled(a, v.space).matrix, v.data) for a in gens]
                    ).reshape(len(gens), v.space.dim)


def _generator(a: PauliSum, space: Space) -> _Compiled:
    """A generator compiled over the space, with its projector stack.
    Checked once, when the stack is built: a is anti-Hermitian (to 1e-12)
    and maps no state of the space out of it by more than _LEAK_TOL.
    Smaller entries out of the space are rounding residues of cancelled
    terms and are dropped."""
    comp = _compiled(a, space)
    if comp.stack is None:
        if not a.is_anti_hermitian(1e-12):
            raise ValueError("generator is not anti-Hermitian")
        if comp.leak > _LEAK_TOL:
            raise ValueError(f"generator leaves the state's space (sector "
                             f"{space.sector}) by {comp.leak:.3e}")
        comp.stack, comp.freqs = _exp_stack(comp.matrix)
    return comp


def exp_apply(a: PauliSum, theta: float, v: StateVector) -> StateVector:
    """exp(theta * a)|v>, exact to rounding.

    a must be anti-Hermitian and keep v's space (see _generator).  Its
    exponential is I + sum_k [sin(theta w_k) R_k + (cos(theta w_k) - 1) Q_k]
    over the spectral projectors of its connected blocks (_exp_stack): one
    product of the cached stack [R; Q] with v, and a sum of its slabs
    weighted by the trigonometric coefficients of their rows.  A real
    generator's stack is real, so a real state stays float64.
    """
    if a.n_qubits != v.n_qubits:
        raise ValueError("register size mismatch")
    comp = _generator(a, v.space)
    if theta == 0.0 or not a.terms:
        return v
    angles = theta * comp.freqs
    coeffs = np.concatenate((np.sin(angles), np.cos(angles) - 1.0))
    terms = _matvec(comp.stack, v.data).reshape(coeffs.shape)
    return StateVector(v.space, v.data + (coeffs * terms).sum(axis=0))


def pauli_expectations(bra: StateVector, h: PauliSum, kets: list[StateVector]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_k of h and every <bra|P_k|kets[b]>, over the states'
    one space: values (B, T), terms in h.sorted_terms() order, so
    <bra|h|kets[b]> = sum_k c_k values[b, k].  The strings sharing an X mask
    x map j to j ^ x, so each group gathers the conjugated bra at the
    positions of the indices j ^ x once, zero where j ^ x leaves the space;
    per ket its strings are one signed sum over conj(bra[j ^ x]) * ket[j].
    That sum is the same product whatever the kets, so a pair's values do
    not depend on what else is evaluated with it, to the last bit."""
    space = bra.space
    if any(v.space is not space for v in kets) or h.n_qubits != space.n_qubits:
        raise ValueError("states on different spaces or registers")
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
    idx = space.indices
    values = np.empty((len(kets), coeffs.size), dtype=complex)
    for x, ks, z, phase in groups:
        signs = _signs(idx, z)
        pos, inside = space.positions(idx ^ x)
        shifted = np.where(inside, np.conj(bra.data[pos]), 0)
        for b, ket in enumerate(kets):
            values[b, ks] = phase * (signs @ (shifted * ket.data))
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
