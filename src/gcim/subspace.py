"""Non-orthogonal subspaces of generating functions and the projected
generalized eigenvalue problem.

A basis vector is described by a recipe: an ordered list of
(pool index, theta) rotations applied to the reference determinant.  The
projected pair (H, S) grows one column per new state: column j of H and of
S is one vecdot of the stacked states 0..j with H|psi_j> and |psi_j>, the
same product whether the pair is built fresh or extended, and the lower
triangle is its conjugate mirror.  The pair is real when the states and
H|psi_j> are, and is solved in its own dtype by eigendecomposing S,
keeping eigenvalues above a threshold (canonical orthogonalization) and
diagonalizing the projected Hamiltonian in that subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliSum
from .pool import PoolOperator
from .statevector import StateVector, apply_paulisum, exp_apply

HARTREE_TO_EV = 27.211386245988

DEFAULT_S_THRESHOLD = 1e-13
NOISY_S_THRESHOLD = 1e-5


class EmptySubspaceError(RuntimeError):
    """All overlap eigenvalues fell below the truncation threshold."""


@dataclass(frozen=True)
class BasisRecipe:
    """Ordered (pool index, theta) rotations; steps[0] acts first."""

    steps: tuple[tuple[int, float], ...] = ()

    @classmethod
    def from_steps(cls, steps) -> "BasisRecipe":
        return cls(tuple((int(i), float(t)) for i, t in steps))

    def extended(self, pool_index: int, theta: float) -> "BasisRecipe":
        return BasisRecipe(self.steps + ((int(pool_index), float(theta)),))

    def with_thetas(self, thetas) -> "BasisRecipe":
        if len(thetas) != len(self.steps):
            raise ValueError("theta count mismatch")
        return BasisRecipe(tuple((i, float(t)) for (i, _), t in zip(self.steps, thetas)))

    def pool_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.steps)

    def thetas(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def prepare_state(recipe: BasisRecipe, pool: list[PoolOperator],
                  reference: StateVector) -> StateVector:
    state = reference
    for idx, theta in recipe.steps:
        state = exp_apply(pool[idx].qubit, theta, state)
    return state


@dataclass
class ProjectedPair:
    """H|psi_j>, H and S over the leading states of a basis, for one h."""

    h: PauliSum
    states: list[StateVector]
    h_kets: list[StateVector]
    h_mat: np.ndarray
    s_mat: np.ndarray


@dataclass
class SubspaceBasis:
    """Recipes plus their cached statevectors.

    For a recipe-built basis the cached states regenerate exactly from
    (reference, pool, recipe); bases returned by orthogonalize_basis keep
    their source recipes for provenance only.
    build_matrices keeps its projected pair in `pair`.
    """

    reference: StateVector
    pool: list[PoolOperator]
    recipes: list[BasisRecipe] = field(default_factory=list)
    states: list[StateVector] = field(default_factory=list)
    pair: ProjectedPair | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __len__(self) -> int:
        return len(self.recipes)

    def append(self, recipe: BasisRecipe, state: StateVector | None = None) -> None:
        """Add one generating function.

        A caller that already holds the recipe's prepared state passes it as
        state, and it is stored instead of being rebuilt from the reference.
        """
        self.recipes.append(recipe)
        if state is None:
            state = prepare_state(recipe, self.pool, self.reference)
        self.states.append(state)

    def regenerate(self) -> None:
        self.states = [prepare_state(r, self.pool, self.reference) for r in self.recipes]

    def leading(self, d: int) -> "SubspaceBasis":
        """The first d recipes and states, holding the leading block of the
        cached pair, so build_matrices on it applies no H again."""
        basis = SubspaceBasis(self.reference, self.pool, self.recipes[:d], self.states[:d])
        if (pair := self.pair) is not None:
            basis.pair = ProjectedPair(pair.h, pair.states[:d], pair.h_kets[:d],
                                       pair.h_mat[:d, :d], pair.s_mat[:d, :d])
        return basis


def build_matrices(basis: SubspaceBasis, h: PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Projected H_ij = <psi_i|H|psi_j> and overlap S_ij = <psi_i|psi_j>.

    The pair is cached on the basis and extended by the states appended
    since the last call; a different h, or a state list that no longer
    starts with the cached states, rebuilds it.  Column j above the
    diagonal is one vecdot of the states 0..j, stacked, with H|psi_j> and
    |psi_j>, a BLAS dot per entry, so an extension computes exactly what a
    fresh build does, and every entry is StateVector.inner's value to the
    last bit.  The diagonal keeps its real part and the lower triangle is
    the conjugate mirror, so both matrices are exactly Hermitian.  Both are
    in the common dtype of the states and H|psi_j>, real for a real problem.
    The returned arrays are read-only.
    """
    states = basis.states
    if not states:
        raise ValueError("empty basis")
    pair = basis.pair
    if (pair is None or pair.h is not h or len(pair.states) > len(states)
            or any(a is not b for a, b in zip(pair.states, states))):
        empty = np.zeros((0, 0))
        pair = ProjectedPair(h, [], [], empty, empty)
    m0, m = len(pair.states), len(states)
    if m0 < m:
        h_kets = pair.h_kets + [apply_paulisum(h, psi) for psi in states[m0:]]
        kets = np.array([psi.data for psi in states])
        dtype = np.result_type(kets, *(w.data for w in h_kets))
        h_mat = np.zeros((m, m), dtype=dtype)
        s_mat = np.zeros((m, m), dtype=dtype)
        h_mat[:m0, :m0] = pair.h_mat
        s_mat[:m0, :m0] = pair.s_mat
        for j in range(m0, m):
            for mat, ket in ((h_mat, h_kets[j].data), (s_mat, kets[j])):
                col = np.vecdot(kets[:j + 1], ket)
                mat[:j, j] = col[:j]
                mat[j, :j] = col[:j].conj()
                mat[j, j] = col[j].real
        h_mat.setflags(write=False)
        s_mat.setflags(write=False)
        pair = ProjectedPair(h, list(states), h_kets, h_mat, s_mat)
    basis.pair = pair
    return pair.h_mat, pair.s_mat


@dataclass(frozen=True)
class GevpResult:
    """Solution of H f = eps S f after overlap truncation.

    eigenvalues ascend; eigenvector columns live in the original basis
    coordinates and satisfy f† S f = 1.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kept_dim: int
    dropped_s_eigenvalues: np.ndarray
    threshold: float

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def _tie_break(eigenvalues: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order exact ties by the original-basis index of the dominant weight."""
    order = list(range(len(eigenvalues)))
    i = 0
    while i < len(order):
        j = i + 1
        scale = max(1.0, abs(eigenvalues[i]))
        while j < len(order) and abs(eigenvalues[order[j]] - eigenvalues[order[i]]) <= 1e-12 * scale:
            j += 1
        if j - i > 1:
            order[i:j] = sorted(order[i:j],
                                key=lambda c: int(np.argmax(np.abs(vectors[:, c]))))
        i = j
    order = np.array(order)
    return eigenvalues[order], vectors[:, order]


def solve_gevp(h_mat: np.ndarray, s_mat: np.ndarray,
               s_threshold: float = DEFAULT_S_THRESHOLD) -> GevpResult:
    """Solve the projected pair with overlap-eigenvalue truncation.

    S = U D U†; directions with D_ii <= s_threshold are dropped, the
    problem is solved in the kept eigenspace and eigenvectors are
    back-transformed to the original coordinates.  The solve runs in the
    pair's common dtype, so a real pair has real eigenvectors.
    """
    h_mat, s_mat = np.asarray(h_mat), np.asarray(s_mat)
    if h_mat.shape != s_mat.shape or h_mat.shape[0] != h_mat.shape[1]:
        raise ValueError("matrix shape mismatch")
    h_mat = 0.5 * (h_mat + h_mat.conj().T)
    s_mat = 0.5 * (s_mat + s_mat.conj().T)
    d, u = np.linalg.eigh(s_mat)
    keep = d > s_threshold
    if not np.any(keep):
        raise EmptySubspaceError(
            f"no overlap eigenvalue above threshold {s_threshold:g}")
    dropped = d[~keep]
    x = u[:, keep] / np.sqrt(d[keep])  # canonical orthogonalization
    h_ortho = x.conj().T @ h_mat @ x
    h_ortho = 0.5 * (h_ortho + h_ortho.conj().T)
    eigenvalues, y = np.linalg.eigh(h_ortho)
    f = x @ y
    eigenvalues, f = _tie_break(eigenvalues, f)
    return GevpResult(eigenvalues=np.asarray(eigenvalues, dtype=float),
                      eigenvectors=f,
                      kept_dim=int(np.sum(keep)),
                      dropped_s_eigenvalues=np.sort(dropped)[::-1],
                      threshold=float(s_threshold))


def reconstruct_state(result: GevpResult, basis: SubspaceBasis,
                      which: int = 0) -> StateVector:
    """Normalized eigenstate sum_j f_j |psi_j> for eigenvalue index `which`."""
    if not 0 <= which < result.kept_dim:
        raise IndexError(f"eigenvalue index {which} outside kept range {result.kept_dim}")
    return combine(result.eigenvectors[:, which], basis.states).normalized()


def combine(coeffs, vectors: list[StateVector]) -> StateVector:
    """sum_j c_j |v_j>, accumulated in list order."""
    data = np.zeros_like(vectors[0].data)
    for c, v in zip(coeffs, vectors):
        data = data + c * v.data
    return StateVector(vectors[0].space, data)


def overlap_deficit(a: StateVector, b: StateVector) -> float:
    """1 - |<a|b>|^2 for normalized inputs; 0 means identical rays."""
    for v in (a, b):
        if abs(v.norm() - 1.0) > 1e-8:
            raise ValueError("overlap_deficit expects normalized states")
    val = 1.0 - abs(a.inner(b)) ** 2
    return float(min(1.0, max(0.0, val)))


def orthogonalize_basis(basis: SubspaceBasis) -> SubspaceBasis:
    """Modified Gram-Schmidt (with re-orthogonalization) over cached states.

    Vectors whose residual norm falls below 1e-10 are removed; the span is
    preserved.
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


def excitation_energies(result: GevpResult) -> list[float]:
    """(eps_k - eps_0) in eV for k >= 1."""
    if len(result.eigenvalues) < 2:
        raise ValueError("need at least two kept eigenvalues for excitation energies")
    e0 = result.eigenvalues[0]
    return [float((e - e0) * HARTREE_TO_EV) for e in result.eigenvalues[1:]]
