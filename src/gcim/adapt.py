"""Adaptive outer loops over the generator pool.

Five variants share the machinery here:

* adapt-gcim          -- optimization-free subspace growth; operators are
                         ranked by the commutator gradient at a surrogate
                         product state with fixed rotation angles, and two
                         generating functions join the basis per iteration.
* adapt-vqe           -- reference adaptive VQE (BFGS re-optimization of all
                         parameters each iteration).
* adapt-vqe-gcim      -- adaptive VQE with a generalized-eigenvalue solve over
                         the accumulated rotations after every iteration.
* adapt-vqe-gcim-1    -- adaptive VQE followed by a single eigenvalue solve
                         over all selected rotations plus the final ansatz.
* adapt-gcim-mn       -- adapt-gcim with at most n optimizer rounds every
                         m-th iteration.

run_algorithm runs the variant that AdaptConfig.algorithm names.  The three
adapt-vqe variants differ only in what they solve over the ADAPT-VQE
trajectory, so one VqeLoop serves all three: adapt-vqe's trace plus the
ansatz state after each iteration.  adapt-vqe returns a copy of that trace;
the other two fill in the subspace fields of their copies.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .pauli import PauliSum
from .pool import PoolOperator
from .statevector import (
    ExactSpectrum,
    StateVector,
    apply_generators,
    apply_paulisum,
    exp_apply,
)
from .subspace import (
    DEFAULT_S_THRESHOLD,
    BasisRecipe,
    GevpResult,
    SubspaceBasis,
    build_matrices,
    combine,
    overlap_deficit,
    prepare_state,
    reconstruct_state,
    solve_gevp,
)

ADAPT_GCIM = "adapt-gcim"
ADAPT_VQE = "adapt-vqe"
ADAPT_VQE_GCIM = "adapt-vqe-gcim"
ADAPT_VQE_GCIM_1 = "adapt-vqe-gcim-1"
ADAPT_GCIM_MN = "adapt-gcim-mn"

ALGORITHMS = (ADAPT_GCIM, ADAPT_VQE, ADAPT_VQE_GCIM, ADAPT_VQE_GCIM_1, ADAPT_GCIM_MN)
VQE_FAMILY = (ADAPT_VQE, ADAPT_VQE_GCIM, ADAPT_VQE_GCIM_1)

MONOTONE_SLACK = 1e-10


@dataclass
class AdaptConfig:
    """Knobs shared by all variants; m and n only matter for adapt-gcim-mn."""

    algorithm: str = ADAPT_GCIM
    theta_init: float = math.pi / 4
    gcim_tol: float = 1e-6          # hartree, lowest-eigenvalue stability
    vqe_grad_tol: float = 1e-4      # sum of gradient magnitudes
    t_usr: int = 10                 # user cap on consecutive stable iterations
    max_iterations: int = 200
    s_threshold: float = DEFAULT_S_THRESHOLD
    m: int = 5
    n: int = 2

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not math.isfinite(self.theta_init):
            raise ValueError("theta_init must be finite")
        for name in ("gcim_tol", "vqe_grad_tol", "s_threshold"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.t_usr < 1 or self.max_iterations < 1:
            raise ValueError("iteration counts must be positive")
        if self.m < 1 or self.n < 0:
            raise ValueError("need m >= 1 and n >= 0")
        if self.algorithm == ADAPT_GCIM_MN and self.n < 1:
            raise ValueError("the (m, n) variant needs n >= 1")


@dataclass
class IterationRecord:
    iteration: int
    selected_index: int | None
    selected_label: str | None
    gradients: list[float]
    gradient_max: float
    gradient_sum: float
    epsilon0: float | None
    vqe_energy: float | None
    subspace_dim: int
    kept_dim: int | None
    opt_rounds: int
    product_recipe: list[tuple[int, float]]
    eigenvalues: list[float] | None = None  # subspace spectrum, kept out of trace.jsonl

    @property
    def energy(self) -> float | None:
        """The iteration's reported energy: epsilon0, else the VQE energy."""
        return self.epsilon0 if self.epsilon0 is not None else self.vqe_energy


@dataclass
class AdaptTrace:
    algorithm: str
    records: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    final_energy: float | None = None
    final_vqe_energy: float | None = None
    eigenvalues: list[float] = field(default_factory=list)
    basis: SubspaceBasis | None = None
    result: GevpResult | None = None
    final_state: StateVector | None = None
    time_gradients: float = 0.0
    time_energy: float = 0.0
    exact_energy: float | None = None
    oracle_sector: tuple[int, int] | None = None
    energy_error: float | None = None
    overlap_deficit_value: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def total_opt_rounds(self) -> int:
        return sum(r.opt_rounds for r in self.records)

    def epsilon0_series(self) -> list[float]:
        return [r.epsilon0 for r in self.records if r.epsilon0 is not None]

    def attach_subspace(self, result: GevpResult, basis: SubspaceBasis) -> None:
        """Final energy, spectrum and ground state from the last subspace solve."""
        self.result, self.basis = result, basis
        self.final_energy = result.ground_energy
        self.eigenvalues = [float(e) for e in result.eigenvalues]
        self.final_state = reconstruct_state(result, basis, 0)

    def attach_exact(self, spectrum: ExactSpectrum) -> None:
        """Fill error and overlap fields from an exact-diagonalization oracle."""
        self.exact_energy = float(spectrum.eigenvalues[0])
        self.oracle_sector = spectrum.sector
        if self.final_energy is not None:
            self.energy_error = float(self.final_energy - self.exact_energy)
        if self.final_state is not None:
            self.overlap_deficit_value = overlap_deficit(self.final_state,
                                                         spectrum.ground_state)


def pool_gradients(state: StateVector, h: PauliSum,
                   pool: list[PoolOperator]) -> np.ndarray:
    """<state|[H, A_l]|state> = 2 Re <H state|A_l state> for every pool
    element (real by construction).

    H|state> is applied once, every A_l|state> comes from one stacked
    product (apply_generators), and the gradients are 2 Re vecdot(H|state>,
    products), one BLAS dot per row: StateVector.inner's, to the last bit.
    """
    w = apply_paulisum(h, state)
    products = apply_generators([op.qubit for op in pool], state)
    return 2.0 * np.vecdot(w.data, products).real


def select_operator(surrogate: StateVector, h: PauliSum, pool: list[PoolOperator],
                    excluded: set[int] | None = None) -> tuple[int, np.ndarray]:
    """Index of the largest-|gradient| candidate; ties go to the lowest index.

    The full gradient vector (including excluded entries) is returned for
    trace records.
    """
    excluded = excluded or set()
    candidates = [i for i in range(len(pool)) if i not in excluded]
    if not candidates:
        raise ValueError("empty candidate set: every pool operator is excluded")
    grads = pool_gradients(surrogate, h, pool)
    return candidates[_first_largest(np.abs(grads[candidates]))], grads


def _screen_fields(grads: np.ndarray) -> dict:
    """The IterationRecord fields of one pool screen."""
    mags = np.abs(grads)
    return {"gradients": [float(g) for g in grads],
            "gradient_max": float(np.max(mags)), "gradient_sum": float(np.sum(mags))}


def _first_largest(mags: np.ndarray) -> int:
    """Index of the first entry within rounding (1e-12 relative) of the max.

    Symmetric systems give pool operators exactly equal gradients, and their
    last bits depend on summation order; treating them as ties keeps the
    lowest-index rule independent of how the operators are applied.
    """
    top = mags.max()
    return int(np.argmax(mags >= top - 1e-12 * max(1.0, top)))


# ---------------------------------------------------------------------------
# product-ansatz energy and its analytic gradient


def ansatz_energy_gradient(h: PauliSum, ops: list[PoolOperator], thetas: np.ndarray,
                           reference: StateVector) -> tuple[float, np.ndarray]:
    """E(theta) = <ref|prod G† H prod G|ref> and dE/dtheta (reverse mode).

    With psi_s the state after the first s rotations and w = H psi, dE/dtheta_s
    is 2 Re <w| G_last ... G_{s+1} A_s |psi_{s+1}>; w is pulled back through
    one rotation per step instead of re-preparing each partial product.
    """
    states = [reference]
    for op, th in zip(ops, thetas):
        states.append(exp_apply(op.qubit, float(th), states[-1]))
    psi = states[-1]
    w = apply_paulisum(h, psi)
    energy = psi.inner(w).real
    vals = np.zeros(len(ops), dtype=complex)
    b = w
    for s in reversed(range(len(ops))):
        vals[s] = b.inner(apply_paulisum(ops[s].qubit, states[s + 1]))
        if s:
            b = exp_apply(ops[s].qubit, -float(thetas[s]), b)
    return float(energy), 2.0 * vals.real


def vqe_minimize(h: PauliSum, pool: list[PoolOperator], recipe: BasisRecipe,
                 reference: StateVector, theta0: np.ndarray | None = None,
                 budget: int = 200) -> tuple[np.ndarray, float, int]:
    """BFGS minimization of the product-ansatz energy with analytic gradients.

    Returns (theta*, E(theta*), optimizer rounds).  Budget exhaustion is not
    an error; the best iterate found is returned.
    """
    if len(recipe) == 0:
        raise ValueError("empty recipe")
    ops = [pool[i] for i in recipe.pool_indices()]
    if theta0 is None:
        theta0 = np.array(recipe.thetas())
    theta0 = np.asarray(theta0, dtype=float)
    res = minimize(lambda th: ansatz_energy_gradient(h, ops, th, reference),
                   theta0, jac=True, method="BFGS",
                   options={"gtol": 1e-8, "maxiter": budget})
    return np.asarray(res.x, dtype=float), float(res.fun), int(res.nit)


# ---------------------------------------------------------------------------
# GCIM family


def _gcim_termination_window(pool_size: int, n_selected: int, t_usr: int) -> int:
    t_auto = math.ceil(0.2 * (pool_size - n_selected))
    return min(t_auto, t_usr)


def _run_gcim_family(h: PauliSum, pool: list[PoolOperator], reference: StateVector,
                     config: AdaptConfig) -> AdaptTrace:
    """adapt-gcim, or adapt-gcim-mn with config.n optimizer rounds every
    config.m-th iteration."""
    trace = AdaptTrace(algorithm=config.algorithm)
    basis = SubspaceBasis(reference=reference, pool=pool)
    product = BasisRecipe()
    surrogate = reference
    selected: set[int] = set()
    eps_prev: float | None = None
    stable = 0
    result: GevpResult | None = None

    for k in range(1, config.max_iterations + 1):
        tick = time.perf_counter()
        sel, grads = select_operator(surrogate, h, pool, selected)
        trace.time_gradients += time.perf_counter() - tick
        selected.add(sel)
        product = product.extended(sel, config.theta_init)

        tick = time.perf_counter()
        opt_rounds = 0
        if config.algorithm == ADAPT_GCIM_MN and k % config.m == 0:
            # on optimization iterations the fresh parameter starts at 0 (the
            # quasi-Newton convention); plain iterations keep theta_init
            theta0 = np.array(product.thetas())
            theta0[-1] = 0.0
            thetas, _, opt_rounds = vqe_minimize(
                h, pool, product, reference, theta0=theta0, budget=config.n)
            product = product.with_thetas(thetas)
            surrogate = prepare_state(product, pool, reference)
        else:
            surrogate = exp_apply(pool[sel].qubit, product.steps[-1][1], surrogate)

        single = BasisRecipe((product.steps[-1],))
        new_recipes = [BasisRecipe(), single] if k == 1 else [single, product]
        for recipe in new_recipes:
            # the surrogate is the product recipe's state, built by the same
            # exp_apply calls in the same order as prepare_state would make
            basis.append(recipe, state=surrogate if recipe == product else None)

        result = solve_gevp(*build_matrices(basis, h), config.s_threshold)
        eps0 = result.ground_energy
        trace.time_energy += time.perf_counter() - tick

        if eps_prev is not None and eps0 > eps_prev + MONOTONE_SLACK:
            raise RuntimeError(
                f"lowest eigenvalue rose by {eps0 - eps_prev:.3e} at iteration {k}")

        trace.records.append(IterationRecord(
            iteration=k, selected_index=sel, selected_label=pool[sel].label,
            **_screen_fields(grads), epsilon0=eps0, vqe_energy=None,
            subspace_dim=len(basis), kept_dim=result.kept_dim,
            opt_rounds=opt_rounds,
            product_recipe=list(product.steps),
            eigenvalues=[float(e) for e in result.eigenvalues]))

        if eps_prev is not None and abs(eps0 - eps_prev) < config.gcim_tol:
            stable += 1
        else:
            stable = 0
        eps_prev = eps0
        window = _gcim_termination_window(len(pool), len(selected), config.t_usr)
        if stable >= window:
            trace.converged = True
            trace.reason = "pool_exhausted" if len(selected) == len(pool) else "delta_eps"
            break
    else:
        trace.reason = "max_iterations"

    if result is not None:
        trace.attach_subspace(result, basis)
    return trace


# ---------------------------------------------------------------------------
# VQE family


@dataclass
class VqeLoop:
    """The ADAPT-VQE trajectory of one system under one (max_iterations,
    vqe_grad_tol): adapt-vqe's trace and the ansatz state after each of its
    iterations.  Every VQE-family variant fills in a copy of the trace."""

    h: PauliSum
    pool: list[PoolOperator]
    reference: StateVector
    max_iterations: int
    vqe_grad_tol: float
    trace: AdaptTrace
    states: list[StateVector] = field(default_factory=list)


def vqe_loop(h: PauliSum, pool: list[PoolOperator], reference: StateVector,
             config: AdaptConfig) -> VqeLoop:
    """Grow the ansatz by the largest-gradient operator and re-optimize all
    its parameters by BFGS until the gradient sum drops below
    config.vqe_grad_tol or config.max_iterations have run."""
    trace = AdaptTrace(algorithm=ADAPT_VQE)
    loop = VqeLoop(h, pool, reference, config.max_iterations, config.vqe_grad_tol, trace)
    recipe = BasisRecipe()
    state = reference
    energy = float(apply_paulisum(h, reference).inner(reference).real)
    for k in range(1, config.max_iterations + 1):
        tick = time.perf_counter()
        sel, grads = select_operator(state, h, pool)
        trace.time_gradients += time.perf_counter() - tick
        if np.sum(np.abs(grads)) < config.vqe_grad_tol:
            trace.converged = True
            trace.reason = "gradient_norm"
            break

        tick = time.perf_counter()
        recipe = recipe.extended(sel, 0.0)
        thetas, energy, rounds = vqe_minimize(h, pool, recipe, reference)
        recipe = recipe.with_thetas(thetas)
        state = prepare_state(recipe, pool, reference)
        trace.time_energy += time.perf_counter() - tick
        trace.records.append(IterationRecord(
            iteration=k, selected_index=sel, selected_label=pool[sel].label,
            **_screen_fields(grads), epsilon0=None, vqe_energy=energy,
            subspace_dim=len(recipe), kept_dim=None, opt_rounds=rounds,
            product_recipe=list(recipe.steps)))
        loop.states.append(state)
    else:
        trace.reason = "max_iterations"
    trace.final_energy = trace.final_vqe_energy = energy
    trace.final_state = state
    return loop


def _run_vqe_family(loop: VqeLoop, config: AdaptConfig) -> AdaptTrace:
    """adapt-vqe is a copy of the loop's trace; adapt-vqe-gcim fills in its
    records from a subspace solve after every iteration, adapt-vqe-gcim-1
    adds one solve at the end over one generating function per rotation of
    the final ansatz plus the ansatz itself."""
    # the copy shares nothing mutable with the loop; the final state is
    # immutable and stays shared, since fast paths test its space's identity
    trace = copy.deepcopy(loop.trace, {id(loop.trace.final_state): loop.trace.final_state})
    trace.algorithm = config.algorithm
    basis = SubspaceBasis(reference=loop.reference, pool=loop.pool)
    result: GevpResult | None = None

    if config.algorithm == ADAPT_VQE_GCIM:
        for rec, state in zip(trace.records, loop.states):
            tick = time.perf_counter()
            basis.append(BasisRecipe((rec.product_recipe[-1],)))
            basis.append(BasisRecipe(tuple(rec.product_recipe)), state=state)
            result = solve_gevp(*build_matrices(basis, loop.h), config.s_threshold)
            trace.time_energy += time.perf_counter() - tick
            if result.ground_energy > rec.vqe_energy + MONOTONE_SLACK:
                raise RuntimeError(
                    f"{config.algorithm}: subspace eigenvalue {result.ground_energy} "
                    f"exceeds the variational bound {rec.vqe_energy} at iteration "
                    f"{rec.iteration}")
            rec.epsilon0, rec.kept_dim = result.ground_energy, result.kept_dim
            rec.subspace_dim = len(basis)
            rec.eigenvalues = [float(e) for e in result.eigenvalues]
    elif config.algorithm == ADAPT_VQE_GCIM_1 and trace.records:
        tick = time.perf_counter()
        steps = trace.records[-1].product_recipe
        for step in steps:
            basis.append(BasisRecipe((step,)))
        basis.append(BasisRecipe(tuple(steps)), state=loop.states[-1])
        result = solve_gevp(*build_matrices(basis, loop.h), config.s_threshold)
        trace.time_energy += time.perf_counter() - tick
        if result.ground_energy > trace.final_vqe_energy + MONOTONE_SLACK:
            raise RuntimeError(
                f"{config.algorithm}: one-shot eigenvalue {result.ground_energy} "
                f"exceeds the variational bound {trace.final_vqe_energy} at iteration "
                f"{trace.iterations}")
    if result is not None:
        trace.attach_subspace(result, basis)
    return trace


def run_algorithm(h: PauliSum, pool: list[PoolOperator], reference: StateVector,
                  config: AdaptConfig, loop: VqeLoop | None = None) -> AdaptTrace:
    """Run the variant that config.algorithm names.

    A VQE-family variant reads `loop`, the system's ADAPT-VQE trajectory,
    and runs vqe_loop itself when none is given; one loop serves all three
    variants.  The GCIM family ignores `loop`.
    """
    if config.algorithm not in VQE_FAMILY:
        return _run_gcim_family(h, pool, reference, config)
    if loop is None:
        loop = vqe_loop(h, pool, reference, config)
    elif not (loop.h is h and loop.pool is pool and loop.reference is reference):
        raise ValueError(f"{config.algorithm}: the ADAPT-VQE loop was built for "
                         "another system")
    elif (loop.max_iterations, loop.vqe_grad_tol) != (config.max_iterations,
                                                      config.vqe_grad_tol):
        raise ValueError(
            f"{config.algorithm}: the ADAPT-VQE loop was built under max_iterations "
            f"{loop.max_iterations}, vqe_grad_tol {loop.vqe_grad_tol}; the config "
            f"asks for {config.max_iterations}, {config.vqe_grad_tol}")
    return _run_vqe_family(loop, config)


# ---------------------------------------------------------------------------
# eigenvalue gradient (first-order perturbation of the Ritz vector)


def gcim_energy_gradient(h: PauliSum, pool: list[PoolOperator], basis: SubspaceBasis,
                         result: GevpResult, s: int, which: int = 0) -> float:
    """d eps_k / d theta_s for the rotation generated by pool operator s.

    States whose recipe contains operator s vary by the generator applied
    outermost, d|psi_j> = A_s|psi_j>, at fixed eigenvector f.  With the Ritz
    vector g = sum_j f_j |psi_j>, its Rayleigh quotient eps and
    d = A_s sum_{j varied} f_j |psi_j>: d eps = 2 Re(<d|Hg> - eps <d|g>) / <g|g>,
    Hg summed from the cached H|psi_j>.  (Where both sides vary, the overlap
    derivative <psi_i|(A + A†)|psi_j> is 0: A is anti-Hermitian.)
    """
    if not 0 <= which < result.kept_dim:
        raise IndexError("eigenvalue index out of range")
    varied = [j for j, r in enumerate(basis.recipes) if s in r.pool_indices()]
    if not varied:
        return 0.0
    build_matrices(basis, h)  # caches H|psi_j> in basis.pair
    f = result.eigenvectors[:, which]
    g = combine(f, basis.states)
    hg = combine(f, basis.pair.h_kets)
    d = apply_paulisum(pool[s].qubit,
                       combine(f[varied], [basis.states[j] for j in varied]))
    gg = g.inner(g).real
    eps = g.inner(hg).real / gg
    return float(2.0 * (d.inner(hg) - eps * d.inner(g)).real / gg)
