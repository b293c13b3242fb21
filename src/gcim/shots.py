"""Finite-shot stochastic model of projected-matrix estimation.

Every matrix entry is a weighted sum of per-Pauli-term expectations
p_k = Re<psi_i|P_k|psi_j>; one ancilla-test shot is a +/-1 Bernoulli draw
with mean p_k, so N shots give Lambda ~ 2*Bin(N, (1+p)/2) - N and the entry
estimator Xi = sum_k c_k Lambda_k / N_k is unbiased with variance
sum_k c_k^2 (1 - p_k^2) / N_k.  A Gaussian mode reproduces the large-N
analytic treatment.  Importance sampling allocates per-term shots
proportionally to |c_k| at a fixed total of tau * n_terms; overlap entries
are a single identity term measured with s_multiplier-times more shots.

Sampling streams are derived per (seed, run, entry), so results do not
depend on evaluation order and are reproducible under a fixed seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .pauli import PauliSum
from .statevector import pauli_decomposition
from .subspace import (
    DEFAULT_S_THRESHOLD,
    NOISY_S_THRESHOLD,
    SubspaceBasis,
    solve_gevp,
)

MODE_BINOMIAL = "binomial-exact"
MODE_GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class ShotConfig:
    tau: float = 1e6               # shots-per-term scale
    s_multiplier: float = 100.0    # extra factor for overlap entries
    mode: str = MODE_BINOMIAL
    importance_sampling: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.s_multiplier < 1:
            raise ValueError("s_multiplier must be >= 1")
        if self.mode not in (MODE_BINOMIAL, MODE_GAUSSIAN):
            raise ValueError(f"unknown sampling mode {self.mode!r}")


@dataclass
class EntryEstimator:
    """Real decomposition sum_k c_k p_k of one matrix entry plus shot counts."""

    coeffs: np.ndarray            # real c_k
    p_values: np.ndarray          # exact Re expectations, |p_k| <= 1
    shots: np.ndarray = field(default=None)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.p_values = np.clip(np.asarray(self.p_values, dtype=float), -1.0, 1.0)
        if self.coeffs.shape != self.p_values.shape:
            raise ValueError("coefficient/expectation length mismatch")
        if self.shots is not None:
            self.shots = np.asarray(self.shots, dtype=np.int64)

    @property
    def exact_value(self) -> float:
        return float(self.coeffs @ self.p_values)

    def variance(self) -> float:
        """Var(Xi) for the assigned shot counts (binomial and Gaussian agree)."""
        if self.shots is None:
            raise ValueError("shots not assigned")
        return float(np.sum(self.coeffs ** 2 * (1.0 - self.p_values ** 2) / self.shots))


def exact_decomposition(basis: SubspaceBasis, h: PauliSum, i: int, j: int,
                        imag_tol: float = 1e-10) -> EntryEstimator:
    """Per-term true expectations for entry (i, j) of the projected H.

    The noise model perturbs around these exact values.  Coefficients and
    entries must be real to imag_tol (real integrals, real rotations).
    """
    coeffs, ps = pauli_decomposition(basis.states[i], h, basis.states[j])
    bad = np.abs(coeffs.imag) > imag_tol
    if bad.any():
        raise ValueError(f"complex Hamiltonian coefficient {coeffs[bad][0]} unsupported")
    bad = np.abs(ps.imag) > imag_tol
    if bad.any():
        raise ValueError(f"entry expectation has imaginary part {ps.imag[bad][0]:.2e}")
    return EntryEstimator(coeffs.real, ps.real)


def overlap_decomposition(basis: SubspaceBasis, i: int, j: int,
                          imag_tol: float = 1e-10) -> EntryEstimator:
    """Overlap entries are the single identity-term case of the model."""
    val = basis.states[i].inner(basis.states[j])
    if abs(val.imag) > imag_tol:
        raise ValueError(f"overlap has imaginary part {val.imag:.2e}")
    return EntryEstimator(np.array([1.0]), np.array([val.real]))


def allocate_shots_is(coeffs, tau: float, n_term: int | None = None) -> np.ndarray:
    """Importance-sampled per-term shots: N_k ~ |c_k| at total tau * n_term.

    Terms with nonzero coefficient get at least one shot.
    """
    mags = np.abs(np.asarray(coeffs, dtype=float))
    total_mag = mags.sum()
    if total_mag == 0:
        raise ValueError("all coefficients are zero")
    if n_term is None:
        n_term = len(mags)
    shots = np.rint(mags / total_mag * tau * n_term).astype(np.int64)
    shots[(mags > 0) & (shots < 1)] = 1
    return shots


def allocate_shots_uniform(coeffs, tau: float) -> np.ndarray:
    return np.full(len(np.asarray(coeffs)), int(round(tau)), dtype=np.int64)


def chebyshev_shots(coeffs, a: float, eta: float, p_bound: float = 0.0) -> int:
    """Smallest uniform shot count with Var(Xi)/a^2 <= eta.

    Uses the worst-case variance over |p_k| >= p_bound (p_bound = 0 is the
    global worst case).
    """
    if a <= 0 or not 0 < eta < 1 + 1e-12:
        raise ValueError("need a > 0 and 0 < eta <= 1")
    c2 = float(np.sum(np.asarray(coeffs, dtype=float) ** 2))
    return int(np.ceil(c2 * (1.0 - p_bound ** 2) / (a * a * eta)))


def sample_entry(est: EntryEstimator, cfg: ShotConfig, rng: np.random.Generator) -> float:
    """One draw of the entry estimator Xi under the configured mode."""
    if est.shots is None:
        raise ValueError("shots not assigned")
    n = est.shots
    p = est.p_values
    if cfg.mode == MODE_BINOMIAL:
        b = rng.binomial(n, (1.0 + p) / 2.0)
        lam = 2.0 * b - n
    else:
        lam = rng.normal(n * p, np.sqrt(n * (1.0 - p ** 2)))
    return float(np.sum(est.coeffs * lam / n))


def _assign_shots(est: EntryEstimator, cfg: ShotConfig,
                  multiplier: float = 1.0) -> EntryEstimator:
    tau = cfg.tau * multiplier
    if cfg.importance_sampling:
        shots = allocate_shots_is(est.coeffs, tau)
    else:
        shots = allocate_shots_uniform(est.coeffs, tau)
    out = copy.copy(est)  # shares the decomposition's arrays
    out.shots = shots
    return out


def _entry_rng(cfg: ShotConfig, run_index: int, i: int, j: int,
               tag: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((cfg.seed, run_index, i, j, tag)))


@dataclass
class MatrixEstimators:
    """Per-entry decompositions of one (basis, H) pair and their shot counts."""

    dim: int
    h_entries: dict[tuple[int, int], EntryEstimator]
    s_entries: dict[tuple[int, int], EntryEstimator]

    @classmethod
    def build(cls, basis: SubspaceBasis, h: PauliSum, cfg: ShotConfig | None = None
              ) -> "MatrixEstimators":
        """Decompose every upper-triangle entry; assign shots under cfg if given."""
        dim = len(basis)
        h_entries, s_entries = {}, {}
        for i in range(dim):
            for j in range(i, dim):
                h_entries[(i, j)] = exact_decomposition(basis, h, i, j)
                s_entries[(i, j)] = overlap_decomposition(basis, i, j)
        ests = cls(dim, h_entries, s_entries)
        return ests if cfg is None else ests.with_shots(cfg)

    def with_shots(self, cfg: ShotConfig) -> "MatrixEstimators":
        """The same decompositions with shots reassigned under cfg.

        Only the shot counts depend on tau, importance sampling and the
        overlap multiplier, so a sweep over those decomposes once.
        """
        return MatrixEstimators(
            self.dim,
            {key: _assign_shots(est, cfg) for key, est in self.h_entries.items()},
            {key: _assign_shots(est, cfg, multiplier=cfg.s_multiplier)
             for key, est in self.s_entries.items()})

    def sample(self, cfg: ShotConfig, run_index: int) -> tuple[np.ndarray, np.ndarray]:
        m = self.dim
        h_noisy = np.zeros((m, m))
        s_noisy = np.zeros((m, m))
        for (i, j), est in self.h_entries.items():
            v = sample_entry(est, cfg, _entry_rng(cfg, run_index, i, j, 0))
            h_noisy[i, j] = h_noisy[j, i] = v
        for (i, j), est in self.s_entries.items():
            v = sample_entry(est, cfg, _entry_rng(cfg, run_index, i, j, 1))
            s_noisy[i, j] = s_noisy[j, i] = v
        return h_noisy, s_noisy


def perturb_matrices(h_mat: np.ndarray, s_mat: np.ndarray, basis: SubspaceBasis,
                     h: PauliSum, cfg: ShotConfig, run_index: int = 0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Replace each independent upper-triangle entry by one finite-shot draw.

    Hermitian symmetry is restored by mirroring.  h_mat/s_mat are accepted
    for interface symmetry and cross-checked against the decompositions.
    """
    ests = MatrixEstimators.build(basis, h, cfg)
    for (i, j), est in ests.h_entries.items():
        if abs(est.exact_value - h_mat[i, j].real) > 1e-8:
            raise ValueError(f"H[{i},{j}] disagrees with its decomposition")
    return ests.sample(cfg, run_index)


@dataclass
class McSummary:
    """Monte Carlo error statistics of the lowest noisy eigenvalue."""

    runs: int
    exact_epsilon0: float
    mean_error: float
    median_error: float
    ci_low: float
    ci_high: float
    errors: np.ndarray
    kept_dims: list[int]


def mc_experiment(h_mat: np.ndarray, s_mat: np.ndarray, basis: SubspaceBasis,
                  h: PauliSum, cfg: ShotConfig, runs: int = 100,
                  s_threshold: float = NOISY_S_THRESHOLD,
                  estimators: MatrixEstimators | None = None) -> McSummary:
    """Repeat perturb-and-solve; report |eps0(noisy) - eps0(exact)| statistics.

    The 95% confidence band is the empirical 2.5/97.5 percentile range.
    A sweep over shot configurations passes the estimators of (basis, h),
    decomposed once; only their shots are assigned under cfg.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs")
    exact = solve_gevp(h_mat, s_mat, DEFAULT_S_THRESHOLD).ground_energy
    if estimators is None:
        estimators = MatrixEstimators.build(basis, h)
    ests = estimators.with_shots(cfg)
    errors = np.zeros(runs)
    kept_dims = []
    for r in range(runs):
        h_noisy, s_noisy = ests.sample(cfg, r)
        res = solve_gevp(h_noisy, s_noisy, s_threshold)
        errors[r] = abs(res.ground_energy - exact)
        kept_dims.append(res.kept_dim)
    return McSummary(
        runs=runs, exact_epsilon0=exact,
        mean_error=float(errors.mean()),
        median_error=float(np.median(errors)),
        ci_low=float(np.percentile(errors, 2.5)),
        ci_high=float(np.percentile(errors, 97.5)),
        errors=errors, kept_dims=kept_dims)


def hf_filter(value: float, threshold: float = 0.2) -> int:
    """Snap a noisy reference-state Pauli expectation to {-1, 0, +1}."""
    if value > threshold:
        return 1
    if value < -threshold:
        return -1
    return 0
