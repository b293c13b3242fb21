"""Finite-shot stochastic model of projected-matrix estimation.

Every matrix entry is a weighted sum of per-Pauli-term expectations
p_k = Re<psi_i|P_k|psi_j>; one ancilla-test shot is a +/-1 Bernoulli draw
with mean p_k, so N shots give Lambda ~ 2*Bin(N, (1+p)/2) - N and the entry
estimator Xi = sum_k c_k Lambda_k / N_k is unbiased with variance
sum_k c_k^2 (1 - p_k^2) / N_k.  A Gaussian mode reproduces the large-N
analytic treatment.  Importance sampling allocates per-term shots
proportionally to |c_k| at a fixed total of tau * n_terms; overlap entries
are a single identity term measured with s_multiplier-times more shots.

Stream contract: entry (i, j) of run r draws from
default_rng(SeedSequence((seed, r, i, j, tag))), tag 0 for H and 1 for S,
exactly as sample_entry would.  A sweep resets each stream for every (tau,
importance sampling) cell, so all cells draw the same random numbers and
results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .pauli import PauliSum
from .statevector import pauli_expectations
from .subspace import (
    DEFAULT_S_THRESHOLD,
    NOISY_S_THRESHOLD,
    SubspaceBasis,
    solve_gevp,
)

MODE_BINOMIAL = "binomial-exact"
MODE_GAUSSIAN = "gaussian"
_INT64_LIMIT = 2.0 ** 63   # shot counts are int64
_IMAG_TOL = 1e-10          # largest imaginary part a real exact value may carry


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
        if self.tau * self.s_multiplier >= _INT64_LIMIT:
            raise ValueError(f"tau * s_multiplier = {self.tau * self.s_multiplier:.3g} "
                             f"overlap shots exceed the int64 range")
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

    def variance(self) -> float:
        """Var(Xi) for the assigned shot counts (binomial and Gaussian agree)."""
        if self.shots is None:
            raise ValueError("shots not assigned")
        return float(np.sum(self.coeffs ** 2 * (1.0 - self.p_values ** 2) / self.shots))


def _real(values: np.ndarray, what: str) -> np.ndarray:
    """The noise model perturbs around real exact values (real integrals,
    real rotations), so imaginary parts past _IMAG_TOL are errors."""
    bad = np.abs(values.imag) > _IMAG_TOL
    if bad.any():
        raise ValueError(f"{what} has imaginary part {values.imag[bad][0]:.2e}")
    return values.real


def exact_decomposition(basis: SubspaceBasis, h: PauliSum, i: int, j: int
                        ) -> EntryEstimator:
    """Per-term true expectations for entry (i, j) of the projected H."""
    coeffs, values = pauli_expectations(basis.states[i].amplitudes[None], h,
                                        basis.states[j].amplitudes[None])
    return EntryEstimator(_real(coeffs, "Hamiltonian coefficient"),
                          _real(values[0, 0], "entry expectation"))


def _shot_array(counts) -> np.ndarray:
    counts = np.rint(counts)
    if np.any(counts >= _INT64_LIMIT):
        raise ValueError(f"shot count {counts.max():.3g} exceeds the int64 range")
    return counts.astype(np.int64)


def allocate_shots_is(coeffs, tau: float, n_term: int | None = None) -> np.ndarray:
    """Importance-sampled per-term shots: N_k ~ |c_k| at total tau * n_term.

    Terms with nonzero coefficient get at least one shot; a share past the
    int64 range is an error.
    """
    mags = np.abs(np.asarray(coeffs, dtype=float))
    total_mag = mags.sum()
    if total_mag == 0:
        raise ValueError("all coefficients are zero")
    if n_term is None:
        n_term = len(mags)
    shots = _shot_array(mags / total_mag * tau * n_term)
    shots[(mags > 0) & (shots < 1)] = 1
    return shots


def allocate_shots_uniform(coeffs, tau: float) -> np.ndarray:
    return _shot_array(np.full(len(np.asarray(coeffs)), float(tau)))


def _shot_counts(coeffs, cfg: ShotConfig, multiplier: float = 1.0) -> np.ndarray:
    """Per-term shots of an entry with these coefficients under cfg."""
    tau = cfg.tau * multiplier
    if cfg.importance_sampling:
        return allocate_shots_is(coeffs, tau)
    return allocate_shots_uniform(coeffs, tau)


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


@dataclass
class MatrixEstimators:
    """Stacked decompositions of one (basis, H) pair.

    The E = dim(dim+1)/2 upper-triangle entries are in np.triu_indices
    order; all values are clipped to [-1, 1].
    """

    dim: int
    coeffs: np.ndarray     # (T,) real c_k, shared by every H entry
    p_values: np.ndarray   # (E, T) Re<psi_i|P_k|psi_j>
    overlaps: np.ndarray   # (E,) Re<psi_i|psi_j>

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        return np.triu_indices(self.dim)

    @classmethod
    def build(cls, basis: SubspaceBasis, h: PauliSum) -> "MatrixEstimators":
        """Decompose every upper-triangle entry from the stacked basis states,
        embedded into the full register, where the Pauli strings act."""
        if not basis.states:
            raise ValueError("empty basis")
        amps = np.array([state.amplitudes for state in basis.states])
        d = len(amps)
        rows, cols = np.triu_indices(d)
        # one bra at a time: row i of the upper triangle is entries (i, i..d-1)
        p_values = np.empty((len(rows), len(h)))
        for i, start in enumerate(np.flatnonzero(cols == rows)):
            coeffs, values = pauli_expectations(amps[i:i + 1], h, amps[i:])
            p_values[start:start + d - i] = _real(values[0], "entry expectation")
        overlaps = np.array([np.vdot(amps[i], amps[j]) for i, j in zip(rows, cols)])
        return cls(d, _real(coeffs, "Hamiltonian coefficient"),
                   np.clip(p_values, -1.0, 1.0, out=p_values),
                   np.clip(_real(overlaps, "overlap"), -1.0, 1.0))

    def matrix(self, values: np.ndarray) -> np.ndarray:
        """The symmetric (dim, dim) matrix with these upper-triangle entries."""
        rows, cols = self.entries
        out = np.empty((self.dim, self.dim))
        out[rows, cols] = values
        out[cols, rows] = values
        return out

    def sample(self, cfgs: Sequence[ShotConfig], runs: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray]:
        """Estimates of every H and S entry, each (cells, runs, E).

        Each entry's stream for each run (see the module docstring) is
        seeded once and reset for every cell, so entry e of cell c and run
        r equals sample_entry on cell c's shots with a fresh stream.  Only
        one (cells, T) block of draws is held at a time.
        """
        if len({(cfg.seed, cfg.mode) for cfg in cfgs}) != 1:
            raise ValueError("the cells of one sweep share a seed and a mode")
        seed, binomial = cfgs[0].seed, cfgs[0].mode == MODE_BINOMIAL
        h_shots = np.array([_shot_counts(self.coeffs, cfg) for cfg in cfgs])
        s_shots = np.array([_shot_counts([1.0], cfg, cfg.s_multiplier)[0] for cfg in cfgs])
        rows, cols = self.entries
        h_out = np.empty((len(cfgs), len(runs), len(rows)))
        s_out = np.empty_like(h_out)
        bitgen = np.random.PCG64()
        rng = np.random.Generator(bitgen)
        draw = rng.binomial if binomial else rng.normal
        for e, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            # an overlap is the single identity term, so its draws are scalars
            for tag, p, shots, out in ((0, self.p_values[e], h_shots, h_out),
                                       (1, self.overlaps[e], s_shots, s_out)):
                if binomial:
                    args = [(n, (1.0 + p) / 2.0) for n in shots]
                else:
                    args = list(zip(shots * p, np.sqrt(shots * (1.0 - p * p))))
                draws = np.empty(shots.shape, dtype=np.int64 if binomial else float)
                for r, run in enumerate(runs):
                    state = np.random.PCG64(
                        np.random.SeedSequence((seed, run, i, j, tag))).state
                    for c, cell_args in enumerate(args):
                        bitgen.state = state
                        draws[c] = draw(*cell_args)
                    lam = 2.0 * draws - shots if binomial else draws
                    out[:, r, e] = (np.sum(self.coeffs * lam / shots, axis=-1)
                                    if tag == 0 else lam / shots)
        return h_out, s_out


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


def mc_sweep(h_mat: np.ndarray, s_mat: np.ndarray, estimators: MatrixEstimators,
             cfgs: Sequence[ShotConfig], runs: int = 100,
             s_threshold: float = NOISY_S_THRESHOLD) -> list[McSummary]:
    """Repeat perturb-and-solve for every shot cell; report
    |eps0(noisy) - eps0(exact)| statistics per cell.

    All cells sample from one set of streams (MatrixEstimators.sample), then
    each (cell, run) pair is one GEVP.  The 95% confidence band is the
    empirical 2.5/97.5 percentile range.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs")
    exact = solve_gevp(h_mat, s_mat, DEFAULT_S_THRESHOLD).ground_energy
    h_vals, s_vals = estimators.sample(cfgs, range(runs))
    summaries = []
    for h_cell, s_cell in zip(h_vals, s_vals):
        errors = np.zeros(runs)
        kept_dims = []
        for r, (hv, sv) in enumerate(zip(h_cell, s_cell)):
            res = solve_gevp(estimators.matrix(hv), estimators.matrix(sv), s_threshold)
            errors[r] = abs(res.ground_energy - exact)
            kept_dims.append(res.kept_dim)
        summaries.append(McSummary(
            runs=runs, exact_epsilon0=exact,
            mean_error=float(errors.mean()),
            median_error=float(np.median(errors)),
            ci_low=float(np.percentile(errors, 2.5)),
            ci_high=float(np.percentile(errors, 97.5)),
            errors=errors, kept_dims=kept_dims))
    return summaries


def mc_experiment(h_mat: np.ndarray, s_mat: np.ndarray, basis: SubspaceBasis,
                  h: PauliSum, cfg: ShotConfig, runs: int = 100,
                  s_threshold: float = NOISY_S_THRESHOLD) -> McSummary:
    """mc_sweep over the single cell cfg."""
    return mc_sweep(h_mat, s_mat, MatrixEstimators.build(basis, h), [cfg], runs,
                    s_threshold)[0]


def hf_filter(value: float, threshold: float = 0.2) -> int:
    """Snap a noisy reference-state Pauli expectation to {-1, 0, +1}."""
    if value > threshold:
        return 1
    if value < -threshold:
        return -1
    return 0
