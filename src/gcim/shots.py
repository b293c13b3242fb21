"""Finite-shot stochastic model of projected-matrix estimation.

Every matrix entry is a weighted sum of per-Pauli-term expectations
p_k = Re<psi_i|P_k|psi_j>; one ancilla-test shot is a +/-1 Bernoulli draw
with mean p_k, so N shots give Lambda ~ 2*Bin(N, (1+p)/2) - N and the entry
estimator Xi = sum_k c_k Lambda_k / N_k is unbiased with variance
sum_k c_k^2 (1 - p_k^2) / N_k.  A Gaussian mode reproduces the large-N
analytic treatment.  Importance sampling allocates per-term shots
proportionally to |c_k| at a fixed total of tau * n_terms; overlap entries
are a single identity term measured with s_multiplier-times more shots.  The
p_k are evaluated on the basis states' own space (the reference's sector),
and the overlaps are read from the basis's projected S (build_matrices).
mc_sweep(basis, h, cells, runs) perturbs that same cached pair and measures
errors against its exact eps0; noisy solves truncate at NOISY_S_THRESHOLD.

Stream contract: in run r, Pauli term t draws from
default_rng(SeedSequence((seed, r, t))), terms in h's sorted order and
t = len(h) for the overlap.  The stream draws one value per upper-triangle
entry, in np.triu_indices order, in one call at the term's shot count.  A
sweep resets each stream for every (tau, importance sampling) cell, so all
cells draw the same random numbers and results do not depend on evaluation
order.  Streams stay one term long because a binomial draw's consumption of
random numbers depends on its shot count: cells part ways only from a
rejection to the end of one term's column.  Every p and overlap with
1 - |p| <= 2**-46 is stored as exactly +/-1; a binomial draw at q = (1+p)/2
in {0, 1} returns its mean and consumes a fixed count of random numbers, so
rounding in the last bits of p does not shift the rest of a stream.
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
    build_matrices,
    solve_gevp,
)

MODE_BINOMIAL = "binomial-exact"
MODE_GAUSSIAN = "gaussian"
_INT64_LIMIT = 2.0 ** 63   # shot counts are int64
_IMAG_TOL = 1e-10          # largest imaginary part a real exact value may carry
_UNIT_SNAP = 2.0 ** -46    # |p| within this of 1 (128 ulps) is stored as +/-1


@dataclass(frozen=True)
class ShotConfig:
    tau: float = 1e6               # shots-per-term scale
    s_multiplier: float = 100.0    # extra factor for overlap entries
    mode: str = MODE_BINOMIAL
    importance_sampling: bool = False
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails; an infinite field fails the int64 check
        if not self.tau >= 1:
            raise ValueError("tau must be >= 1")
        if not self.s_multiplier >= 1:
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
    p_values: np.ndarray          # exact Re expectations, stored by _unit_snap
    shots: np.ndarray = field(default=None)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        self.p_values = _unit_snap(np.array(self.p_values, dtype=float))
        if self.coeffs.shape != self.p_values.shape:
            raise ValueError("coefficient/expectation length mismatch")
        if self.shots is not None:
            self.shots = np.asarray(self.shots, dtype=np.int64)

    def variance(self) -> float:
        """Var(Xi) for the assigned shot counts (binomial and Gaussian agree)."""
        if self.shots is None:
            raise ValueError("shots not assigned")
        return float(np.sum(self.coeffs ** 2 * (1.0 - self.p_values ** 2) / self.shots))


def _unit_snap(values: np.ndarray) -> np.ndarray:
    """Clip to [-1, 1] in place; 1 - |p| <= 2**-46 becomes exactly +/-1."""
    np.clip(values, -1.0, 1.0, out=values)
    np.copysign(1.0, values, out=values, where=np.abs(values) >= 1.0 - _UNIT_SNAP)
    return values


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
    coeffs, values = pauli_expectations(basis.states[i], h, basis.states[j:j + 1])
    return EntryEstimator(_real(coeffs, "Hamiltonian coefficient"),
                          _real(values[0], "entry expectation"))


def _shot_array(counts) -> np.ndarray:
    counts = np.rint(counts)
    if np.any(counts >= _INT64_LIMIT):
        raise ValueError(f"shot count {counts.max():.3g} exceeds the int64 range")
    return counts.astype(np.int64)


def allocate_shots_is(coeffs, tau: float) -> np.ndarray:
    """Importance-sampled per-term shots: N_k ~ |c_k| at total tau * len(coeffs).

    Terms with nonzero coefficient get at least one shot; a share past the
    int64 range is an error.
    """
    mags = np.abs(np.asarray(coeffs, dtype=float))
    total_mag = mags.sum()
    if total_mag == 0:
        raise ValueError("all coefficients are zero")
    shots = _shot_array(mags / total_mag * tau * len(mags))
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
    order.  All values are stored by _unit_snap, in place.
    """

    dim: int
    coeffs: np.ndarray     # (T,) real c_k, shared by every H entry
    p_values: np.ndarray   # (E, T) Re<psi_i|P_k|psi_j>
    overlaps: np.ndarray   # (E,) Re<psi_i|psi_j>

    def __post_init__(self):
        for values in (self.p_values, self.overlaps):
            _unit_snap(values)

    @property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        return np.triu_indices(self.dim)

    @classmethod
    def build(cls, basis: SubspaceBasis, h: PauliSum) -> "MatrixEstimators":
        """Decompose every upper-triangle entry: p-values from the basis states
        on their own space, overlaps from the basis's cached projected pair."""
        _, s_mat = build_matrices(basis, h)
        d = len(s_mat)
        rows, cols = np.triu_indices(d)
        # one bra at a time: row i of the upper triangle is entries (i, i..d-1)
        p_values = np.empty((len(rows), len(h)))
        for i, start in enumerate(np.flatnonzero(cols == rows)):
            coeffs, values = pauli_expectations(basis.states[i], h, basis.states[i:])
            p_values[start:start + d - i] = _real(values, "entry expectation")
        return cls(d, _real(coeffs, "Hamiltonian coefficient"), p_values,
                   _real(s_mat[rows, cols], "overlap"))

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

        Term t of run r draws its column of E values from its own stream (see
        the module docstring), seeded once and reset for every cell, as
        lambda = 2 Bin(n, (1+p)/2) - n or Normal(n p, sqrt(n (1-p^2))) at the
        cell's shot count n.  An H entry adds c_t (lambda / n) in h's term
        order, one term at a time, so beside the output only one (run,
        term)'s (cells, E) draws are held; an S entry is lambda / n of term
        len(h).
        """
        if len({(cfg.seed, cfg.mode) for cfg in cfgs}) != 1:
            raise ValueError("the cells of one sweep share a seed and a mode")
        seed, binomial = cfgs[0].seed, cfgs[0].mode == MODE_BINOMIAL
        h_shots = np.array([_shot_counts(self.coeffs, cfg) for cfg in cfgs])
        s_shots = np.array([_shot_counts([1.0], cfg, cfg.s_multiplier)[0] for cfg in cfgs])
        h_out = np.zeros((len(cfgs), len(runs), len(self.overlaps)))
        s_out = np.zeros_like(h_out)
        bitgen = np.random.PCG64()
        rng = np.random.Generator(bitgen)
        # an overlap is the single identity term, with coefficient 1
        terms = [(self.coeffs[t], self.p_values[:, t], h_shots[:, t], h_out)
                 for t in range(len(self.coeffs))]
        terms.append((1.0, self.overlaps, s_shots, s_out))
        lam = np.empty((len(cfgs), len(self.overlaps)))   # one (run, term), every cell
        for t, (coeff, p, shots, out) in enumerate(terms):
            if binomial:
                draw, q = rng.binomial, (1.0 + p) / 2.0
                args = [(n, q) for n in shots.tolist()]
            else:
                draw, spread = rng.normal, 1.0 - p * p
                args = [(n * p, np.sqrt(n * spread)) for n in shots.tolist()]
            n = shots.astype(float)[:, None]
            for r, run in enumerate(runs):
                state = np.random.PCG64(np.random.SeedSequence((seed, run, t))).state
                for c, cell_args in enumerate(args):
                    bitgen.state = state
                    lam[c] = draw(*cell_args)
                if binomial:
                    lam *= 2.0
                    lam -= n
                lam /= n
                lam *= coeff
                out[:, r] += lam
        return h_out, s_out


@dataclass
class McSummary:
    """Monte Carlo error statistics of the lowest noisy eigenvalue."""

    mean_error: float
    median_error: float
    ci_low: float
    ci_high: float
    errors: np.ndarray
    kept_dims: list[int]
    exact_kept_dim: int    # directions the exact solve keeps
    runs_kept_more: int    # runs whose solve keeps a direction it drops


def mc_sweep(basis: SubspaceBasis, h: PauliSum, cells: Sequence[ShotConfig],
             runs: int) -> list[McSummary]:
    """Repeat perturb-and-solve for every shot cell; report
    |eps0(noisy) - eps0(exact)| statistics per cell.

    The exact pair is the basis's cached pair (build_matrices); all cells
    sample one set of streams (MatrixEstimators.sample), and each (cell, run)
    is one GEVP.  The 95% band is the empirical 2.5/97.5 percentile range.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs")
    if not cells:
        raise ValueError("no shot cells to sweep")
    if len(cells) * runs * (len(basis) * (len(basis) + 1) // 2) >= _INT64_LIMIT:
        raise ValueError(f"runs = {runs}: the (cells, runs, entries) sample arrays "
                         "exceed the int64 range")
    exact = solve_gevp(*build_matrices(basis, h), DEFAULT_S_THRESHOLD)
    estimators = MatrixEstimators.build(basis, h)
    h_vals, s_vals = estimators.sample(cells, range(runs))
    summaries = []
    for h_cell, s_cell in zip(h_vals, s_vals):
        solves = (solve_gevp(estimators.matrix(hv), estimators.matrix(sv), NOISY_S_THRESHOLD)
                  for hv, sv in zip(h_cell, s_cell))
        energies, kept_dims = zip(*((res.ground_energy, res.kept_dim) for res in solves))
        errors = np.abs(np.array(energies) - exact.ground_energy)
        summaries.append(McSummary(
            mean_error=float(errors.mean()),
            median_error=float(np.median(errors)),
            ci_low=float(np.percentile(errors, 2.5)),
            ci_high=float(np.percentile(errors, 97.5)),
            errors=errors, kept_dims=list(kept_dims), exact_kept_dim=exact.kept_dim,
            runs_kept_more=sum(k > exact.kept_dim for k in kept_dims)))
    return summaries


def mc_experiment(basis: SubspaceBasis, h: PauliSum, cfg: ShotConfig, runs: int
                  ) -> McSummary:
    """mc_sweep over the single cell cfg."""
    return mc_sweep(basis, h, [cfg], runs)[0]


def hf_filter(value: float) -> int:
    """Sign of a noisy reference-state Pauli expectation beyond +/-0.2, else 0."""
    return int(np.sign(value)) if abs(value) > 0.2 else 0
