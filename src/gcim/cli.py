"""Batch driver: load a config and Hamiltonian, run algorithms, emit artifacts.

Verbs: run, compare, noise, resources, exact.  Outputs are written
atomically (temp file + rename) into the configured output directory;
trace.jsonl excludes wall-clock fields so identical (config, seed) runs are
byte-identical, while summary.json carries the timing split.  Exit codes:
0 converged, 2 unconverged, 1 hard error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from importlib import resources as importlib_resources
from pathlib import Path

import jsonschema

from .adapt import ADAPT_GCIM, AdaptConfig, AdaptTrace, run_algorithm
from .fcidump import parse_fcidump, assemble_hamiltonian
from .fermion import jordan_wigner
from .pauli import PauliSum, ResourceLimitError, parse_pauli_json
from .pool import PoolOperator, build_pool, pool_to_json
from .resources import SCHEMES, ansatz_cnot_total, cnot_count, measurement_estimate
from .shots import MatrixEstimators, ShotConfig, mc_sweep
from .statevector import ExactSpectrum, StateVector, exact_spectrum, hf_state
from .subspace import (
    BasisRecipe,
    SubspaceBasis,
    build_matrices,
    excitation_energies,
)
from .toy import toy_system

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCONVERGED = 2

CHEMICAL_ACCURACY = 1.6e-3  # hartree


class ConfigError(ValueError):
    pass


def _load_schema(name: str) -> dict:
    ref = importlib_resources.files("gcim") / "schemas" / name
    return json.loads(ref.read_text())


@dataclass
class RunConfig:
    hamiltonian: dict
    algorithms: list[str]
    adapt_kwargs: dict
    shot_kwargs: dict
    tau_grid: list[float]
    noise_runs: int
    n_alpha: int | None
    n_beta: int | None
    exact_k: int
    out_dir: Path
    seed: int
    dump_matrices: bool

    def adapt_config(self, algorithm: str) -> AdaptConfig:
        return AdaptConfig(algorithm=algorithm, **self.adapt_kwargs)

    def shot_config(self, **overrides) -> ShotConfig:
        kwargs = {"seed": self.seed, **self.shot_kwargs, **overrides}
        return ShotConfig(**kwargs)


def load_config(path: str | Path, seed: int | None = None,
                out_dir: str | Path | None = None) -> RunConfig:
    """Read and schema-validate a JSON run configuration."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    doc = json.loads(path.read_text())
    schema = _load_schema("config.schema.json")
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"invalid config {path}: {exc.message}") from exc
    cfg = RunConfig(
        hamiltonian=doc["hamiltonian"],
        algorithms=list(doc.get("algorithms", [ADAPT_GCIM])),
        adapt_kwargs=dict(doc.get("adapt", {})),
        shot_kwargs=dict(doc.get("shots", {})),
        tau_grid=list(doc.get("tau_grid", [1e8, 1e9, 1e10, 1e11, 1e12])),
        noise_runs=int(doc.get("noise_runs", 100)),
        n_alpha=doc.get("n_alpha"),
        n_beta=doc.get("n_beta"),
        exact_k=int(doc.get("exact_k", 4)),
        out_dir=Path(out_dir if out_dir is not None else doc.get("out_dir", "out")),
        seed=int(seed if seed is not None else doc.get("seed", 0)),
        dump_matrices=bool(doc.get("dump_matrices", False)),
    )
    # reject a bad (algorithm, adapt) pair or shot cell before any algorithm runs
    try:
        for algorithm in cfg.algorithms:
            cfg.adapt_config(algorithm)
        for tau in cfg.tau_grid:
            cfg.shot_config(tau=float(tau))
    except ValueError as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return cfg


@dataclass
class System:
    h: PauliSum
    pool: list[PoolOperator]
    reference: StateVector
    n_qubits: int
    source: str


def build_system(cfg: RunConfig) -> System:
    """Materialize Hamiltonian, operator pool and reference determinant."""
    src = cfg.hamiltonian
    if "fcidump" in src:
        path = Path(src["fcidump"])
        if not path.exists():
            raise FileNotFoundError(f"FCIDUMP file not found: {path}")
        ints = parse_fcidump(path.read_text())
        n_qubits = 2 * ints.n_orb
        h = jordan_wigner(assemble_hamiltonian(ints), n_qubits)
        pool = build_pool(ints.n_orb)
        n_alpha = cfg.n_alpha if cfg.n_alpha is not None else ints.n_alpha
        n_beta = cfg.n_beta if cfg.n_beta is not None else ints.n_beta
        ref = hf_state(n_qubits, n_alpha, n_beta)
        return System(h, pool, ref, n_qubits, f"fcidump:{path}")
    if "pauli_json" in src:
        path = Path(src["pauli_json"])
        if not path.exists():
            raise FileNotFoundError(f"Pauli-JSON file not found: {path}")
        h = parse_pauli_json(path.read_text())
        n_qubits = h.n_qubits
        if n_qubits % 2:
            raise ConfigError("pauli_json register must have an even qubit count "
                              "(interleaved spin orbitals)")
        if cfg.n_alpha is None or cfg.n_beta is None:
            raise ConfigError("pauli_json sources need explicit n_alpha/n_beta")
        pool = build_pool(n_qubits // 2)
        ref = hf_state(n_qubits, cfg.n_alpha, cfg.n_beta)
        return System(h, pool, ref, n_qubits, f"pauli_json:{path}")
    toy = src.get("toy", {})
    h, pool, ref = toy_system(float(toy.get("t", 1.0)), float(toy.get("u", 2.0)))
    return System(h, pool, ref, h.n_qubits,
                  f"toy(t={toy.get('t', 1.0)},u={toy.get('u', 2.0)})")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _record_json(rec) -> dict:
    return {
        "iteration": rec.iteration,
        "selected_index": rec.selected_index,
        "selected_label": rec.selected_label,
        "gradients": rec.gradients,
        "gradient_max": rec.gradient_max,
        "gradient_sum": rec.gradient_sum,
        "epsilon0": rec.epsilon0,
        "vqe_energy": rec.vqe_energy,
        "subspace_dim": rec.subspace_dim,
        "kept_dim": rec.kept_dim,
        "opt_rounds": rec.opt_rounds,
        "product_recipe": [[i, t] for i, t in rec.product_recipe],
    }


def trace_jsonl(trace: AdaptTrace) -> str:
    return "".join(json.dumps(_record_json(r), sort_keys=True) + "\n"
                   for r in trace.records)


def summary_dict(trace: AdaptTrace, cfg: RunConfig, system: System) -> dict:
    ex_ev = []
    if trace.result is not None and trace.result.kept_dim >= 2:
        ex_ev = excitation_energies(trace.result)
    est = measurement_estimate(trace, n_term=len(system.h))
    return {
        "algorithm": trace.algorithm,
        "converged": trace.converged,
        "reason": trace.reason,
        "iterations": trace.iterations,
        "final_energy": trace.final_energy,
        "final_vqe_energy": trace.final_vqe_energy,
        "eigenvalues": trace.eigenvalues,
        "excitation_energies_ev": ex_ev,
        "exact_energy": trace.exact_energy,
        "oracle_sector": trace.oracle_sector,
        "energy_error": trace.energy_error,
        "overlap_deficit": trace.overlap_deficit_value,
        "subspace_dim": len(trace.basis) if trace.basis is not None else None,
        "kept_dim": trace.result.kept_dim if trace.result is not None else None,
        "s_threshold": cfg.adapt_config(trace.algorithm).s_threshold,
        "total_opt_rounds": trace.total_opt_rounds,
        "time_gradients_s": trace.time_gradients,
        "time_energy_s": trace.time_energy,
        "seed": cfg.seed,
        "source": system.source,
        "n_qubits": system.n_qubits,
        "pool_size": len(system.pool),
        "measurement_estimate": {
            "n_iterations": est.n_iterations,
            "n_generating_functions": est.n_generating_functions,
            "n_hamiltonian_terms": est.n_hamiltonian_terms,
            "total_opt_rounds": est.total_opt_rounds,
            "vqe_style_total": est.vqe_style_total,
            "gcim_style_total": est.gcim_style_total,
        },
    }


def _iter_energy(rec) -> float | None:
    return rec.epsilon0 if rec.epsilon0 is not None else rec.vqe_energy


def convergence_csv(trace: AdaptTrace, exact_energy: float | None) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["iteration", "energy", "abs_error"])
    for rec in trace.records:
        e = _iter_energy(rec)
        err = "" if (exact_energy is None or e is None) else repr(abs(e - exact_energy))
        w.writerow([rec.iteration, "" if e is None else repr(e), err])
    return buf.getvalue()


def _matrices_jsonl(trace: AdaptTrace, h: PauliSum) -> str:
    """Per iteration, the leading block of the final pair that it solved.

    The basis only grows, so iteration k's pair is the leading subspace_dim
    block of the pair over the final basis.
    """
    records = [r for r in trace.records if r.eigenvalues is not None]
    if not records:
        return ""
    h_mat, s_mat = build_matrices(trace.basis, h)
    lines = []
    for rec in records:
        d = rec.subspace_dim
        lines.append(json.dumps({
            "iteration": rec.iteration,
            "h_real": h_mat[:d, :d].real.tolist(),
            "h_imag": h_mat[:d, :d].imag.tolist(),
            "s_real": s_mat[:d, :d].real.tolist(),
            "s_imag": s_mat[:d, :d].imag.tolist(),
            "eigenvalues": rec.eigenvalues,
            "kept_dim": rec.kept_dim,
            "threshold": trace.result.threshold,
        }, sort_keys=True) + "\n")
    return "".join(lines)


def _exact_reference(system: System, k: int = 1) -> ExactSpectrum | None:
    """Lowest k eigenpairs of the reference's sector, or None when the
    register exceeds the oracle's size limit."""
    try:
        return exact_spectrum(system.h, k=k, reference=system.reference)
    except ResourceLimitError:
        return None


def _execute(cfg: RunConfig, algorithm: str, system: System, out_dir: Path,
             spectrum: ExactSpectrum | None) -> AdaptTrace:
    trace = run_algorithm(system.h, system.pool, system.reference,
                          cfg.adapt_config(algorithm))
    if spectrum is not None:
        trace.attach_exact(spectrum)
    _atomic_write(out_dir / "trace.jsonl", trace_jsonl(trace))
    _atomic_write(out_dir / "summary.json",
                  json.dumps(summary_dict(trace, cfg, system), indent=1,
                             sort_keys=True) + "\n")
    _atomic_write(out_dir / "convergence.csv",
                  convergence_csv(trace, trace.exact_energy))
    if cfg.dump_matrices:
        _atomic_write(out_dir / "matrices.jsonl", _matrices_jsonl(trace, system.h))
    return trace


def _run_algorithms(cfg: RunConfig) -> tuple[System, ExactSpectrum | None,
                                               dict[str, AdaptTrace], int]:
    """Build the system, compute its oracle once and run every configured
    algorithm, writing its artifacts to out_dir (one algorithm) or
    out_dir/<algorithm> (several).  Returns the exit status with the rest."""
    system = build_system(cfg)
    spectrum = _exact_reference(system)
    single = len(cfg.algorithms) == 1
    traces = {alg: _execute(cfg, alg, system,
                            cfg.out_dir if single else cfg.out_dir / alg, spectrum)
              for alg in cfg.algorithms}
    converged = all(t.converged for t in traces.values())
    return system, spectrum, traces, EXIT_OK if converged else EXIT_UNCONVERGED


def cmd_run(cfg: RunConfig) -> int:
    """Run the configured algorithm(s); artifacts per algorithm."""
    system, _, _, status = _run_algorithms(cfg)
    _atomic_write(cfg.out_dir / "pool.json",
                  json.dumps(pool_to_json(system.pool), indent=1) + "\n")
    return status


def cmd_compare(cfg: RunConfig) -> int:
    """Run >= 2 algorithms on one Hamiltonian/pool/seed; aligned error CSV."""
    if len(cfg.algorithms) < 2:
        raise ConfigError("compare needs at least two algorithms")
    _, spectrum, traces, status = _run_algorithms(cfg)
    exact = float(spectrum.eigenvalues[0]) if spectrum is not None else None

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = ["iteration"] + [f"abs_error_{alg}" if exact is not None else f"energy_{alg}"
                              for alg in cfg.algorithms]
    w.writerow(header)
    depth = max((t.iterations for t in traces.values()), default=0)
    for it in range(1, depth + 1):
        row = [it]
        for alg in cfg.algorithms:
            recs = traces[alg].records
            if it <= len(recs):
                e = _iter_energy(recs[it - 1])
                if e is None:
                    row.append("")
                else:
                    row.append(repr(abs(e - exact)) if exact is not None else repr(e))
            else:
                row.append("")
        w.writerow(row)
    w.writerow(["chemical_accuracy"] + [repr(CHEMICAL_ACCURACY)] * len(cfg.algorithms))
    _atomic_write(cfg.out_dir / "compare.csv", buf.getvalue())
    return status


def _noise_basis(trace: AdaptTrace, system: System) -> SubspaceBasis:
    """Leading states of the trace's basis up to the earliest iteration
    whose noiseless energy already matches the final one.

    Sweeping noise over this subspace (rather than the fully converged,
    rank-deficient one) isolates finite-shot effects from basis redundancy.
    """
    pick = trace.records[-1]
    for rec in trace.records:
        if rec.epsilon0 is not None and \
                abs(rec.epsilon0 - trace.final_energy) <= 1e-12:
            pick = rec
            break
    d = pick.subspace_dim
    return SubspaceBasis(reference=system.reference, pool=system.pool,
                         recipes=trace.basis.recipes[:d],
                         states=trace.basis.states[:d])


def cmd_noise(cfg: RunConfig) -> int:
    """Monte Carlo tau sweep (importance sampling on and off) over a
    converged-quality subspace of an adapt-gcim run."""
    if cfg.algorithms != [ADAPT_GCIM]:
        raise ConfigError(f"noise runs {ADAPT_GCIM} only; the config names "
                          f"{', '.join(cfg.algorithms)}")
    system = build_system(cfg)
    trace = run_algorithm(system.h, system.pool, system.reference,
                          cfg.adapt_config(ADAPT_GCIM))
    basis = _noise_basis(trace, system)
    d = len(basis)
    h_mat, s_mat = build_matrices(trace.basis, system.h)
    h_mat, s_mat = h_mat[:d, :d], s_mat[:d, :d]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["tau", "importance_sampling", "mean_error", "ci_low", "ci_high"])
    cells = [cfg.shot_config(tau=float(tau), importance_sampling=is_flag)
             for tau in cfg.tau_grid for is_flag in (False, True)]
    summaries = mc_sweep(h_mat, s_mat, MatrixEstimators.build(basis, system.h),
                         cells, runs=cfg.noise_runs)
    for cell, summary in zip(cells, summaries):
        w.writerow([repr(cell.tau), int(cell.importance_sampling),
                    repr(summary.mean_error), repr(summary.ci_low),
                    repr(summary.ci_high)])
    _atomic_write(cfg.out_dir / "noise.csv", buf.getvalue())
    return EXIT_OK


def cmd_resources(cfg: RunConfig, trace_path: str | Path | None = None) -> int:
    """Replay a trace into per-iteration CNOT costs at each error level."""
    path = Path(trace_path) if trace_path is not None else cfg.out_dir / "trace.jsonl"
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    system = build_system(cfg)
    spectrum = _exact_reference(system)
    exact = float(spectrum.eigenvalues[0]) if spectrum is not None else None
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["iteration", "error_level", "new_generator_cnots",
                "product_cnots", "scheme"])
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        recipe = BasisRecipe.from_steps(rec["product_recipe"])
        energy = rec["epsilon0"] if rec["epsilon0"] is not None else rec["vqe_energy"]
        err = "" if (exact is None or energy is None) else repr(abs(energy - exact))
        for scheme in SCHEMES:
            new_cnots = (cnot_count(system.pool[rec["selected_index"]], scheme)
                         if rec["selected_index"] is not None else 0)
            w.writerow([rec["iteration"], err, new_cnots,
                        ansatz_cnot_total(recipe, system.pool, scheme), scheme])
    _atomic_write(cfg.out_dir / "resources.csv", buf.getvalue())
    return EXIT_OK


def cmd_exact(cfg: RunConfig) -> int:
    """Dump the exact low-lying spectrum of the reference's sector."""
    system = build_system(cfg)
    spectrum = _exact_reference(system, k=cfg.exact_k)
    if spectrum is None:
        raise ResourceLimitError(
            f"exact spectrum of {system.n_qubits} qubits exceeds the desk-scale limit")
    doc = {
        "source": system.source,
        "n_qubits": system.n_qubits,
        "sector": spectrum.sector,
        "eigenvalues": [float(e) for e in spectrum.eigenvalues],
        "ground_energy": float(spectrum.eigenvalues[0]),
        "ground_state_top_amplitudes": spectrum.ground_state.top_amplitudes(),
    }
    _atomic_write(cfg.out_dir / "exact.json",
                  json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gcim",
        description="ADAPT-GCIM workbench: adaptive non-orthogonal subspace "
                    "eigensolvers with shot-noise and gate-cost models.")
    parser.add_argument("command",
                        choices=["run", "compare", "noise", "resources", "exact"])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--trace", default=None,
                        help="trace.jsonl to replay (resources command)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "noise":
            return cmd_noise(cfg)
        if args.command == "resources":
            return cmd_resources(cfg, args.trace)
        return cmd_exact(cfg)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"gcim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
