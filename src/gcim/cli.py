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
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from importlib import resources as importlib_resources
from pathlib import Path

import jsonschema

from .adapt import (ADAPT_GCIM, VQE_FAMILY, AdaptConfig, AdaptTrace, IterationRecord,
                    VqeLoop, run_algorithm, vqe_loop)
from .fcidump import parse_fcidump, assemble_hamiltonian
from .fermion import jordan_wigner
from .pauli import PauliSum, ResourceLimitError, parse_pauli_json
from .pool import PoolOperator, build_pool, pool_to_json
from .resources import SCHEMES, ansatz_cnot_total, cnot_count, measurement_estimate
from .shots import ShotConfig, mc_sweep
from .statevector import ExactSpectrum, StateVector, exact_spectrum, hf_state
from .subspace import BasisRecipe, SubspaceBasis, build_matrices, excitation_energies
from .toy import toy_integrals

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCONVERGED = 2

CHEMICAL_ACCURACY = 1.6e-3  # hartree


class ConfigError(ValueError):
    pass


def _load_schema(name: str) -> dict:
    ref = importlib_resources.files("gcim") / "schemas" / name
    return json.loads(ref.read_text())


def _check_schema(doc, name: str, where: str, error: type = ValueError) -> None:
    """Raise `error`, prefixed by `where` and naming the field, if doc breaks `name`."""
    errors = jsonschema.Draft202012Validator(_load_schema(name)).iter_errors(doc)
    if (exc := jsonschema.exceptions.best_match(errors)) is not None:
        key = _key_path(exc.absolute_path)
        raise error(f"{where}: {key + ': ' if key else ''}{exc.message}")


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
        return ShotConfig(seed=self.seed, **self.shot_kwargs, **overrides)


def _key_path(path) -> str:
    """A JSON path as text: ``hamiltonian.toy.u``, ``tau_grid[1]``."""
    key = ""
    for part in path:
        if isinstance(part, int):
            key += f"[{part}]"
        else:
            key = f"{key}.{part}" if key else part
    return key


def _numbers(node, path: tuple = ()):
    """(path, value) of every number in a JSON document."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _numbers(v, (*path, k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _numbers(v, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, node


def load_config(path: str | Path, seed: int | None = None,
                out_dir: str | Path | None = None) -> RunConfig:
    """Read and schema-validate a JSON run configuration."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")

    def finite(token: str) -> float:
        """Parse a JSON number, rejecting NaN, Infinity and overflowing literals."""
        value = float(token)
        if not math.isfinite(value):
            raise ConfigError(f"invalid config {path}: number {token} is not finite")
        return value

    doc = json.loads(path.read_text(), parse_float=finite, parse_constant=finite)
    if seed is not None and isinstance(doc, dict):
        # the override meets the same checks as the config's own seed
        doc["seed"] = seed
    for key, value in _numbers(doc):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"invalid config {path}: {_key_path(key)} is an "
                              "integer too large for a double") from None
    _check_schema(doc, "config.schema.json", f"invalid config {path}", ConfigError)
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
        seed=int(doc.get("seed", 0)),
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
    source: str

    @property
    def n_qubits(self) -> int:
        return self.h.n_qubits


def build_system(cfg: RunConfig) -> System:
    """Materialize Hamiltonian, operator pool and reference determinant;
    n_alpha/n_beta override the occupation of FCIDUMP and toy integrals."""
    src = cfg.hamiltonian
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
        return System(h, pool, ref, f"pauli_json:{path}")
    if "fcidump" in src:
        path = Path(src["fcidump"])
        if not path.exists():
            raise FileNotFoundError(f"FCIDUMP file not found: {path}")
        ints = parse_fcidump(path.read_text())
        source = f"fcidump:{path}"
    else:
        toy = src.get("toy", {})
        ints = toy_integrals(float(toy.get("t", 1.0)), float(toy.get("u", 2.0)))
        source = f"toy(t={toy.get('t', 1.0)},u={toy.get('u', 2.0)})"
    n_qubits = 2 * ints.n_orb
    h = jordan_wigner(assemble_hamiltonian(ints), n_qubits)
    n_alpha = cfg.n_alpha if cfg.n_alpha is not None else ints.n_alpha
    n_beta = cfg.n_beta if cfg.n_beta is not None else ints.n_beta
    return System(h, build_pool(ints.n_orb), hf_state(n_qubits, n_alpha, n_beta),
                  source)


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


def trace_jsonl(trace: AdaptTrace) -> str:
    """One IterationRecord per line, without the subspace spectrum; the
    fields are read shallowly, since asdict would deep-copy every gradient."""
    return "".join(
        json.dumps({k: v for k, v in vars(rec).items() if k != "eigenvalues"},
                   sort_keys=True) + "\n"
        for rec in trace.records)


def summary_dict(trace: AdaptTrace, cfg: RunConfig, system: System) -> dict:
    result = trace.result
    return {
        "algorithm": trace.algorithm,
        "converged": trace.converged,
        "reason": trace.reason,
        "iterations": trace.iterations,
        "final_energy": trace.final_energy,
        "final_vqe_energy": trace.final_vqe_energy,
        "eigenvalues": trace.eigenvalues,
        "excitation_energies_ev": (excitation_energies(result)
                                   if result is not None and result.kept_dim >= 2 else []),
        "exact_energy": trace.exact_energy,
        "oracle_sector": trace.oracle_sector,
        "energy_error": trace.energy_error,
        "overlap_deficit": trace.overlap_deficit_value,
        "subspace_dim": len(trace.basis) if trace.basis is not None else None,
        "kept_dim": result.kept_dim if result is not None else None,
        "s_threshold": cfg.adapt_config(trace.algorithm).s_threshold,
        "total_opt_rounds": trace.total_opt_rounds,
        "time_gradients_s": trace.time_gradients,
        "time_energy_s": trace.time_energy,
        "seed": cfg.seed,
        "source": system.source,
        "n_qubits": system.n_qubits,
        "pool_size": len(system.pool),
        "measurement_estimate": asdict(measurement_estimate(trace, n_term=len(system.h))),
    }


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def _abs_error(energy: float | None, exact: float | None) -> float | None:
    return None if energy is None or exact is None else abs(energy - exact)


def convergence_csv(trace: AdaptTrace) -> str:
    return _csv(["iteration", "energy", "abs_error"],
                ([rec.iteration, _cell(rec.energy),
                  _cell(_abs_error(rec.energy, trace.exact_energy))]
                 for rec in trace.records))


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


def _exact_reference(cfg: RunConfig, system: System) -> ExactSpectrum | None:
    """cmd_exact's solve: exact_k pairs of the reference's sector, or None
    when the register exceeds the oracle's size limit."""
    try:
        return exact_spectrum(system.h, k=cfg.exact_k, reference=system.reference)
    except ResourceLimitError:
        return None


def _execute(cfg: RunConfig, algorithm: str, system: System, out_dir: Path,
             spectrum: ExactSpectrum | None, loop: VqeLoop | None) -> AdaptTrace:
    trace = run_algorithm(system.h, system.pool, system.reference,
                          cfg.adapt_config(algorithm), loop)
    if spectrum is not None:
        trace.attach_exact(spectrum)
    _atomic_write(out_dir / "trace.jsonl", trace_jsonl(trace))
    _atomic_write(out_dir / "summary.json",
                  json.dumps(summary_dict(trace, cfg, system), indent=1,
                             sort_keys=True) + "\n")
    _atomic_write(out_dir / "convergence.csv", convergence_csv(trace))
    if cfg.dump_matrices:
        _atomic_write(out_dir / "matrices.jsonl", _matrices_jsonl(trace, system.h))
    return trace


def _run_algorithms(cfg: RunConfig) -> tuple[System, dict[str, AdaptTrace], int]:
    """Build the system, compute its oracle once and run every configured
    algorithm, writing its artifacts to out_dir (one algorithm) or
    out_dir/<algorithm> (several).  The ADAPT-VQE loop runs once, at the
    first VQE-family algorithm, and serves the others.  Returns the exit
    status with the rest."""
    system = build_system(cfg)
    spectrum = _exact_reference(cfg, system)
    single = len(cfg.algorithms) == 1
    loop: VqeLoop | None = None
    traces = {}
    for alg in cfg.algorithms:
        if loop is None and alg in VQE_FAMILY:
            loop = vqe_loop(system.h, system.pool, system.reference, cfg.adapt_config(alg))
        traces[alg] = _execute(cfg, alg, system,
                               cfg.out_dir if single else cfg.out_dir / alg, spectrum, loop)
    converged = all(t.converged for t in traces.values())
    return system, traces, EXIT_OK if converged else EXIT_UNCONVERGED


def cmd_run(cfg: RunConfig) -> int:
    """Run the configured algorithm(s); artifacts per algorithm."""
    system, _, status = _run_algorithms(cfg)
    _atomic_write(cfg.out_dir / "pool.json",
                  json.dumps(pool_to_json(system.pool), indent=1) + "\n")
    return status


def cmd_compare(cfg: RunConfig) -> int:
    """Run >= 2 algorithms on one Hamiltonian/pool/seed; aligned error CSV."""
    if len(cfg.algorithms) < 2:
        raise ConfigError("compare needs at least two algorithms")
    _, traces, status = _run_algorithms(cfg)
    columns = [traces[alg] for alg in cfg.algorithms]
    exact = columns[0].exact_energy
    prefix = "energy" if exact is None else "abs_error"
    rows = []
    for it in range(1, max(t.iterations for t in columns) + 1):
        energies = [t.records[it - 1].energy if it <= t.iterations else None
                    for t in columns]
        rows.append([it] + [_cell(e if exact is None else _abs_error(e, exact))
                            for e in energies])
    rows.append(["chemical_accuracy"] + [repr(CHEMICAL_ACCURACY)] * len(columns))
    header = ["iteration"] + [f"{prefix}_{alg}" for alg in cfg.algorithms]
    _atomic_write(cfg.out_dir / "compare.csv", _csv(header, rows))
    return status


def _noise_basis(trace: AdaptTrace) -> SubspaceBasis:
    """Leading states of the trace's basis, with the leading block of its
    pair, up to the earliest iteration whose energy matches the final one.

    Sweeping noise over this subspace (rather than the fully converged,
    rank-deficient one) isolates finite-shot effects from basis redundancy.
    """
    d = next((rec.subspace_dim for rec in trace.records if rec.epsilon0 is not None
              and abs(rec.epsilon0 - trace.final_energy) <= 1e-12),
             trace.records[-1].subspace_dim)
    return trace.basis.leading(d)


def cmd_noise(cfg: RunConfig) -> int:
    """Monte Carlo tau sweep (importance sampling on and off) over a
    converged-quality subspace of an adapt-gcim run."""
    if cfg.algorithms != [ADAPT_GCIM]:
        raise ConfigError(f"noise runs {ADAPT_GCIM} only; the config names "
                          f"{', '.join(cfg.algorithms)}")
    system = build_system(cfg)
    trace = run_algorithm(system.h, system.pool, system.reference,
                          cfg.adapt_config(ADAPT_GCIM))
    cells = [cfg.shot_config(tau=float(tau), importance_sampling=is_flag)
             for tau in cfg.tau_grid for is_flag in (False, True)]
    summaries = mc_sweep(_noise_basis(trace), system.h, cells, cfg.noise_runs)
    rows = [[repr(cell.tau), int(cell.importance_sampling), repr(summary.mean_error),
             repr(summary.ci_low), repr(summary.ci_high)]
            for cell, summary in zip(cells, summaries)]
    for cell, summary in zip(cells, summaries):
        if summary.runs_kept_more:
            print(f"gcim: warning: tau {cell.tau:g}, importance sampling "
                  f"{int(cell.importance_sampling)}: {summary.runs_kept_more} of {cfg.noise_runs} "
                  f"runs keep more than the exact solve's {summary.exact_kept_dim} directions",
                  file=sys.stderr)
    _atomic_write(cfg.out_dir / "noise.csv",
                  _csv(["tau", "importance_sampling", "mean_error", "ci_low", "ci_high"],
                       rows))
    return EXIT_OK


def cmd_resources(cfg: RunConfig, trace_path: str | Path | None = None) -> int:
    """Replay a trace into per-iteration CNOT costs at each error level."""
    path = Path(trace_path) if trace_path is not None else cfg.out_dir / "trace.jsonl"
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    system = build_system(cfg)
    spectrum = _exact_reference(cfg, system)
    exact = float(spectrum.eigenvalues[0]) if spectrum is not None else None
    rows = []
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: not JSON ({exc})") from None
        _check_schema(doc, "trace_record.schema.json", f"{path}:{n}")
        rec = IterationRecord(**doc)
        recipe = BasisRecipe.from_steps(rec.product_recipe)
        used = {*recipe.pool_indices(), rec.selected_index} - {None}
        if max(used, default=-1) >= len(system.pool):
            raise ValueError(f"{path}:{n}: pool index {max(used)} is outside the "
                             f"{len(system.pool)}-operator pool of {system.source}")
        err = _cell(_abs_error(rec.energy, exact))
        for scheme in SCHEMES:
            new_cnots = (cnot_count(system.pool[rec.selected_index], scheme)
                         if rec.selected_index is not None else 0)
            rows.append([rec.iteration, err, new_cnots,
                         ansatz_cnot_total(recipe, system.pool, scheme), scheme])
    _atomic_write(cfg.out_dir / "resources.csv",
                  _csv(["iteration", "error_level", "new_generator_cnots",
                        "product_cnots", "scheme"], rows))
    return EXIT_OK


def cmd_exact(cfg: RunConfig) -> int:
    """Dump the exact low-lying spectrum of the reference's sector."""
    system = build_system(cfg)
    spectrum = exact_spectrum(system.h, k=cfg.exact_k, reference=system.reference)
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
