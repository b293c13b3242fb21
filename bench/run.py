"""gcim benchmark: CLI wall time, set-up time and peak memory on fixed workloads.

    python3 bench/run.py --workload h4-compare --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each round runs the workload's CLI verb in
a fresh worker process (bench/worker.py), one round at a time, and checks
every answer against a sector FCI computed here from the integrals
(bench/fci.py).  Rounds repeat while the next one is expected to end inside
--seconds; at least one round runs.  With --trace 0 the last stdout line
carries the end-to-end metrics (medians over rounds; setup_s over every
set-up call of the run); with --trace 1 the CLI call runs traced and the line
carries the per-layer metrics instead.  A worker that crashes or outlives the
run's time limit fails every operation of its round, and the last line is
still printed.
--label NAME also merges the run into bench/results/BENCH_NAME.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
from fci import sector_fci_energy
from inputs import Integrals, hubbard_chain, random_molecular, read_fcidump, write_fcidump

BENCH = Path(__file__).resolve().parent
H4_FCIDUMP = Path("tests/data/h4_linear_sto3g_r1.0584.fcidump")
RUN_LIMIT_S = 170          # a run, all rounds included, ends within this

# Generated inputs are fixed by these parameters, not by --seed: on random
# 12-qubit integrals the Krylov oracle's work alone varies by 13 % between
# integral sets, which would hide a regression of the same size.
HUBBARD = {"n_sites": 5, "t": 1.0, "u": 4.0, "n_alpha": 2, "n_beta": 2}
RANDOM12 = {"n_orb": 6, "n_alpha": 3, "n_beta": 3, "seed": 0}
RANDOM12_MAX_ITERATIONS = 10
# h4-noise: tau grid where the kept dimension is stable on H4
NOISE_TAU_GRID = [1e10, 1e11, 1e12]
NOISE_RUNS = 20

COMPARE_ALGORITHMS = ["adapt-gcim", "adapt-vqe", "adapt-vqe-gcim", "adapt-vqe-gcim-1"]
ORACLE = "oracle"


@dataclass
class Workload:
    verb: str
    expected_exit: int
    ops: list[str]                # one checked answer each, per round
    known_faults: set[str]        # ops that fail because of a named program fault
    prepare: Callable[[Path, Path], tuple[dict, Integrals]]
    check: Callable[[Path, float], dict[str, list[str]]]


def _prepare_h4_compare(root: Path, work: Path):
    cfg = {"hamiltonian": {"fcidump": str(root / H4_FCIDUMP)},
           "algorithms": COMPARE_ALGORITHMS}
    return cfg, read_fcidump(root / H4_FCIDUMP)


def _prepare_hubbard(root: Path, work: Path):
    ints = hubbard_chain(**HUBBARD)
    write_fcidump(ints, work / "hubbard10.fcidump")
    return {"hamiltonian": {"fcidump": str(work / "hubbard10.fcidump")},
            "algorithms": ["adapt-gcim"]}, ints


def _prepare_random12(root: Path, work: Path):
    ints = random_molecular(**RANDOM12)
    write_fcidump(ints, work / "random12.fcidump")
    return {"hamiltonian": {"fcidump": str(work / "random12.fcidump")},
            "algorithms": ["adapt-gcim"],
            "adapt": {"max_iterations": RANDOM12_MAX_ITERATIONS}}, ints


def _prepare_h4_noise(root: Path, work: Path):
    cfg = {"hamiltonian": {"fcidump": str(root / H4_FCIDUMP)},
           "shots": {"mode": "binomial-exact"},
           "tau_grid": NOISE_TAU_GRID, "noise_runs": NOISE_RUNS}
    return cfg, read_fcidump(root / H4_FCIDUMP)


def _check_compare(out: Path, fci: float) -> dict[str, list[str]]:
    result, oracle = {}, []
    for alg in COMPARE_ALGORITHMS:
        summary, records = checks.read_run(out / alg)
        result[alg] = checks.check_algorithm(summary, records, fci)
        oracle += checks.check_oracle(summary, fci)
    result[ORACLE] = oracle
    return result


def _check_single(out: Path, fci: float) -> dict[str, list[str]]:
    summary, records = checks.read_run(out)
    return {"adapt-gcim": checks.check_algorithm(summary, records, fci),
            ORACLE: checks.check_oracle(summary, fci)}


def _check_noise(out: Path, fci: float) -> dict[str, list[str]]:
    rows = checks.read_noise(out / "noise.csv")
    return {f"noise-is{flag}": checks.check_noise(rows, flag) for flag in (0, 1)}


WORKLOADS = {
    "h4-compare": Workload("compare", 0, COMPARE_ALGORITHMS + [ORACLE], set(),
                           _prepare_h4_compare, _check_compare),
    "hubbard10-gcim": Workload("run", 0, ["adapt-gcim", ORACLE], {ORACLE},
                               _prepare_hubbard, _check_single),
    "random12-scan": Workload("run", 2, ["adapt-gcim", ORACLE], {ORACLE},
                              _prepare_random12, _check_single),
    "h4-noise": Workload("noise", 0, ["noise-is0", "noise-is1"], set(),
                         _prepare_h4_noise, _check_noise),
}

# per-layer metrics: (span name, field); fields are summed over the round
LAYER_FIELDS = [
    ("fcidump.parse_fcidump", "self_s"),
    ("fcidump.assemble_hamiltonian", "self_s"),
    ("fermion.jordan_wigner", "calls"),
    ("fermion.jordan_wigner", "self_s"),
    ("pool.build_pool", "self_s"),
    ("statevector.apply_paulisum", "calls"),
    ("statevector.apply_paulisum", "self_s"),
    ("statevector.exp_apply", "calls"),
    ("statevector.exp_apply", "self_s"),
    ("statevector.exact_spectrum", "self_s"),
    ("subspace.prepare_state", "calls"),
    ("subspace.prepare_state", "total_s"),
    ("subspace.build_matrices", "calls"),
    ("subspace.build_matrices", "self_s"),
    ("subspace.solve_gevp", "calls"),
    ("subspace.solve_gevp", "self_s"),
    ("subspace.reconstruct_state", "self_s"),
    ("adapt.pool_gradients", "calls"),
    ("adapt.pool_gradients", "self_s"),
    ("adapt.vqe_minimize", "calls"),
    ("adapt.vqe_minimize", "total_s"),
    ("adapt.ansatz_energy_gradient", "calls"),
    ("adapt.ansatz_energy_gradient", "self_s"),
    ("adapt.run_algorithm", "self_s"),
    ("shots.MatrixEstimators.build", "calls"),
    ("shots.MatrixEstimators.build", "self_s"),
    ("shots.exact_decomposition", "calls"),
    ("shots.MatrixEstimators.sample", "calls"),
    ("shots.MatrixEstimators.sample", "self_s"),
    ("shots.mc_experiment", "self_s"),
    ("cli.build_system", "total_s"),
    ("cli.main", "self_s"),
]
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_metrics(layers: dict, wall_s: float) -> dict[str, float]:
    """Flatten one traced round into named per-layer values."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attr": 0}
    out = {f"{span}.{field}": layers.get(span, empty)[field]
           for span, field in LAYER_FIELDS}
    states = layers.get("adapt.run_algorithm", empty)["attr"]
    exp_calls = layers.get("statevector.exp_apply", empty)["calls"]
    out["statevector.exp_apply.calls_per_basis_state"] = exp_calls / states if states else 0.0
    out["trace.wall_s"] = wall_s
    return out


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    return "ratio" if name.endswith("_per_basis_state") else "s"


def run_round(root: Path, workload: Workload, config: Path, out: Path, seed: int,
              spans: Path | None, timeout: float) -> tuple[dict | None, str]:
    """(the worker's measurements, or None if it died or ran out of time; stderr)."""
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(root),
           "--verb", workload.verb, "--config", str(config), "--out", str(out),
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker still running after {timeout:.0f} s, killed"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def judge(workload: Workload, result: dict, out: Path, fci: float
          ) -> tuple[int, bool, list[str]]:
    """(failed ops, whether every failure is a known fault, messages)."""
    if result["exit_code"] != workload.expected_exit:
        return len(workload.ops), False, [
            f"exit code {result['exit_code']}, expected {workload.expected_exit}"]
    try:
        verdicts = workload.check(out, fci)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return len(workload.ops), False, [f"unreadable artifacts: {exc!r}"]
    failed, known, messages = 0, True, []
    for op in workload.ops:
        bad = verdicts[op]
        if bad:
            failed += 1
            known &= op in workload.known_faults
            messages += bad
    return failed, known, messages


def _git_state(root: Path) -> tuple[str | None, bool | None]:
    """(HEAD sha, whether the tree differs from it); Nones outside a git checkout."""
    if not (root / ".git").exists():
        return None, None

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def record(root: Path, label: str, workload: str, seed: int, trace: bool,
           attempted: int, failed: int, metrics: dict[str, float]) -> None:
    """Merge one run into BENCH_<label>.json and refresh the medians."""
    path = BENCH / "results" / f"BENCH_{label}.json"
    doc = json.loads(path.read_text()) if path.exists() else {
        "label": label, "workloads": {}, "layers": {}}
    doc["machine"] = {"system": platform.system(), "machine": platform.machine(),
                      "release": platform.release(), "cores": os.cpu_count()}
    doc["software"] = {"python": platform.python_version(), "numpy": np.__version__,
                       "scipy": scipy.__version__}
    doc["git_sha"], doc["git_dirty"] = _git_state(root)
    section = doc["layers" if trace else "workloads"].setdefault(
        workload, {"runs": [], "median": {}})
    section["runs"].append({"seed": seed, "attempted": attempted, "failed": failed,
                            "metrics": metrics})
    names = {name for r in section["runs"] for name in r["metrics"]}
    section["median"] = {name: statistics.median(r["metrics"][name]
                                                 for r in section["runs"]
                                                 if name in r["metrics"])
                         for name in sorted(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> int:
    launched = time.perf_counter()
    ap = argparse.ArgumentParser(description="gcim benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default=None, help="merge into bench/results/BENCH_<label>.json")
    args = ap.parse_args()
    if args.label is not None and not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error("--label may hold only letters, digits, '_', '.' and '-'")

    root = Path.cwd().resolve()
    for need in (root / "src" / "gcim" / "cli.py", root / H4_FCIDUMP):
        if not need.is_file():
            print(f"bench: {need} is missing; run from the root of a gcim checkout",
                  file=sys.stderr)
            return 2

    workload = WORKLOADS[args.workload]
    work = BENCH / "_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    cfg, ints = workload.prepare(root, work)
    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1) + "\n")
    fci = sector_fci_energy(ints)
    spans = work / "spans.jsonl" if args.trace else None

    n_rounds, rounds, failed, all_known = 0, [], 0, True
    start = time.perf_counter()
    while True:
        timeout = RUN_LIMIT_S - (time.perf_counter() - launched)
        result, stderr = run_round(root, workload, config, work / "out", args.seed,
                                   spans, timeout)
        n_rounds += 1
        if result is None:
            n_failed, known, messages = len(workload.ops), False, [stderr]
        else:
            n_failed, known, messages = judge(workload, result, work / "out", fci)
            rounds.append(result)
        failed += n_failed
        all_known &= known
        wall = "no result" if result is None else f"wall {result['wall_s']:.3f} s"
        print(f"{args.workload} round {n_rounds}: {wall}, "
              f"{len(workload.ops) - n_failed}/{len(workload.ops)} checks passed")
        for msg in messages:
            print(f"  failed: {msg}")
        if result is not None and not known and stderr:
            print(stderr[-2000:], file=sys.stderr)
        elapsed = time.perf_counter() - start
        if result is None or elapsed + elapsed / n_rounds > args.seconds:
            break

    metrics = {}
    if rounds and args.trace:
        per_round = [layer_metrics(r["layers"], r["wall_s"]) for r in rounds]
        metrics = {name: statistics.median(m[name] for m in per_round)
                   for name in per_round[0]}
    elif rounds:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(s for r in rounds for s in r["setup_s"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    attempted = n_rounds * len(workload.ops)
    if args.label is not None:
        record(root, args.label, args.workload, args.seed, bool(args.trace),
               attempted, failed, metrics)
    print(json.dumps({
        "correct": all_known, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
