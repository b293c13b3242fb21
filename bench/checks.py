"""Properties a correct run must have, checked against the sector FCI.

Each check returns a list of violations; an empty list means it passed.
The checks read the CLI's artifacts (summary.json, trace.jsonl, noise.csv),
never the program's objects, so they judge what a user receives.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

ENERGY_TOL = 1e-8      # hartree: agreement with FCI and the variational bound
ORDER_TOL = 1e-10      # hartree: rounding slack for "never rises" / "never exceeds"
NOISE_SLOPE = -0.5     # mean error ~ tau^(-1/2)
NOISE_SLOPE_TOL = 0.05  # see README: 30 seeds stayed within 0.016 of -0.5


def read_run(out_dir: Path) -> tuple[dict, list[dict]]:
    """summary.json and the trace.jsonl records of one algorithm's run."""
    summary = json.loads((out_dir / "summary.json").read_text())
    records = [json.loads(line) for line in
               (out_dir / "trace.jsonl").read_text().splitlines() if line.strip()]
    return summary, records


def check_algorithm(summary: dict, records: list[dict], fci: float) -> list[str]:
    """Converged answer equals FCI; every energy is variational; order properties."""
    alg = summary["algorithm"]
    bad = []
    final = summary["final_energy"]
    if summary["converged"] and abs(final - fci) > ENERGY_TOL:
        bad.append(f"{alg}: converged energy {final!r} misses FCI {fci!r} "
                   f"by {final - fci:.3e}")
    energies = [final] + [r[key] for r in records for key in ("epsilon0", "vqe_energy")
                          if r[key] is not None]
    low = min(energies)
    if low < fci - ENERGY_TOL:
        bad.append(f"{alg}: energy {low!r} lies {fci - low:.3e} below FCI {fci!r}")
    if alg.startswith("adapt-gcim"):
        eps = [r["epsilon0"] for r in records]
        for k in range(1, len(eps)):
            if eps[k] > eps[k - 1] + ORDER_TOL:
                bad.append(f"{alg}: epsilon0 rose by {eps[k] - eps[k - 1]:.3e} "
                           f"at iteration {records[k]['iteration']}")
    if alg == "adapt-vqe-gcim":
        for r in records:
            if r["epsilon0"] > r["vqe_energy"] + ORDER_TOL:
                bad.append(f"{alg}: epsilon0 exceeds the VQE energy by "
                           f"{r['epsilon0'] - r['vqe_energy']:.3e} at iteration "
                           f"{r['iteration']}")
    return bad


def check_oracle(summary: dict, fci: float) -> list[str]:
    """The program's own exact reference must be the sector ground energy."""
    exact = summary["exact_energy"]
    if exact is None or abs(exact - fci) > ENERGY_TOL:
        return [f"{summary['algorithm']}: exact_energy {exact!r} is not the sector "
                f"FCI {fci!r}"]
    return []


def read_noise(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{"tau": float(r["tau"]), "is": int(r["importance_sampling"]),
                 "mean_error": float(r["mean_error"])} for r in csv.DictReader(fh)]


def noise_slope(rows: list[dict], is_flag: int) -> float:
    """Least-squares slope of log(mean error) against log(tau)."""
    pts = [(math.log(r["tau"]), math.log(r["mean_error"]))
           for r in rows if r["is"] == is_flag]
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def check_noise(rows: list[dict], is_flag: int) -> list[str]:
    """Mean error shrinks as tau^(-1/2) for one importance-sampling setting."""
    mine = [r for r in rows if r["is"] == is_flag]
    if len({r["tau"] for r in mine}) < 2:
        return [f"importance_sampling={is_flag}: fewer than two tau values"]
    if any(not r["mean_error"] > 0 for r in mine):
        return [f"importance_sampling={is_flag}: non-positive mean error"]
    slope = noise_slope(rows, is_flag)
    if abs(slope - NOISE_SLOPE) > NOISE_SLOPE_TOL:
        return [f"importance_sampling={is_flag}: mean error scales as "
                f"tau^{slope:.3f}, not tau^{NOISE_SLOPE}"]
    return []
