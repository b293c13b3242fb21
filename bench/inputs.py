"""Benchmark inputs: seeded integral generators and a plain FCIDUMP reader/writer.

Integrals are chemist-notation (pq|rs) arrays over spatial orbitals.  The
reader and writer here are the benchmark's own, so the reference energies it
derives never pass through the program's parser.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Integrals:
    """Spatial-orbital integrals and the electron count of the sector."""

    n_orb: int
    n_alpha: int
    n_beta: int
    core: float
    one_body: np.ndarray   # (n, n), symmetric
    two_body: np.ndarray   # (n, n, n, n), 8-fold symmetric


def hubbard_chain(n_sites: int, t: float, u: float, n_alpha: int,
                  n_beta: int) -> Integrals:
    """Open Hubbard chain: hopping -t between neighbours, U on each site."""
    one = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        one[i, i + 1] = one[i + 1, i] = -t
    two = np.zeros((n_sites,) * 4)
    for i in range(n_sites):
        two[i, i, i, i] = u
    return Integrals(n_sites, n_alpha, n_beta, 0.0, one, two)


def symmetrize_8fold(v: np.ndarray) -> np.ndarray:
    """Average a 4-index tensor over the 8 real permutations of (pq|rs)."""
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
             (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
    return sum(v.transpose(p) for p in perms) / 8.0


TWO_BODY_SCALE = 0.1


def random_molecular(n_orb: int, n_alpha: int, n_beta: int, seed: int) -> Integrals:
    """Symmetric normal one-body and 8-fold-symmetrized normal two-body integrals.

    Draws come from numpy's default_rng(seed): first the (n, n) one-body
    matrix, symmetrized as (a + a.T) / 2, then the (n, n, n, n) two-body
    tensor, symmetrized and scaled by TWO_BODY_SCALE.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_orb, n_orb))
    one = 0.5 * (a + a.T)
    two = TWO_BODY_SCALE * symmetrize_8fold(rng.standard_normal((n_orb,) * 4))
    return Integrals(n_orb, n_alpha, n_beta, 0.0, one, two)


def write_fcidump(ints: Integrals, path: Path) -> None:
    """One row per permutation class, full precision, 1-based indices."""
    n = ints.n_orb
    rows = [f"&FCI NORB={n},NELEC={ints.n_alpha + ints.n_beta},"
            f"MS2={ints.n_alpha - ints.n_beta},", "&END"]
    for p, q, r, s in itertools.product(range(n), repeat=4):
        if (p, q) <= (r, s) and p >= q and r >= s and ints.two_body[p, q, r, s] != 0.0:
            rows.append(f"{float(ints.two_body[p, q, r, s])!r} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p in range(n):
        for q in range(p + 1):
            if ints.one_body[p, q] != 0.0:
                rows.append(f"{float(ints.one_body[p, q])!r} {p + 1} {q + 1} 0 0")
    rows.append(f"{float(ints.core)!r} 0 0 0 0")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(rows) + "\n")


def read_fcidump(path: Path) -> Integrals:
    """Read NORB/NELEC/MS2 and the integral rows, filling every permutation."""
    text = Path(path).read_text()
    header, _, body = text.partition("&END")
    fields = {}
    for item in header.replace("&FCI", "").replace("\n", ",").split(","):
        if "=" in item:
            key, val = item.split("=", 1)
            fields[key.strip().upper()] = val.strip()
    n = int(fields["NORB"])
    n_elec, ms2 = int(fields["NELEC"]), int(fields["MS2"])
    one = np.zeros((n, n))
    two = np.zeros((n,) * 4)
    core = 0.0
    for line in body.split("\n"):
        parts = line.split()
        if len(parts) != 5:
            continue
        value = float(parts[0])
        p, q, r, s = (int(x) for x in parts[1:])
        if p == q == r == s == 0:
            core = value
        elif r == s == 0:
            one[p - 1, q - 1] = one[q - 1, p - 1] = value
        else:
            p, q, r, s = p - 1, q - 1, r - 1, s - 1
            for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r)):
                two[a, b, c, d] = two[c, d, a, b] = value
    return Integrals(n, (n_elec + ms2) // 2, (n_elec - ms2) // 2, core, one, two)
