"""FCIDUMP ingestion and spin-orbital Hamiltonian assembly.

Accepts the common FCIDUMP dialect: an &FCI namelist naming NORB, NELEC and
MS2 (ORBSYM/ISYM parsed and ignored), closed by "&END", "$END" or "/",
followed by integral rows "value i j k l" with 1-based orbital indices.
Two-electron values are chemist-notation (pq|rs) with the 8-fold real
permutation symmetry; i=j=k=l=0 is the core energy and k=l=0 rows are
one-body elements.  See docs/formats.md for the grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .fermion import FermionOperator, down, up

DUPLICATE_TOL = 1e-10


class FcidumpError(ValueError):
    """Malformed FCIDUMP content; message carries the offending line number."""


class FcidumpRangeError(FcidumpError):
    """Orbital index outside [0, NORB]."""


class FcidumpConsistencyError(FcidumpError):
    """Symmetry-equivalent entries specified with conflicting values."""


def _one_body_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


def _two_body_key(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    # canonical representative of the 8-fold class of (ij|kl)
    a = min((i, j), (j, i))
    b = min((k, l), (l, k))
    return min(a + b, b + a)


@dataclass
class SpatialIntegrals:
    """Spatial-orbital integrals in hartree, chemist notation (pq|rs)."""

    n_orb: int
    n_elec: int
    ms2: int
    core_energy: float = 0.0
    one_body: np.ndarray = field(default=None)  # (n_orb, n_orb)
    two_body: np.ndarray = field(default=None)  # (n_orb,)*4

    def __post_init__(self):
        if self.n_orb < 1:
            raise ValueError(f"n_orb must be >= 1, got {self.n_orb}")
        if not 0 <= self.n_elec <= 2 * self.n_orb:
            raise ValueError(f"n_elec {self.n_elec} outside [0, {2 * self.n_orb}]")
        if (self.n_elec + self.ms2) % 2:
            raise ValueError(f"n_elec {self.n_elec} and ms2 {self.ms2} differ in parity")
        if abs(self.ms2) > self.n_elec:
            raise ValueError(f"|ms2| {abs(self.ms2)} exceeds n_elec {self.n_elec}")
        if max(self.n_alpha, self.n_beta) > self.n_orb:
            raise ValueError(f"{max(self.n_alpha, self.n_beta)} electrons of one spin "
                             f"exceed n_orb {self.n_orb}")
        n = self.n_orb
        if self.one_body is None:
            self.one_body = np.zeros((n, n))
        if self.two_body is None:
            self.two_body = np.zeros((n, n, n, n))
        self.one_body = np.asarray(self.one_body, dtype=float)
        self.two_body = np.asarray(self.two_body, dtype=float)

    @property
    def n_alpha(self) -> int:
        return (self.n_elec + self.ms2) // 2

    @property
    def n_beta(self) -> int:
        return (self.n_elec - self.ms2) // 2

    def check_symmetry(self, tol: float = 1e-12) -> None:
        if np.max(np.abs(self.one_body - self.one_body.T)) > tol:
            raise ValueError("one-body integrals are not symmetric")
        v = self.two_body
        for perm in (v.transpose(1, 0, 2, 3), v.transpose(0, 1, 3, 2),
                     v.transpose(2, 3, 0, 1)):
            if np.max(np.abs(v - perm)) > tol:
                raise ValueError("two-body integrals violate 8-fold symmetry")


_HEADER_INT = re.compile(r"(NORB|NELEC|MS2)\s*=\s*(-?\d+)", re.IGNORECASE)
_NAMELIST_END = re.compile(r"(&END|\$END|^\s*/\s*$|/\s*$)", re.IGNORECASE)


def parse_fcidump(text: str) -> SpatialIntegrals:
    """Parse FCIDUMP text into SpatialIntegrals.

    Unspecified entries are zero; each stored value fills its whole
    permutation class.  Raises FcidumpError (with a line number) on a
    malformed header or a non-finite value, FcidumpRangeError on indices
    outside [0, NORB] and FcidumpConsistencyError when duplicates disagree
    by more than 1e-10.
    """
    lines = text.splitlines()
    header_fields: dict[str, int] = {}
    data_start = None
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if data_start is None and ln == 1 and not line.lstrip().upper().startswith("&FCI"):
            raise FcidumpError(f"line 1: expected '&FCI' namelist, got {line.strip()!r}")
        for key, val in _HEADER_INT.findall(line):
            header_fields[key.upper()] = int(val)
        if _NAMELIST_END.search(line):
            data_start = ln
            break
    if data_start is None:
        raise FcidumpError(f"line {len(lines)}: namelist never terminated (&END or /)")
    for req in ("NORB", "NELEC", "MS2"):
        if req not in header_fields:
            raise FcidumpError(f"line {data_start}: header is missing {req}")
    n_orb = header_fields["NORB"]
    try:
        ints = SpatialIntegrals(n_orb=n_orb, n_elec=header_fields["NELEC"],
                                ms2=header_fields["MS2"])
    except ValueError as exc:
        raise FcidumpError(f"line {data_start}: {exc}") from exc

    core = 0.0
    core_seen = False
    one: dict[tuple[int, int], float] = {}
    two: dict[tuple[int, int, int, int], float] = {}

    def conflict(kind: str, key, old: float, new: float, ln: int):
        raise FcidumpConsistencyError(
            f"line {ln}: conflicting duplicate {kind} entry {key}: {old!r} vs {new!r}"
        )

    for ln in range(data_start + 1, len(lines) + 1):
        line = lines[ln - 1].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise FcidumpError(f"line {ln}: expected 'value i j k l', got {line!r}")
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise FcidumpError(f"line {ln}: cannot parse {line!r}")
        if not np.isfinite(value):
            raise FcidumpError(f"line {ln}: value {parts[0]!r} is not finite")
        for idx in (i, j, k, l):
            if not 0 <= idx <= n_orb:
                raise FcidumpRangeError(f"line {ln}: index {idx} outside [0, {n_orb}]")
        if i == j == k == l == 0:
            if core_seen and abs(core - value) > DUPLICATE_TOL:
                conflict("core", (0, 0, 0, 0), core, value, ln)
            core, core_seen = value, True
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"line {ln}: one-body row with a zero index")
            key = _one_body_key(i - 1, j - 1)
            if key in one and abs(one[key] - value) > DUPLICATE_TOL:
                conflict("one-body", key, one[key], value, ln)
            one[key] = value
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"line {ln}: mixed zero/nonzero indices {parts[1:]}")
        else:
            key = _two_body_key(i - 1, j - 1, k - 1, l - 1)
            if key in two and abs(two[key] - value) > DUPLICATE_TOL:
                conflict("two-body", key, two[key], value, ln)
            two[key] = value

    ints.core_energy = core
    for (i, j), v in one.items():
        ints.one_body[i, j] = v
        ints.one_body[j, i] = v
    for (i, j, k, l), v in two.items():
        for (a, b) in ((i, j), (j, i)):
            for (c, d) in ((k, l), (l, k)):
                ints.two_body[a, b, c, d] = v
                ints.two_body[c, d, a, b] = v
    return ints


def dumps_fcidump(ints: SpatialIntegrals, tol: float = 0.0) -> str:
    """Serialize to canonical FCIDUMP text (one row per permutation class)."""
    n = ints.n_orb
    out = [f"&FCI NORB={n},NELEC={ints.n_elec},MS2={ints.ms2},", "&END"]
    seen = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    key = _two_body_key(i, j, k, l)
                    v = ints.two_body[i, j, k, l]
                    if key not in seen and abs(v) > tol:
                        seen.add(key)
                        a, b, c, d = key
                        out.append(f"{v:.16e} {a + 1} {b + 1} {c + 1} {d + 1}")
    for i in range(n):
        for j in range(i, n):
            v = ints.one_body[i, j]
            if abs(v) > tol:
                out.append(f"{v:.16e} {i + 1} {j + 1} 0 0")
    out.append(f"{ints.core_energy:.16e} 0 0 0 0")
    return "\n".join(out) + "\n"


def assemble_hamiltonian(ints: SpatialIntegrals) -> FermionOperator:
    """Spin-orbital second-quantized Hamiltonian from spatial integrals.

    H = core + sum_{pq,s} h_pq a+_{ps} a_{qs}
             + 1/2 sum_{pqrs,st} (pq|rs) a+_{ps} a+_{rt} a_{st} a_{qs}
    with interleaved spin-orbital indices; the output is Hermitian term
    by term.
    """
    ints.check_symmetry()
    h = FermionOperator(constant=ints.core_energy)
    n = ints.n_orb
    one, two = ints.one_body, ints.two_body
    for p in range(n):
        for q in range(n):
            if abs(one[p, q]) < 1e-16:
                continue
            for spin in (up, down):
                h.add_term(one[p, q], (spin(p),), (spin(q),))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    v = two[p, q, r, s]
                    if abs(v) < 1e-16:
                        continue
                    for s1 in (up, down):
                        for s2 in (up, down):
                            h.add_term(0.5 * v, (s1(p), s2(r)), (s2(s), s1(q)))
    return h.simplify()
