"""FCIDUMP ingestion and spin-orbital Hamiltonian assembly.

Accepts the common FCIDUMP dialect: an &FCI namelist naming NORB, NELEC and
MS2 (ORBSYM/ISYM parsed and ignored), closed by "&END", "$END" or "/",
followed by integral rows "value i j k l" with 1-based orbital indices.
Every row names one class of chemist-notation (ij|kl) under the 8-fold real
permutation symmetry, with 0 standing for "no orbital": (00|00) is the core
energy, (ij|00) the one-body element h_ij and (ij|kl) with all four indices
nonzero a two-electron integral.  The parser keys each row by its class's
lexicographically first member, so one table and one duplicate rule serve
all three kinds; the serializer writes each two-body class at that member.
See docs/formats.md for the grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .fermion import FermionOperator, down, up

DUPLICATE_TOL = 1e-10
# what a row's class is, by the number of zero indices in its key
_KINDS = {4: "core", 2: "one-body", 0: "two-body"}


class FcidumpError(ValueError):
    """Malformed FCIDUMP content; message carries the offending line number."""


class FcidumpRangeError(FcidumpError):
    """Orbital index outside [0, NORB]."""


class FcidumpConsistencyError(FcidumpError):
    """Symmetry-equivalent entries specified with conflicting values."""


def _class_key(i: int, j: int, k: int, l: int) -> tuple[int, int, int, int]:
    """Lexicographically first member of the 8-fold class of (ij|kl)."""
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
        for name, shape in (("one_body", (n, n)), ("two_body", (n, n, n, n))):
            value = getattr(self, name)
            value = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
            setattr(self, name, value)
        self._check_finite()

    @property
    def n_alpha(self) -> int:
        return (self.n_elec + self.ms2) // 2

    @property
    def n_beta(self) -> int:
        return (self.n_elec - self.ms2) // 2

    def _check_finite(self) -> None:
        for name in ("core_energy", "one_body", "two_body"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} holds a value that is not finite")

    def check_symmetry(self, tol: float = 1e-12) -> None:
        """Raise ValueError unless every value is finite and h and (pq|rs)
        have their permutation symmetries to within tol."""
        self._check_finite()
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

    table: dict[tuple[int, int, int, int], float] = {}
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
        if k == l == 0:
            if (i == 0) != (j == 0):
                raise FcidumpError(f"line {ln}: one-body row with a zero index")
        elif 0 in (i, j, k, l):
            raise FcidumpError(f"line {ln}: mixed zero/nonzero indices {parts[1:]}")
        key = _class_key(i, j, k, l)
        if key in table and abs(table[key] - value) > DUPLICATE_TOL:
            raise FcidumpConsistencyError(
                f"line {ln}: conflicting duplicate {_KINDS[key.count(0)]} entry "
                f"{i} {j} {k} {l}: {table[key]!r} vs {value!r}")
        table[key] = value

    # every class of (n_orb + 1)-index integrals, index 0 being FCIDUMP's zero
    full = np.zeros((n_orb + 1,) * 4)
    for (i, j, k, l), v in table.items():
        for a in ((i, j), (j, i)):
            for b in ((k, l), (l, k)):
                full[a + b] = full[b + a] = v
    ints.core_energy = float(full[0, 0, 0, 0])
    ints.one_body = full[1:, 1:, 0, 0].copy()
    ints.two_body = full[1:, 1:, 1:, 1:].copy()
    return ints


def dumps_fcidump(ints: SpatialIntegrals, tol: float = 0.0) -> str:
    """Serialize to canonical FCIDUMP text (one row per permutation class).

    A class is written at its first member, so integrals that break the
    symmetry would lose their other members: check_symmetry runs first.
    """
    ints.check_symmetry()
    n = ints.n_orb
    out = [f"&FCI NORB={n},NELEC={ints.n_elec},MS2={ints.ms2},", "&END"]
    two = ints.two_body
    for i, j, k, l in np.argwhere(np.abs(two) > tol).tolist():
        if (i, j, k, l) == _class_key(i, j, k, l):
            out.append(f"{two[i, j, k, l]:.16e} {i + 1} {j + 1} {k + 1} {l + 1}")
    one = ints.one_body
    for i, j in np.argwhere(np.abs(one) > tol).tolist():
        if i <= j:
            out.append(f"{one[i, j]:.16e} {i + 1} {j + 1} 0 0")
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
    one, two = ints.one_body, ints.two_body
    for p, q in np.argwhere(np.abs(one) >= 1e-16).tolist():
        for spin in (up, down):
            h.add_term(one[p, q], (spin(p),), (spin(q),))
    for p, q, r, s in np.argwhere(np.abs(two) >= 1e-16).tolist():
        v = two[p, q, r, s]
        for s1 in (up, down):
            for s2 in (up, down):
                h.add_term(0.5 * v, (s1(p), s2(r)), (s2(s), s1(q)))
    return h.simplify()
