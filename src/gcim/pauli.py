"""Pauli-string algebra on a fixed qubit register.

Strings are stored as (x, z) bit masks: bit j of ``x`` / ``z`` marks an X / Z
component on qubit j, and (x_j, z_j) = (1, 1) is Y.  A string with Y count y
represents the operator i**y * X^x * Z^z, so the letter form "XYZ..." always
carries unit coefficient.  Qubit 0 is the first character of the letter form
and the least-significant bit of a statevector index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

COEFF_CUTOFF = 1e-14

_LETTER_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
# letter form of four qubits, indexed by x nibble + 16 * z nibble
_NIBBLE_LETTERS = tuple(
    "".join(_XZ_TO_LETTER[(x >> j) & 1, (z >> j) & 1] for j in range(4))
    for z in range(16) for x in range(16))


def above_cutoff(c: complex) -> bool:
    """Whether |c| >= COEFF_CUTOFF; a NaN or infinite c raises ValueError,
    where the cutoff alone would drop a NaN without a word."""
    a = abs(c)
    if a < math.inf:
        return a >= COEFF_CUTOFF
    raise ValueError(f"coefficient {c} is not finite")


class PauliFormatError(ValueError):
    """Raised on malformed Pauli text/JSON input."""


class ResourceLimitError(RuntimeError):
    """Raised when a dense-matrix request exceeds the supported size."""


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis over ``n`` qubits."""

    x: int
    z: int
    n: int

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        x = z = 0
        for j, ch in enumerate(label):
            try:
                xb, zb = _LETTER_TO_XZ[ch]
            except KeyError:
                raise PauliFormatError(f"illegal Pauli character {ch!r} in {label!r}")
            x |= xb << j
            z |= zb << j
        return cls(x, z, len(label))

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(0, 0, n)

    @property
    def label(self) -> str:
        x, z = self.x, self.z
        return "".join([_NIBBLE_LETTERS[(x >> j & 15) | (z >> j & 15) << 4]
                        for j in range(0, self.n, 4)])[:self.n]

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x | self.z).bit_count()

    def __str__(self) -> str:
        return self.label


I_POWERS = tuple((1j) ** k for k in range(4))


def mask_mul(ax: int, az: int, bx: int, bz: int) -> tuple[complex, int, int]:
    """Product of the strings (ax, az) * (bx, bz) = phase * (x, z) on bare masks."""
    x, z = ax ^ bx, az ^ bz
    # i^(ya+yb-yc) from Y bookkeeping, (-1)^(za.xb) from commuting Z past X
    k = ((ax & az).bit_count() + (bx & bz).bit_count() - (x & z).bit_count()
         + 2 * (az & bx).bit_count())
    return I_POWERS[k % 4], x, z


def pauli_mul(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Product a*b = phase * c with phase in {1, i, -1, -i}."""
    if a.n != b.n:
        raise ValueError(f"qubit-count mismatch: {a.n} vs {b.n}")
    phase, x, z = mask_mul(a.x, a.z, b.x, b.z)
    return phase, PauliString(x, z, a.n)


class PauliSum:
    """Complex-weighted sum of PauliStrings on a common register.

    The algebra merges duplicate strings in the dict it builds; construction
    drops terms with |coefficient| < COEFF_CUTOFF and refuses a NaN or
    infinite one.
    Instances are treated as immutable once built; all algebra returns
    new objects.  That is what lets statevector cache its compiled forms,
    one per state space, in the ``_compiled`` slot on first use.
    """

    __slots__ = ("n_qubits", "terms", "_compiled")

    def __init__(self, n_qubits: int, terms: dict[PauliString, complex] | None = None):
        self.n_qubits = n_qubits
        self.terms: dict[PauliString, complex] = {}
        self._compiled = None
        # a dict's keys are distinct, so one pass: each coefficient is added to
        # a complex zero and kept unless it falls below the cutoff.  A complex
        # zero, not 0.0: Python 3.14 adds a float to the real part only, which
        # would keep a -0.0 imaginary part that complex (and numpy) addition
        # makes +0.0
        for p, c in (terms or {}).items():
            if p.n != n_qubits:
                raise ValueError("term register size mismatch")
            c = 0j + complex(c)
            if above_cutoff(c):
                self.terms[p] = c

    @classmethod
    def from_checked(cls, n_qubits: int, terms: dict[PauliString, complex]) -> "PauliSum":
        """A sum holding terms as given, which the caller has checked: keys on
        this register, values finite complex 0j + c at or above the cutoff."""
        out = cls(n_qubits)
        out.terms = terms
        return out

    @classmethod
    def from_label_dict(cls, d: dict[str, complex]) -> "PauliSum":
        if not d:
            return cls(0)
        labels = list(d)
        n = len(labels[0])
        if any(len(s) != n for s in labels):
            raise PauliFormatError("Pauli labels of unequal length")
        return cls(n, {PauliString.from_label(s): c for s, c in d.items()})

    @classmethod
    def identity(cls, n: int, coeff: complex = 1.0) -> "PauliSum":
        return cls(n, {PauliString.identity(n): coeff})

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("register size mismatch")
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0j) + c
        return PauliSum(self.n_qubits, out)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n_qubits != other.n_qubits:
                raise ValueError("register size mismatch")
            out: dict[PauliString, complex] = {}
            for pa, ca in self.terms.items():
                for pb, cb in other.terms.items():
                    ph, pc = pauli_mul(pa, pb)
                    out[pc] = out.get(pc, 0j) + ca * cb * ph
            return PauliSum(self.n_qubits, out)
        out = {p: c * other for p, c in self.terms.items()}
        return PauliSum(self.n_qubits, out)

    __rmul__ = __mul__

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n_qubits, {p: np.conj(c) for p, c in self.terms.items()})

    def commutator(self, other: "PauliSum") -> "PauliSum":
        return self * other - other * self

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self.terms.values())

    def is_anti_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.real) <= tol for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[PauliString, complex]]:
        return sorted(self.terms.items(), key=lambda pc: pc[0].label)

    def __str__(self) -> str:
        if not self.terms:
            return "(empty)"
        parts = []
        # one label per term: it is both the sort key and the text
        for label, c in sorted(((p.label, c) for p, c in self.terms.items()),
                               key=itemgetter(0)):
            if abs(c.imag) < COEFF_CUTOFF:
                val, fmt = c.real, f"{abs(c.real):.12g}"
                sign = "-" if val < 0 else "+"
            else:
                sign, fmt = "+", f"({c.real:.12g}{c.imag:+.12g}j)"
            parts.append(f"{sign}{fmt}·{label}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n_qubits}, terms={len(self.terms)})"


def jw_to_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a PauliSum; qubit 0 least significant.

    Brute-force oracle backend; refuses n > 16.
    """
    n = h.n_qubits
    if n > 16:
        raise ResourceLimitError(f"dense 2^{n} matrix exceeds the supported size")
    dim = 1 << n
    idx = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for p, c in h.terms.items():
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & p.z) & 1)
        mat[idx ^ p.x, idx] += c * (1j) ** p.y_count * signs
    return mat


def parse_pauli_json(text: str) -> PauliSum:
    """Parse a qubit Hamiltonian from JSON.

    The document is a list of records {"pauli": str over IXYZ,
    "coeff_re": float, "coeff_im": float}; all strings equal length.
    Duplicate strings merge by coefficient addition; a coefficient that is
    not finite, alone or merged, is a format error.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PauliFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise PauliFormatError("top-level JSON value must be a list of term records")
    if not doc:
        return PauliSum(0)
    n = None
    out: dict[PauliString, complex] = {}
    for k, rec in enumerate(doc):
        # exact JSON types: a label or coefficient of another type (a number,
        # null, a string, a boolean) is a format error, not a TypeError below
        if not (isinstance(rec, dict) and type(rec.get("pauli")) is str
                and all(type(rec.get(key, 0.0)) in (int, float)
                        for key in ("coeff_re", "coeff_im"))):
            raise PauliFormatError(f"malformed term record {k}: {rec!r}")
        label = rec["pauli"]
        if n is None:
            n = len(label)
        elif len(label) != n:
            raise PauliFormatError(
                f"Pauli string length {len(label)} != {n} in {label!r}"
            )
        try:
            coeff = complex(float(rec.get("coeff_re", 0.0)), float(rec.get("coeff_im", 0.0)))
        except OverflowError as exc:
            raise PauliFormatError(
                f"coefficient of term record {k} ({label}) overflows a float") from exc
        p = PauliString.from_label(label)
        out[p] = out.get(p, 0.0) + coeff
        if not np.isfinite(out[p]):
            raise PauliFormatError(
                f"coefficient of term record {k} ({label}) is not finite")
    return PauliSum(n, out)


def pauli_sum_to_json(h: PauliSum) -> str:
    """Serialize to the canonical (merged, label-sorted) JSON form."""
    recs = [
        {"pauli": p.label, "coeff_re": c.real, "coeff_im": c.imag}
        for p, c in h.sorted_terms()
    ]
    return json.dumps(recs, indent=1)
