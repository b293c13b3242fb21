"""Spin-adapted UCC excitation-generator pool.

Singles couple one spatial pair through both spin channels; doubles come in
singlet and triplet spin combinations over a creation spatial pair (p, q)
and an annihilation spatial pair (r, s).  Every generator is skew-Hermitian
(T = -T†), conserves particle number and S_z, and is normalized so the
coefficient vector of its simplified forward (excitation) part has 2-norm 1;
the overall sign is fixed by making the lexicographically first forward term
positive.

Enumeration: singles over p > q; doubles over p <= q, r <= s,
(p, q) <= (r, s), with tuples whose operator vanishes (or duplicates an
earlier one) skipped.  The resulting ordering is deterministic: all singles
first, then doubles lexicographically with singlet before triplet.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .fermion import FermionOperator, down, jordan_wigner, up
from .pauli import PauliSum

SINGLE = "single"
DOUBLE_SINGLET = "double-singlet"
DOUBLE_TRIPLET = "double-triplet"


@dataclass(frozen=True)
class PoolOperator:
    """One spin-adapted excitation generator with both operator forms."""

    kind: str
    spatial: tuple[int, ...]
    fermionic: FermionOperator  # skew-Hermitian, normalized forward part
    qubit: PauliSum             # anti-Hermitian Jordan-Wigner image
    label: str

    @property
    def n_qubits(self) -> int:
        return self.qubit.n_qubits

    def forward_terms(self) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
        """The excitation half of the skew pair (coefficients real)."""
        out = []
        for (cre, ann), c in self.fermionic.sorted_terms():
            if (cre, ann) < (tuple(reversed(ann)), tuple(reversed(cre))):
                out.append((cre, ann, float(c.real)))
        return out


def _single_raw(p: int, q: int) -> FermionOperator:
    op = FermionOperator()
    op.add_term(1.0, (up(p),), (up(q),))
    op.add_term(1.0, (down(p),), (down(q),))
    return op


def _double_singlet_raw(p: int, q: int, r: int, s: int) -> FermionOperator:
    op = FermionOperator()
    op.add_term(+1.0, (up(p), down(q)), (up(r), down(s)))
    op.add_term(-1.0, (up(p), down(q)), (down(r), up(s)))
    op.add_term(-1.0, (down(p), up(q)), (up(r), down(s)))
    op.add_term(+1.0, (down(p), up(q)), (down(r), up(s)))
    return op


def _double_triplet_raw(p: int, q: int, r: int, s: int) -> FermionOperator:
    op = FermionOperator()
    op.add_term(+2.0, (up(p), up(q)), (up(r), up(s)))
    op.add_term(+1.0, (up(p), down(q)), (up(r), down(s)))
    op.add_term(+1.0, (up(p), down(q)), (down(r), up(s)))
    op.add_term(+1.0, (down(p), up(q)), (up(r), down(s)))
    op.add_term(+1.0, (down(p), up(q)), (down(r), up(s)))
    op.add_term(+2.0, (down(p), down(q)), (down(r), down(s)))
    return op


def _normalize_forward(raw: FermionOperator) -> FermionOperator | None:
    """Scale the simplified forward part to unit 2-norm, sign-fixed."""
    raw = raw.simplify()
    if not raw.terms:
        return None
    coeffs = np.array([c.real for _, c in raw.sorted_terms()])
    first = raw.sorted_terms()[0][1].real
    scale = np.sign(first) / np.linalg.norm(coeffs)
    return raw * scale


def _fingerprint(fwd: FermionOperator) -> tuple:
    return tuple((cre, ann, round(c.real, 12)) for (cre, ann), c in fwd.sorted_terms())


def build_pool(n_spatial: int) -> list[PoolOperator]:
    """Deterministic spin-adapted pool over n_spatial spatial orbitals."""
    if n_spatial < 2:
        raise ValueError("pool needs at least 2 spatial orbitals")
    n_qubits = 2 * n_spatial
    ops: list[PoolOperator] = []
    seen: set[tuple] = set()

    def emit(kind: str, spatial: tuple[int, ...], raw: FermionOperator, label: str):
        fwd = _normalize_forward(raw)
        if fwd is None:
            return
        skew = fwd.minus_hc().simplify()
        if not skew.terms:
            return
        fp = _fingerprint(fwd)
        if fp in seen:
            return
        seen.add(fp)
        ops.append(PoolOperator(kind, spatial, skew,
                                jordan_wigner(skew, n_qubits), label))

    for p in range(1, n_spatial):
        for q in range(p):
            emit(SINGLE, (p, q), _single_raw(p, q), f"s({p},{q})")

    pairs = list(combinations_with_replacement(range(n_spatial), 2))
    for ci, (p, q) in enumerate(pairs):
        for (r, s) in pairs[ci:]:
            emit(DOUBLE_SINGLET, (p, q, r, s),
                 _double_singlet_raw(p, q, r, s), f"dS({p},{q},{r},{s})")
            emit(DOUBLE_TRIPLET, (p, q, r, s),
                 _double_triplet_raw(p, q, r, s), f"dT({p},{q},{r},{s})")
    return ops


def pool_to_json(pool: list[PoolOperator]) -> list[dict]:
    """Audit dump: label, indices, kind and the Pauli form of each element."""
    return [
        {
            "index": i,
            "label": op.label,
            "kind": op.kind,
            "spatial": list(op.spatial),
            "forward_terms": [
                {"cre": list(cre), "ann": list(ann), "coeff": c}
                for cre, ann, c in op.forward_terms()
            ],
            "pauli": str(op.qubit),
        }
        for i, op in enumerate(pool)
    ]
