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

Each candidate's terms are built in one pass over plain dicts, with the
arithmetic (and so the bits) of FermionOperator's add_term, simplify, scaling
and minus_hc: the raw terms canonicalized by fermion.normal_term and summed,
the forward part scaled, then the skew dict: forward terms, adjoints with -c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement

from .fermion import FermionOperator, down, jordan_wigner_all, normal_term, up
from .pauli import PauliSum, above_cutoff
from .statevector import bind_generators

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
        return _forward_terms(self.fermionic)


def _forward_terms(skew: FermionOperator) -> list[tuple[tuple[int, ...], tuple[int, ...], float]]:
    out = []
    for (cre, ann), c in skew.sorted_terms():
        if (cre, ann) < (tuple(reversed(ann)), tuple(reversed(cre))):
            out.append((cre, ann, float(c.real)))
    return out


def _single_raw(p: int, q: int) -> list:
    return [(1.0, (up(p),), (up(q),)), (1.0, (down(p),), (down(q),))]


def _double_singlet_raw(p: int, q: int, r: int, s: int) -> list:
    return [(+1.0, (up(p), down(q)), (up(r), down(s))),
            (-1.0, (up(p), down(q)), (down(r), up(s))),
            (-1.0, (down(p), up(q)), (up(r), down(s))),
            (+1.0, (down(p), up(q)), (down(r), up(s)))]


def _double_triplet_raw(p: int, q: int, r: int, s: int) -> list:
    return [(+2.0, (up(p), up(q)), (up(r), up(s))),
            (+1.0, (up(p), down(q)), (up(r), down(s))),
            (+1.0, (up(p), down(q)), (down(r), up(s))),
            (+1.0, (down(p), up(q)), (up(r), down(s))),
            (+1.0, (down(p), up(q)), (down(r), up(s))),
            (+2.0, (down(p), down(q)), (down(r), down(s)))]


def _skew_terms(raw: list) -> tuple[tuple, dict] | None:
    """Fingerprint and skew terms of one candidate; None if the skew vanishes.
    The summed raw coefficients are small integers, so their squares add up
    exactly in any order; the forward ones are real, so an adjoint's is -c."""
    fwd: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
    for coeff, cre, ann in raw:
        term = normal_term(coeff, cre, ann)
        if term is not None:
            fwd[term[1:]] = fwd.get(term[1:], 0.0) + term[0]
    fwd = {key: c for key, c in fwd.items() if above_cutoff(c)}
    if not fwd:
        return None
    scale = math.copysign(1.0, fwd[min(fwd)].real) / math.sqrt(
        sum([c.real * c.real for c in fwd.values()]))
    fwd = {key: c * scale for key, c in fwd.items()}
    skew = dict(fwd)
    for (cre, ann), c in fwd.items():
        skew[ann[::-1], cre[::-1]] = skew.get((ann[::-1], cre[::-1]), 0.0) + c * -1.0
    skew = {key: c for key, c in skew.items() if above_cutoff(c)}
    fingerprint = tuple([(cre, ann, round(c.real, 12)) for (cre, ann), c in sorted(fwd.items())])
    return (fingerprint, skew) if skew else None


def build_pool(n_spatial: int) -> list[PoolOperator]:
    """Deterministic spin-adapted pool over n_spatial spatial orbitals.

    Every Jordan-Wigner image comes from one jordan_wigner_all pass over
    the whole pool.  The qubit forms are bound together to their excitation
    terms, so the statevector engine compiles every generator from those
    terms by determinant string rules, all of them at once per state space;
    the images stay for pool.json and the Pauli-level checks.
    """
    if n_spatial < 2:
        raise ValueError("pool needs at least 2 spatial orbitals")
    n_qubits = 2 * n_spatial
    elements: list[tuple[str, tuple[int, ...], FermionOperator, str]] = []
    seen: set[tuple] = set()

    def emit(kind: str, spatial: tuple[int, ...], raw: list, label: str):
        terms = _skew_terms(raw)
        if terms is not None and terms[0] not in seen:
            seen.add(terms[0])
            elements.append((kind, spatial, FermionOperator(0.0, terms[1]), label))

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
    images = jordan_wigner_all([skew for _, _, skew, _ in elements], n_qubits)
    ops = [PoolOperator(kind, spatial, skew, image, label)
           for (kind, spatial, skew, label), image in zip(elements, images)]
    # bound to the fermionic forms alone: a bound method would reach back to
    # the qubit form, whose cache holds the binding
    bind_generators([op.qubit for op in ops],
                    [partial(_forward_terms, op.fermionic) for op in ops])
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
