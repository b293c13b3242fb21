"""Spin-adapted UCC excitation-generator pool.

Singles couple one spatial pair through both spin channels; doubles come in
singlet and triplet spin combinations over a creation spatial pair (p, q)
and an annihilation spatial pair (r, s).  Every generator is skew-Hermitian
(T = -T†), conserves particle number and S_z, and is normalized so the
coefficient vector of its simplified forward (excitation) part has 2-norm 1;
the overall sign is fixed by making the lexicographically first forward term
positive.

Enumeration: singles over p > q; singlet doubles over p <= q, r <= s,
(p, q) < (r, s); triplet doubles over the same tuples with p < q and r < s.
That is every generator, once: swapping p and q, r and s, or the two pairs
gives the same generator up to sign; (p, q) = (r, s) gives a Hermitian
excitation whose skew part is zero; a doubly occupied spatial pair has no
triplet; and distinct tuples excite between distinct spatial pairs, while a
triplet has same-spin terms that its singlet lacks, so no two generators
are equal.  The order is deterministic: all singles first, then doubles
lexicographically with singlet before triplet.

Each generator's terms are built in one pass over plain dicts, with the
arithmetic (and so the bits) of FermionOperator's add_term, then scaling,
then subtracting the adjoint: the raw terms canonicalized by
fermion.normal_term and summed (the sums are small nonzero integers), the
forward part scaled, then the skew dict: forward terms, then each adjoint
as 0.0 + c * -1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .fermion import FermionOperator, down, jordan_wigner_all, normal_term, up
from .pauli import PauliSum
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
        return [(cre, ann, float(c.real)) for (cre, ann), c in self.fermionic.sorted_terms()
                if (cre, ann) < (ann[::-1], cre[::-1])]


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


def _skew_terms(raw: list) -> dict:
    """Skew terms of one generator: the raw terms canonicalized by
    fermion.normal_term and summed, scaled, then their adjoints with -c.
    The summed raw coefficients are small integers, so their squares add up
    exactly in any order; the forward ones are real, so an adjoint's is -c."""
    fwd: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
    for coeff, cre, ann in raw:
        c, cre, ann = normal_term(coeff, cre, ann)
        fwd[cre, ann] = fwd.get((cre, ann), 0.0) + c
    scale = math.copysign(1.0, fwd[min(fwd)].real) / math.sqrt(
        sum([c.real * c.real for c in fwd.values()]))
    skew = {key: c * scale for key, c in fwd.items()}
    skew.update({(ann[::-1], cre[::-1]): 0.0 + c * -1.0 for (cre, ann), c in skew.items()})
    return skew


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
    elements = [(SINGLE, (p, q), _single_raw(p, q), f"s({p},{q})")
                for p in range(1, n_spatial) for q in range(p)]
    pairs = list(combinations_with_replacement(range(n_spatial), 2))
    for ci, (p, q) in enumerate(pairs):
        for (r, s) in pairs[ci + 1:]:
            elements.append((DOUBLE_SINGLET, (p, q, r, s),
                             _double_singlet_raw(p, q, r, s), f"dS({p},{q},{r},{s})"))
            if p < q and r < s:
                elements.append((DOUBLE_TRIPLET, (p, q, r, s),
                                 _double_triplet_raw(p, q, r, s), f"dT({p},{q},{r},{s})"))
    skews = [FermionOperator(0.0, _skew_terms(raw)) for _, _, raw, _ in elements]
    images = jordan_wigner_all(skews, 2 * n_spatial)
    ops = [PoolOperator(kind, spatial, skew, image, label)
           for (kind, spatial, _, label), skew, image in zip(elements, skews, images)]
    bind_generators([op.qubit for op in ops], [op.forward_terms() for op in ops])
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
