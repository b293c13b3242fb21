"""Analytic quantum-resource estimates: CNOT counts and measurement scaling.

Closed forms assume order-1 Trotterization of the skew-Hermitian excitation
pairs a+_p a_q - h.c. (index order q < p) and a+_p a+_r a_q a_s - h.c.
(index order q < s < p < r); _CLOSED_FORMS is their table, one row per
scheme (givens-adjacent assumes all indices adjacent).

A spin-adapted pool operator is costed as the sum over its constituent skew
pairs.  Pairs with a repeated spin orbital (occupation-weighted excitations
from degenerate spatial tuples) have no published closed form: the standard
scheme counts their Pauli CNOT ladders exactly, the others apply the closed
form to the sorted index multiset.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .adapt import AdaptTrace
from .fermion import FermionOperator, jordan_wigner
from .pool import PoolOperator
from .subspace import BasisRecipe

STANDARD = "standard-trotter"
REDUCED = "reduced"
GIVENS_FSWAP = "givens-fswap"
GIVENS_ADJACENT = "givens-adjacent"

# scheme: (single's count from d = p - q, double's count from (q, s, p, r))
_CLOSED_FORMS = {
    STANDARD:        (lambda d: 4 * d,     lambda q, s, p, r: 16 * (s - q + r - p + 1)),
    REDUCED:         (lambda d: 2 * d + 1, lambda q, s, p, r: 2 * (s - q + r - p) + 9),
    GIVENS_FSWAP:    (lambda d: 6 * d - 4, lambda q, s, p, r: 6 * (r - s + p - q) - 10),
    GIVENS_ADJACENT: (lambda d: 2,         lambda q, s, p, r: 14),
}
SCHEMES = tuple(_CLOSED_FORMS)


class IndexOrderError(ValueError):
    """Raw index tuple violates the required ordering."""


def _ladder_count(op: FermionOperator, n_qubits: int) -> int:
    """Exact standard-Trotter count: 2(weight - 1) CNOTs per Pauli string."""
    image = jordan_wigner(op, n_qubits)
    return sum(2 * (p.weight - 1) for p in image.terms if p.weight >= 2)


# a recipe repeats the operators of the one before it: each pair is counted once
@functools.cache
def _pair_count(cre: tuple[int, ...], ann: tuple[int, ...], scheme: str,
                n_qubits: int) -> int:
    indices = tuple(cre) + tuple(ann)
    if len(indices) == 2:
        return _CLOSED_FORMS[scheme][0](max(indices) - min(indices))
    distinct = sorted(set(indices))
    if len(distinct) == 4:
        return _CLOSED_FORMS[scheme][1](*distinct)
    # repeated spin orbital: no closed form in the non-degenerate tables
    if scheme == STANDARD:
        op = FermionOperator()
        op.add_term(1.0, cre, ann)
        return _ladder_count(op.minus_hc(), n_qubits)
    return _CLOSED_FORMS[scheme][1](*sorted(indices))


def cnot_count(op, scheme: str = STANDARD) -> int:
    """CNOT cost of one generator under a gate-construction scheme.

    ``op`` is a PoolOperator (summed over its skew pairs) or a raw index
    tuple: (p, q) with q < p for a single, (q, s, p, r) with q < s < p < r
    for a double.  Raw tuples violating the ordering raise IndexOrderError.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if isinstance(op, PoolOperator):
        total = 0
        for cre, ann, _ in op.forward_terms():
            total += _pair_count(cre, ann, scheme, op.n_qubits)
        return total
    idx = tuple(int(i) for i in op)
    if len(idx) == 2:
        p, q = idx
        if not q < p:
            raise IndexOrderError(f"single excitation needs q < p, got {idx}")
        return _CLOSED_FORMS[scheme][0](p - q)
    if len(idx) == 4:
        q, s, p, r = idx
        if not q < s < p < r:
            raise IndexOrderError(f"double excitation needs q < s < p < r, got {idx}")
        return _CLOSED_FORMS[scheme][1](q, s, p, r)
    raise ValueError(f"expected a 2- or 4-index tuple, got {idx!r}")


def ansatz_cnot_total(recipe: BasisRecipe, pool: list[PoolOperator],
                      scheme: str = STANDARD) -> int:
    """Total CNOTs of the product circuit described by a recipe."""
    return sum(cnot_count(pool[i], scheme) for i in recipe.pool_indices())


@dataclass(frozen=True)
class MeasurementEstimate:
    """Measurement-count scaling inputs and totals for one completed trace."""

    n_iterations: int
    n_generating_functions: int
    n_hamiltonian_terms: int
    total_opt_rounds: int
    vqe_style_total: int      # optimization rounds + gradient screening
    gcim_style_total: int     # matrix build (quadratic in basis size) + screening


def measurement_estimate(trace: AdaptTrace, n_term: int) -> MeasurementEstimate:
    """Per-algorithm measurement totals from a completed trace.

    VQE-style cost is optimization energy evaluations plus per-iteration
    gradient screening; the subspace route instead pays a matrix build that
    grows with the square of the basis size but only linearly per iteration.
    """
    n_iter = trace.iterations
    n_gf = len(trace.basis) if trace.basis is not None else 0
    opt = trace.total_opt_rounds
    screening = n_term * n_iter
    return MeasurementEstimate(
        n_iterations=n_iter,
        n_generating_functions=n_gf,
        n_hamiltonian_terms=n_term,
        total_opt_rounds=opt,
        vqe_style_total=opt + screening,
        gcim_style_total=n_gf ** 2 + screening,
    )
