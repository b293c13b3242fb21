import numpy as np
import pytest

from gcim.adapt import AdaptConfig, run_algorithm
from gcim.pool import build_pool
from gcim.resources import (
    GIVENS_ADJACENT,
    GIVENS_FSWAP,
    REDUCED,
    SCHEMES,
    STANDARD,
    IndexOrderError,
    ansatz_cnot_total,
    cnot_count,
    measurement_estimate,
)
from gcim.subspace import BasisRecipe


def test_fixed_points():
    assert cnot_count((1, 0), STANDARD) == 4
    assert cnot_count((3, 0), STANDARD) == 12
    # fully adjacent double: 16(s-q + r-p + 1) = 48, which equals the
    # Pauli-ladder count of 8 strings x 6 CNOTs
    assert cnot_count((0, 1, 2, 3), STANDARD) == 48
    assert cnot_count((0, 1, 2, 3), GIVENS_FSWAP) == 14  # adjacent double
    assert cnot_count((1, 0), GIVENS_ADJACENT) == 2
    assert cnot_count((0, 1, 2, 3), GIVENS_ADJACENT) == 14


def test_exhaustive_closed_forms_small_indices():
    for q in range(12):
        for p in range(q + 1, 13):
            assert cnot_count((p, q), STANDARD) == 4 * (p - q)
            assert cnot_count((p, q), REDUCED) == 2 * (p - q) + 1
            assert cnot_count((p, q), GIVENS_FSWAP) == 6 * (p - q) - 4
    for q in range(10):
        for s in range(q + 1, 11):
            for p in range(s + 1, 12):
                for r in range(p + 1, 13):
                    assert cnot_count((q, s, p, r), STANDARD) == \
                        16 * (s - q + r - p + 1)
                    assert cnot_count((q, s, p, r), REDUCED) == \
                        2 * (s - q + r - p) + 9
                    assert cnot_count((q, s, p, r), GIVENS_FSWAP) == \
                        6 * (r - s + p - q) - 10


def test_reduced_never_exceeds_standard():
    for q in range(8):
        for p in range(q + 1, 9):
            assert cnot_count((p, q), REDUCED) <= cnot_count((p, q), STANDARD)
    for q in range(6):
        for s in range(q + 1, 7):
            for p in range(s + 1, 8):
                for r in range(p + 1, 9):
                    t = (q, s, p, r)
                    assert cnot_count(t, REDUCED) <= cnot_count(t, STANDARD)


def test_monotone_in_spread():
    singles = [cnot_count((p, 0), STANDARD) for p in range(1, 10)]
    assert all(b > a for a, b in zip(singles, singles[1:]))
    doubles = [cnot_count((0, 1, 2, r), STANDARD) for r in range(3, 10)]
    assert all(b > a for a, b in zip(doubles, doubles[1:]))


def test_index_order_validation():
    with pytest.raises(IndexOrderError):
        cnot_count((0, 1), STANDARD)
    with pytest.raises(IndexOrderError):
        cnot_count((1, 0, 2, 3), STANDARD)
    with pytest.raises(ValueError):
        cnot_count((1, 2, 3), STANDARD)
    with pytest.raises(ValueError):
        cnot_count((1, 0), "macro")


def test_pool_operator_standard_matches_pauli_ladder():
    # the closed-form dispatch must agree with counting CNOT ladders over
    # the generator's Jordan-Wigner strings, for every pool element
    from gcim.fermion import FermionOperator, jordan_wigner

    from helpers import minus_hc

    for n_spatial in (2, 3, 4):
        pool = build_pool(n_spatial)
        for op in pool:
            ladder = 0
            for cre, ann, _ in op.forward_terms():
                pair = FermionOperator()
                pair.add_term(1.0, cre, ann)
                image = jordan_wigner(minus_hc(pair), op.n_qubits)
                ladder += sum(2 * (p.weight - 1) for p in image.terms
                              if p.weight >= 2)
            assert cnot_count(op, STANDARD) == ladder, op.label


def test_pool_single_sums_spin_channels():
    pool = build_pool(2)
    single = next(op for op in pool if op.label == "s(1,0)")
    # spin-orbital pairs (2,0) and (3,1): 4*2 CNOTs each
    assert cnot_count(single, STANDARD) == 16


def test_unknown_scheme_is_refused():
    pool = build_pool(2)
    for op in (pool[0], (1, 0), (0, 1, 2, 3)):
        with pytest.raises(ValueError, match="unknown scheme"):
            cnot_count(op, "bogus")


def test_ansatz_totals_additive_and_permutation_invariant():
    pool = build_pool(3)
    recipe = BasisRecipe(((0, 0.3), (4, -0.2), (7, 1.0)))
    for scheme in SCHEMES:
        total = ansatz_cnot_total(recipe, pool, scheme)
        parts = sum(cnot_count(pool[i], scheme) for i in (0, 4, 7))
        assert total == parts
        shuffled = BasisRecipe(((7, 1.0), (0, 0.3), (4, -0.2)))
        assert ansatz_cnot_total(shuffled, pool, scheme) == total
    assert ansatz_cnot_total(BasisRecipe(), pool, STANDARD) == 0


def test_measurement_estimate_scalings(toy):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    est = measurement_estimate(trace, n_term=len(h))
    assert est.n_generating_functions == 2 * est.n_iterations
    assert est.gcim_style_total == est.n_generating_functions ** 2 \
        + est.n_hamiltonian_terms * est.n_iterations
    assert est.vqe_style_total == est.total_opt_rounds \
        + est.n_hamiltonian_terms * est.n_iterations

    # per-iteration matrix-build growth is linear in the basis size
    totals = [(2 * k) ** 2 for k in range(1, 6)]
    diffs = np.diff(totals)
    assert np.all(np.diff(diffs) == 8)  # affine-linear growth in k


def test_measurement_estimate_empty_trace():
    from gcim.adapt import AdaptTrace

    est = measurement_estimate(AdaptTrace(algorithm="adapt-gcim"), n_term=10)
    assert est.vqe_style_total == 0 and est.gcim_style_total == 0
