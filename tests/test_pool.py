import gc
import hashlib
import json
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

from gcim.fermion import FermionOperator
from gcim.pool import (
    DOUBLE_SINGLET,
    DOUBLE_TRIPLET,
    SINGLE,
    _double_singlet_raw,
    _double_triplet_raw,
    _single_raw,
    build_pool,
    pool_to_json,
)
from gcim.statevector import apply_generators, apply_paulisum, hf_state

from helpers import (
    commutator,
    dense_from_sum,
    fermion_dense,
    fermion_mul,
    fermion_sub,
    identity_sum,
    jw_to_matrix,
    minus_hc,
    number_operator,
    random_hermitian_sum,
    random_state,
    sz_operator,
)


def _find(pool, label):
    for op in pool:
        if op.label == label:
            return op
    raise KeyError(label)


def _table_operator(rows, norm):
    """Expected skew operator from explicit [c, cre, ann] rows (then -h.c.)."""
    fwd = FermionOperator()
    for c, cre, ann in rows:
        fwd.add_term(c / norm, cre, ann)
    return minus_hc(fwd).simplify()


def _same_up_to_sign(a: FermionOperator, b: FermionOperator, tol=1e-12) -> bool:
    for sign in (1.0, -1.0):
        diff = fermion_sub(a, fermion_mul(b, sign)).simplify()
        if not diff.terms and abs(diff.constant) < tol:
            return True
    return False


def test_singlet_1122_collapses_to_one_pair():
    pool = build_pool(3)
    op = _find(pool, "dS(1,1,2,2)")
    expected = _table_operator([(1.0, (3, 2), (5, 4))], norm=1.0)
    assert _same_up_to_sign(op.fermionic, expected)


def test_singlet_0123_matches_four_term_row():
    pool = build_pool(4)
    op = _find(pool, "dS(0,1,2,3)")
    rows = [
        (+1.0, (2, 1), (6, 5)),
        (-1.0, (2, 1), (7, 4)),
        (-1.0, (3, 0), (6, 5)),
        (+1.0, (3, 0), (7, 4)),
    ]
    expected = _table_operator(rows, norm=2.0)
    assert _same_up_to_sign(op.fermionic, expected)


def test_triplet_0103_matches_six_term_row():
    pool = build_pool(4)
    op = _find(pool, "dT(0,1,0,3)")
    rows = [
        (+2.0, (2, 0), (6, 0)),
        (+1.0, (2, 1), (6, 1)),
        (+1.0, (2, 1), (7, 0)),
        (+1.0, (3, 0), (6, 1)),
        (+1.0, (3, 0), (7, 0)),
        (+2.0, (3, 1), (7, 1)),
    ]
    expected = _table_operator(rows, norm=np.sqrt(12.0))
    assert _same_up_to_sign(op.fermionic, expected)


@pytest.mark.parametrize("n_spatial", [2, 3])
def test_pool_elements_anti_hermitian_dense(n_spatial):
    for op in build_pool(n_spatial):
        mat = jw_to_matrix(op.qubit)
        assert np.max(np.abs(mat + mat.conj().T)) < 1e-14


@pytest.mark.parametrize("n_spatial", [2, 3])
def test_pool_conserves_particle_number_and_sz(n_spatial):
    n_so = 2 * n_spatial
    n_mat = fermion_dense(number_operator(n_so), n_so)
    sz_mat = fermion_dense(sz_operator(n_so), n_so)
    for op in build_pool(n_spatial):
        mat = jw_to_matrix(op.qubit)
        assert np.max(np.abs(mat @ n_mat - n_mat @ mat)) < 1e-12
        assert np.max(np.abs(mat @ sz_mat - sz_mat @ mat)) < 1e-12


def test_forward_normalization_unit():
    for op in build_pool(3):
        coeffs = np.array([c for _, _, c in op.forward_terms()])
        assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)


def test_pool_ordering_deterministic():
    a = [op.label for op in build_pool(3)]
    b = [op.label for op in build_pool(3)]
    assert a == b
    n_singles = sum(1 for op in build_pool(3) if op.kind == SINGLE)
    assert all(op.kind == SINGLE for op in build_pool(3)[:n_singles])


def test_pool_kinds_present():
    pool = build_pool(4)
    kinds = {op.kind for op in pool}
    assert kinds == {SINGLE, DOUBLE_SINGLET, DOUBLE_TRIPLET}
    labels = [op.label for op in pool]
    assert len(labels) == len(set(labels))


def test_pool_completeness_two_spatial():
    # For two spatial orbitals every triplet double vanishes identically, so
    # the pool conserves total spin: repeated action on the singlet reference
    # spans exactly the spin-singlet part of the N=2, Sz=0 sector (dim 3 of
    # 4; the Sz=0 triplet state is unreachable and irrelevant for singlet
    # ground states).
    pool = build_pool(2)
    ref = hf_state(4, 1, 1)
    vectors = [ref.amplitudes]
    frontier = [ref]
    for _ in range(3):
        new_frontier = []
        for v in frontier:
            for op in pool:
                w = apply_paulisum(op.qubit, v)
                if w.norm() > 1e-10:
                    new_frontier.append(w.normalized())
                    vectors.append(w.amplitudes)
        frontier = new_frontier[: 2 * len(pool)]
    stack = np.array(vectors)
    rank = np.linalg.matrix_rank(stack, tol=1e-10)
    assert rank == 3
    # the exact (singlet) ground state of the toy Hamiltonian is inside the span
    from gcim import exact_spectrum, toy_system

    h, _, _ = toy_system()
    ground = exact_spectrum(h, k=1).ground_state.amplitudes
    coeffs, residual, *_ = np.linalg.lstsq(stack.T, ground, rcond=None)
    assert np.linalg.norm(stack.T @ coeffs - ground) < 1e-10


def test_gradient_operator_identity_commutes():
    pool = build_pool(2)
    assert not commutator(identity_sum(4), pool[0].qubit).terms


def test_gradient_operator_dense_oracle():
    rng = np.random.default_rng(21)
    pool = build_pool(2)
    h = random_hermitian_sum(rng, 4, 8)
    for op in pool:
        comm = commutator(h, op.qubit)
        expected = dense_from_sum(h) @ dense_from_sum(op.qubit) \
            - dense_from_sum(op.qubit) @ dense_from_sum(h)
        assert np.allclose(dense_from_sum(comm), expected, atol=1e-12)


def test_gradient_expectation_real():
    rng = np.random.default_rng(22)
    pool = build_pool(2)
    h = random_hermitian_sum(rng, 4, 8)
    v = random_state(rng, 4)
    for op in pool:
        comm = commutator(h, op.qubit)
        val = np.vdot(v.amplitudes, apply_paulisum(comm, v).amplitudes)
        assert abs(val.imag) < 1e-10


def test_pool_json_dump():
    pool = build_pool(2)
    dump = pool_to_json(pool)
    assert len(dump) == len(pool)
    assert {"index", "label", "kind", "spatial", "forward_terms", "pauli"} \
        <= set(dump[0])
    assert dump[0]["label"] == pool[0].label


# pool.json text of build_pool(n): {4: committed file, 5 and 6: sha256}
_GOLDEN_POOL = Path(__file__).parent / "data" / "golden" / "h4_pool.json"
_POOL_SHA256 = {
    5: "02d22d133fa15fbaf296e83c417e7b19d389353a4aabeae07a9d011f9158324b",
    6: "f5679354f7ede4fc49a75eddf911c59f70656a7077f51ec1c40aa5274829abcb",
}


def _pool_json_text(n_spatial):
    return json.dumps(pool_to_json(build_pool(n_spatial)), indent=1) + "\n"


def test_pool_json_matches_golden_text():
    # labels, order, forward terms and every Pauli coefficient, byte for byte
    assert _pool_json_text(4) == _GOLDEN_POOL.read_text()


@pytest.mark.parametrize("n_spatial", sorted(_POOL_SHA256))
def test_pool_json_matches_golden_hash(n_spatial):
    text = _pool_json_text(n_spatial).encode()
    assert hashlib.sha256(text).hexdigest() == _POOL_SHA256[n_spatial]


def test_pool_requires_two_spatial():
    with pytest.raises(ValueError):
        build_pool(1)


def _algebra_skew(raw):
    """The skew operator of one candidate by operator algebra: add_term,
    simplify, sign and norm scale of the forward part, minus_hc(...).simplify();
    None where either part vanishes."""
    fwd = FermionOperator()
    for c, cre, ann in raw:
        fwd.add_term(c, cre, ann)
    fwd = fwd.simplify()
    if not fwd.terms:
        return None
    coeffs = np.array([c.real for _, c in fwd.sorted_terms()])
    skew = minus_hc(fermion_mul(
        fwd, np.sign(fwd.sorted_terms()[0][1].real) / np.linalg.norm(coeffs))).simplify()
    return skew if skew.terms else None


@pytest.mark.parametrize("n_spatial", range(2, 8))
def test_pool_is_every_nonvanishing_candidate(n_spatial):
    # every tuple of the wider enumeration (p > q; p <= q, r <= s,
    # (p, q) <= (r, s), singlet and triplet): the pool keeps exactly those
    # whose skew part is nonzero, in order, with the algebra's terms and bits
    candidates = [(f"s({p},{q})", _single_raw(p, q))
                  for p in range(1, n_spatial) for q in range(p)]
    pairs = list(combinations_with_replacement(range(n_spatial), 2))
    for ci, (p, q) in enumerate(pairs):
        for r, s in pairs[ci:]:
            candidates.append((f"dS({p},{q},{r},{s})", _double_singlet_raw(p, q, r, s)))
            candidates.append((f"dT({p},{q},{r},{s})", _double_triplet_raw(p, q, r, s)))
    expected = [(label, skew) for label, raw in candidates
                if (skew := _algebra_skew(raw)) is not None]
    pool = build_pool(n_spatial)
    assert [op.label for op in pool] == [label for label, _ in expected]
    for op, (_, skew) in zip(pool, expected):
        assert list(op.fermionic.terms) == list(skew.terms)
        assert list(map(repr, op.fermionic.terms.values())) == list(map(repr, skew.terms.values()))
    fingerprints = {tuple((cre, ann, round(c, 12)) for cre, ann, c in op.forward_terms())
                    for op in pool}
    assert len(fingerprints) == len(pool)


def test_pool_binding_makes_no_reference_cycle():
    # a cycle through the binding leaves every pool to the cyclic collector,
    # which slowed repeated build_pool calls by about 20 %
    gc.collect()
    gc.disable()
    try:
        pool = build_pool(3)
        apply_generators([op.qubit for op in pool], hf_state(6, 2, 1))
        del pool
        assert gc.collect() == 0
    finally:
        gc.enable()
