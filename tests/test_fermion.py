import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcim.fermion import FermionOperator, jordan_wigner
from gcim.pauli import PauliSum, jw_to_matrix

from helpers import fermion_dense


def _ladder(index, create, n):
    op = FermionOperator()
    op.add_term(1.0, (index,) if create else (), () if create else (index,))
    return jordan_wigner(op, n)


def test_annihilation_on_one_qubit():
    # a_0 = (X + iY)/2
    h = _ladder(0, create=False, n=1)
    assert len(h) == 2
    mats = jw_to_matrix(h)
    assert np.allclose(mats, np.array([[0, 1], [0, 0]]))
    x = PauliSum.from_label_dict({"X": 0.5, "Y": 0.5j})
    assert h.terms == x.terms


def test_number_operator_image():
    # a+_0 a_0 = (I - Z)/2
    op = FermionOperator()
    op.add_term(1.0, (0,), (0,))
    h = jordan_wigner(op, 1)
    expected = PauliSum.from_label_dict({"I": 0.5, "Z": -0.5})
    assert h.terms == expected.terms


@pytest.mark.parametrize("n", [2, 4, 6])
def test_canonical_anticommutation_exact(n):
    # {a_p, a_q} = 0 and {a_p, a+_q} = delta_pq * I, exactly (dyadic arithmetic)
    ident = PauliSum.identity(n)
    for p in range(n):
        ap = _ladder(p, False, n)
        for q in range(p, n):
            aq = _ladder(q, False, n)
            aqd = _ladder(q, True, n)
            anti1 = ap * aq + aq * ap
            assert not anti1.terms
            anti2 = ap * aqd + aqd * ap
            if p == q:
                assert anti2.terms == ident.terms
            else:
                assert not anti2.terms


def test_jw_preserves_operator_action():
    rng = np.random.default_rng(11)
    n = 4
    op = FermionOperator(constant=rng.normal())
    op.add_term(rng.normal(), (2,), (0,))
    op.add_term(rng.normal(), (3, 1), (0, 2))
    op.add_term(rng.normal() * 1j, (1,), (1,))
    dense_direct = fermion_dense(op, n)
    dense_jw = jw_to_matrix(jordan_wigner(op, n))
    assert np.allclose(dense_direct, dense_jw, atol=1e-12)


def test_skew_generators_map_to_anti_hermitian():
    n = 6
    single = FermionOperator()
    single.add_term(1.0, (4,), (1,))
    double = FermionOperator()
    double.add_term(1.0, (5, 3), (0, 2))
    for op in (single, double):
        skew = op.minus_hc()
        image = jordan_wigner(skew, n)
        assert image.is_anti_hermitian(1e-14)
        mat = jw_to_matrix(image)
        assert np.max(np.abs(mat + mat.conj().T)) < 1e-14


def test_dagger_involution_and_hermiticity():
    op = FermionOperator(constant=0.5 + 0.25j)
    op.add_term(1.0 + 2.0j, (3, 1), (0, 2))
    op.add_term(-0.7, (2,), (2,))
    dd = op.dagger().dagger()
    assert dd.terms == op.terms and dd.constant == op.constant
    herm = op + op.dagger()
    assert herm.is_hermitian()
    skew = op.minus_hc()
    assert skew.is_anti_hermitian()


def test_repeated_index_vanishes():
    op = FermionOperator()
    op.add_term(1.0, (2, 2), (0, 1))
    op.add_term(1.0, (3, 1), (0, 0))
    assert not op.terms


def test_normal_ordering_signs():
    # a+_0 a+_2 = -a+_2 a+_0; both spellings must canonicalize consistently
    op1 = FermionOperator()
    op1.add_term(1.0, (0, 2), (1,))
    op2 = FermionOperator()
    op2.add_term(-1.0, (2, 0), (1,))
    assert op1.terms == op2.terms


def test_jw_index_overflow():
    op = FermionOperator()
    op.add_term(1.0, (4,), (0,))
    with pytest.raises(IndexError):
        jordan_wigner(op, 4)


@given(st.integers(0, 5), st.integers(0, 5))
def test_jw_single_term_against_bitwise_oracle(p, q):
    n = 6
    op = FermionOperator()
    op.add_term(1.0, (p,), (q,))
    assert np.allclose(jw_to_matrix(jordan_wigner(op, n)),
                       fermion_dense(op, n), atol=1e-13)
