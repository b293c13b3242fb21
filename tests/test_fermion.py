import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gcim.fcidump import SpatialIntegrals, assemble_hamiltonian, parse_fcidump
from gcim.fermion import FermionOperator, jordan_wigner, jordan_wigner_all
from gcim.pauli import PauliSum
from gcim.pool import build_pool
from gcim.toy import toy_integrals

from helpers import (
    exact_terms,
    fermion_add,
    fermion_dagger,
    fermion_dense,
    fermion_is_anti_hermitian,
    fermion_is_hermitian,
    fermion_sub,
    from_label_dict,
    identity_sum,
    jordan_wigner_reference,
    jw_to_matrix,
    minus_hc,
    sum_add,
    sum_mul,
)


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
    x = from_label_dict({"X": 0.5, "Y": 0.5j})
    assert h.terms == x.terms


def test_number_operator_image():
    # a+_0 a_0 = (I - Z)/2
    op = FermionOperator()
    op.add_term(1.0, (0,), (0,))
    h = jordan_wigner(op, 1)
    expected = from_label_dict({"I": 0.5, "Z": -0.5})
    assert h.terms == expected.terms


@pytest.mark.parametrize("n", [2, 4, 6])
def test_canonical_anticommutation_exact(n):
    # {a_p, a_q} = 0 and {a_p, a+_q} = delta_pq * I, exactly (dyadic arithmetic)
    ident = identity_sum(n)
    for p in range(n):
        ap = _ladder(p, False, n)
        for q in range(p, n):
            aq = _ladder(q, False, n)
            aqd = _ladder(q, True, n)
            anti1 = sum_add(sum_mul(ap, aq), sum_mul(aq, ap))
            assert not anti1.terms
            anti2 = sum_add(sum_mul(ap, aqd), sum_mul(aqd, ap))
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
        skew = minus_hc(op)
        image = jordan_wigner(skew, n)
        assert image.is_anti_hermitian(1e-14)
        mat = jw_to_matrix(image)
        assert np.max(np.abs(mat + mat.conj().T)) < 1e-14


def test_dagger_involution_and_hermiticity():
    op = FermionOperator(constant=0.5 + 0.25j)
    op.add_term(1.0 + 2.0j, (3, 1), (0, 2))
    op.add_term(-0.7, (2,), (2,))
    dd = fermion_dagger(fermion_dagger(op))
    assert dd.terms == op.terms and dd.constant == op.constant
    herm = fermion_add(op, fermion_dagger(op))
    assert fermion_is_hermitian(herm)
    skew = minus_hc(op)
    assert fermion_is_anti_hermitian(skew)


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
    with pytest.raises(IndexError):
        jordan_wigner_all([FermionOperator(1.0), op], 4)


def test_jw_64_qubit_register_is_exact():
    op = FermionOperator(0.25)
    op.add_term(1.0, (63,), (0,))
    op.add_term(-0.5j, (63, 40), (40, 2))
    op.add_term(0.75, (63,), (63,))
    op = fermion_sub(op, fermion_dagger(op))
    assert exact_terms(jordan_wigner(op, 64)) == exact_terms(jordan_wigner_reference(op, 64))
    assert any(p.x >> 63 for p in jordan_wigner(op, 64).terms)


def test_jw_rejects_a_register_past_the_mask_width():
    op = FermionOperator()
    op.add_term(1.0, (1,), (0,))
    with pytest.raises(ValueError, match="64-qubit mask limit"):
        jordan_wigner(op, 65)


@given(st.integers(0, 5), st.integers(0, 5))
def test_jw_single_term_against_bitwise_oracle(p, q):
    n = 6
    op = FermionOperator()
    op.add_term(1.0, (p,), (q,))
    assert np.allclose(jw_to_matrix(jordan_wigner(op, n)),
                       fermion_dense(op, n), atol=1e-13)


# Coefficients drawn from a small set, so that terms cancel exactly and the
# cutoff drops (and later re-adds) strings; 1e-15 sits below the cutoff.
_coeffs = st.sampled_from([1.0, -1.0, 0.5, -0.5j, 1.0 + 1.0j, -0.0, 1e-15, 2.5e-14])
_indices = st.lists(st.integers(0, 4), max_size=3).map(tuple)


@given(_coeffs, st.lists(st.tuples(_indices, _indices, _coeffs), max_size=8))
# a hopping pair whose cross strings cancel in the sum, then come back
@example(0.0, [((1,), (0,), 1.0), ((0,), (1,), 1.0), ((1, 2), (2, 0), 1.0)])
# 2.5e-14 survives one ladder step and falls below the cutoff on the second
@example(0.0, [((0,), (1,), 1.0), ((1,), (0,), 2.5e-14)])
# terms and constants below the cutoff are skipped, not summed
@example(1.0, [((), (), 1e-15)])
@example(1e-15, [((), (), 1.0)])
def test_jw_matches_product_reference_exactly(constant, raw_terms):
    # terms go in as given: unsorted and repeated indices included
    op = FermionOperator(constant, {(cre, ann): complex(c) for cre, ann, c in raw_terms})
    assert exact_terms(jordan_wigner(op, 5)) == \
        exact_terms(jordan_wigner_reference(op, 5))


_operators = st.lists(st.tuples(_coeffs, st.lists(st.tuples(_indices, _indices, _coeffs),
                                                  max_size=6)),
                      min_size=1, max_size=4)


@given(_operators)
# the same string in neighbouring operators: merged, it would double or cancel
@example([(0.0, [((1,), (0,), 1.0)]), (0.0, [((1,), (0,), 1.0)])])
@example([(1.0, [((1,), (0,), 1.0)]), (-1.0, [((1,), (0,), -1.0)])])
# operators with no term left beside ones with terms
@example([(1e-15, []), (0.0, [((2,), (2,), 1.0)]), (0.0, [])])
# no operator, and no constant or term at or above the cutoff: no row is expanded
@example([])
@example([(-0.0, [])])
@example([(1e-20, []), (0.0, [((1,), (0,), 1e-15)])])
# a constant-only, a one-body and a two-body operator
@example([(2.0, []), (0.0, [((1,), (0,), 0.5), ((2,), (2,), -1.0)]),
          (0.25, [((3, 1), (0, 2), 1.5j), ((2, 0), (0, 2), 0.75)])])
def test_jw_batch_matches_product_reference_exactly(raw_ops):
    ops = [FermionOperator(constant, {(cre, ann): complex(c) for cre, ann, c in terms})
           for constant, terms in raw_ops]
    want = [exact_terms(jordan_wigner_reference(op, 5)) for op in ops]
    images = jordan_wigner_all(ops, 5)
    assert [exact_terms(image) for image in images] == want


def _rechecked(image: PauliSum) -> PauliSum:
    """The image through PauliSum's own merge, cut and finiteness check."""
    return PauliSum(image.n_qubits, dict(image.terms))


@pytest.mark.parametrize("n_spatial", [2, 3, 4, 5, 6, 7])
def test_pool_images_match_product_reference(n_spatial):
    for op in build_pool(n_spatial):
        assert exact_terms(op.qubit) == \
            exact_terms(jordan_wigner_reference(op.fermionic, 2 * n_spatial)) == \
            exact_terms(_rechecked(op.qubit))


def _hubbard_chain(n_sites: int, t: float, u: float) -> SpatialIntegrals:
    one = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        one[i, i + 1] = one[i + 1, i] = -t
    two = np.zeros((n_sites,) * 4)
    for i in range(n_sites):
        two[i, i, i, i] = u
    return SpatialIntegrals(n_orb=n_sites, n_elec=4, ms2=0, one_body=one, two_body=two)


def _dense_random(n_orb: int, seed: int) -> SpatialIntegrals:
    """Random molecular integrals with every (pq|rs) nonzero."""
    rng = np.random.default_rng(seed)
    one = rng.normal(size=(n_orb, n_orb))
    two = rng.normal(size=(n_orb,) * 4)
    two = two + two.transpose(1, 0, 2, 3)
    two = two + two.transpose(0, 1, 3, 2)
    two = two + two.transpose(2, 3, 0, 1)
    return SpatialIntegrals(n_orb=n_orb, n_elec=6, ms2=0, one_body=0.5 * (one + one.T),
                            two_body=0.5 * two)


@pytest.mark.parametrize("name", ["toy", "h4", "hubbard10", "random12"])
def test_jw_hamiltonian_and_pool_match_product_reference(name, h4_path):
    if name == "toy":
        ints = toy_integrals(1.0, 2.0)
    elif name == "h4":
        ints = parse_fcidump(h4_path.read_text())
    elif name == "hubbard10":
        ints = _hubbard_chain(5, 1.0, 4.0)
    else:  # 12 qubits, the densest map here
        ints = _dense_random(6, 7)
        assert np.all(ints.two_body != 0.0)
    n = 2 * ints.n_orb
    ops = [assemble_hamiltonian(ints)] + [op.fermionic for op in build_pool(ints.n_orb)]
    for op in ops:
        assert exact_terms(jordan_wigner(op, n)) == \
            exact_terms(jordan_wigner_reference(op, n))


@pytest.mark.parametrize("name", ["toy", "h4", "hubbard10"])
def test_hamiltonian_images_are_what_the_pauli_sum_check_builds(name, h4_path):
    # images skip PauliSum's own check, so they must already hold what it
    # would: Python complex values, signed zeros normalized, in order
    ints = {"toy": lambda: toy_integrals(1.0, 2.0),
            "h4": lambda: parse_fcidump(h4_path.read_text()),
            "hubbard10": lambda: _hubbard_chain(5, 1.0, 4.0)}[name]()
    image = jordan_wigner(assemble_hamiltonian(ints), 2 * ints.n_orb)
    assert exact_terms(image) == exact_terms(_rechecked(image))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_coefficient_is_refused_not_dropped(bad):
    op = FermionOperator(terms={((1,), (0,)): bad, ((0,), (0,)): 1.0})
    with pytest.raises(ValueError, match="not finite"):
        op.simplify()
    # the term skip ahead of the mask kernel, whose cutoff would drop a NaN
    with pytest.raises(ValueError, match="not finite"):
        jordan_wigner(op, 2)
    with pytest.raises(ValueError, match="not finite"):
        jordan_wigner(FermionOperator(constant=bad), 2)


def test_jw_refuses_a_folded_sum_that_overflows():
    # each a+_p a_p puts 0.75e308 on the identity string: the third one
    # overflows the sum, which is refused, not kept as inf
    op = FermionOperator(terms={((p,), (p,)): 1.5e308 for p in range(3)})
    # numpy's overflow warning (an error under -W error) is not the refusal
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        jordan_wigner(op, 3)


def test_simplify_refuses_a_non_finite_constant():
    with pytest.raises(ValueError, match="not finite"):
        FermionOperator(constant=float("nan")).simplify()


@pytest.mark.parametrize("predicate", [fermion_is_hermitian, fermion_is_anti_hermitian],
                         ids=["is_hermitian", "is_anti_hermitian"])
@pytest.mark.parametrize("op", [FermionOperator(constant=float("nan")),
                                FermionOperator(terms={((1,), (1,)): float("nan")})],
                         ids=["nan-constant", "nan-term"])
def test_hermiticity_predicates_are_false_on_a_non_finite_difference(op, predicate):
    assert predicate(op) is False
