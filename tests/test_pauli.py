import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gcim.pauli import (
    PauliFormatError,
    PauliString,
    PauliSum,
    ResourceLimitError,
    parse_pauli_json,
    pauli_sum_to_json,
)

from helpers import (
    commutator,
    dense_from_label,
    dense_from_sum,
    from_label_dict,
    identity_string,
    identity_sum,
    jw_to_matrix,
    mask_mul,
    pauli_mul,
    sum_add,
    sum_mul,
)

labels4 = st.text(alphabet="IXYZ", min_size=4, max_size=4)


def test_mul_xy_is_iz():
    phase, c = pauli_mul(PauliString.from_label("X"), PauliString.from_label("Y"))
    assert phase == 1j and c.label == "Z"


@given(labels4)
def test_mul_involution(label):
    p = PauliString.from_label(label)
    phase, c = pauli_mul(p, p)
    assert phase == 1 and c.label == "IIII"


@given(labels4, labels4)
def test_mul_matches_dense(a, b):
    pa, pb = PauliString.from_label(a), PauliString.from_label(b)
    phase, c = pauli_mul(pa, pb)
    expected = dense_from_label(a) @ dense_from_label(b)
    assert np.allclose(phase * dense_from_label(c.label), expected)


@given(labels4, labels4, labels4)
def test_mul_associative(a, b, c):
    pa, pb, pc = (PauliString.from_label(s) for s in (a, b, c))
    ph1, ab = pauli_mul(pa, pb)
    ph2, ab_c = pauli_mul(ab, pc)
    ph3, bc = pauli_mul(pb, pc)
    ph4, a_bc = pauli_mul(pa, bc)
    assert ab_c == a_bc and ph1 * ph2 == ph3 * ph4


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.text(alphabet="IXYZ", min_size=n, max_size=n),
                        st.text(alphabet="IXYZ", min_size=n, max_size=n))))
def test_mask_mul_agrees_with_pauli_mul(pair):
    pa, pb = (PauliString.from_label(s) for s in pair)
    phase, x, z = mask_mul(pa.x, pa.z, pb.x, pb.z)
    ref_phase, pc = pauli_mul(pa, pb)
    assert (x, z) == (pc.x, pc.z)
    assert repr(phase) == repr(ref_phase)
    expected = dense_from_label(pair[0]) @ dense_from_label(pair[1])
    assert np.allclose(phase * dense_from_label(pc.label), expected)


def test_mul_length_mismatch():
    with pytest.raises(ValueError):
        pauli_mul(PauliString.from_label("X"), PauliString.from_label("XX"))


# simplification is the constructor's: it merges duplicates and drops small terms
def test_simplify_cancellation():
    h = sum_add(from_label_dict({"X": 1.0}), from_label_dict({"X": -1.0}))
    assert len(h) == 0


def test_simplify_merges():
    x = PauliString.from_label("Z")
    h = PauliSum(1, {x: 2.0})
    g = PauliSum(1, {x: 3.0})
    merged = sum_add(h, g)
    assert merged.terms[x] == 5.0


@given(st.lists(st.tuples(labels4, st.floats(-2, 2)), min_size=1, max_size=8))
def test_simplify_idempotent(pairs):
    terms = {}
    for label, c in pairs:
        p = PauliString.from_label(label)
        terms[p] = terms.get(p, 0.0) + c
    h = PauliSum(4, terms)
    once = PauliSum(4, h.terms)
    twice = PauliSum(4, once.terms)
    assert once.terms == twice.terms


def test_jw_to_matrix_z():
    h = from_label_dict({"Z": 1.0})
    assert np.allclose(jw_to_matrix(h), np.diag([1.0, -1.0]))


def test_jw_to_matrix_identity_scaled():
    h = from_label_dict({"III": 2.5})
    assert np.allclose(jw_to_matrix(h), 2.5 * np.eye(8))


def test_jw_to_matrix_hopping_block():
    # (X0 X1 + Y0 Y1)/2 couples |01> (index 1) and |10> (index 2) only
    h = from_label_dict({"XX": 0.5, "YY": 0.5})
    mat = jw_to_matrix(h)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.allclose(mat, expected)
    assert np.allclose(mat, dense_from_sum(h))


@given(st.lists(st.tuples(labels4, st.floats(-2, 2), st.floats(-2, 2)),
                min_size=1, max_size=6))
def test_jw_to_matrix_matches_kron_oracle(pairs):
    terms = {}
    for label, re, im in pairs:
        p = PauliString.from_label(label)
        terms[p] = terms.get(p, 0.0) + complex(re, im)
    h = PauliSum(4, terms)
    assert np.allclose(jw_to_matrix(h), dense_from_sum(h), atol=1e-12)


def test_jw_to_matrix_size_limit():
    h = identity_sum(17)
    with pytest.raises(ResourceLimitError):
        jw_to_matrix(h)


def test_parse_pauli_json_basic():
    text = json.dumps([
        {"pauli": "ZI", "coeff_re": 0.5},
        {"pauli": "IZ", "coeff_re": 0.5},
    ])
    h = parse_pauli_json(text)
    assert h.n_qubits == 2 and len(h) == 2


def test_parse_pauli_json_cancellation():
    text = json.dumps([
        {"pauli": "XX", "coeff_re": 1.0},
        {"pauli": "XX", "coeff_re": -1.0},
    ])
    h = parse_pauli_json(text)
    assert h.n_qubits == 2 and len(h) == 0


def test_parse_pauli_json_errors():
    with pytest.raises(PauliFormatError):
        parse_pauli_json(json.dumps([{"pauli": "X"}, {"pauli": "XX"}]))
    with pytest.raises(PauliFormatError):
        parse_pauli_json(json.dumps([{"pauli": "A"}]))
    with pytest.raises(PauliFormatError):
        parse_pauli_json("{")
    with pytest.raises(PauliFormatError):
        parse_pauli_json(json.dumps({"pauli": "X"}))


@given(st.lists(st.tuples(labels4, st.floats(-2, 2), st.floats(-2, 2)),
                min_size=0, max_size=8))
def test_pauli_json_round_trip(pairs):
    recs = [{"pauli": lab, "coeff_re": re, "coeff_im": im}
            for lab, re, im in pairs]
    h = parse_pauli_json(json.dumps(recs))
    again = parse_pauli_json(pauli_sum_to_json(h))
    assert again.terms == h.terms


def test_canonical_text_form():
    h = from_label_dict({"ZI": 0.5, "IZ": -0.25})
    text = str(h)
    assert "-0.25·IZ" in text and "+0.5·ZI" in text


def test_construction_adds_a_complex_zero():
    # as the numpy Jordan-Wigner kernel does: that clears a -0.0 imaginary
    # part, which float + complex keeps on Python 3.14 and later
    z = identity_string(1)
    c = complex(0.5, -0.0)
    assert repr(PauliSum(1, {z: c}).terms[z]) == repr(complex((np.zeros(1, complex) + c)[0])) \
        == "(0.5+0j)"


def test_sum_algebra_against_dense():
    rng = np.random.default_rng(5)
    from helpers import random_hermitian_sum

    a = random_hermitian_sum(rng, 3, 5)
    b = random_hermitian_sum(rng, 3, 5)
    assert np.allclose(dense_from_sum(sum_mul(a, b)), dense_from_sum(a) @ dense_from_sum(b))
    assert np.allclose(dense_from_sum(commutator(a, b)),
                       dense_from_sum(a) @ dense_from_sum(b)
                       - dense_from_sum(b) @ dense_from_sum(a))
    assert a.is_hermitian()


@pytest.mark.parametrize("record", [{"pauli": 5}, {"pauli": "XX", "coeff_re": None},
                                    {"pauli": "XX", "coeff_im": "1"},
                                    {"pauli": "XX", "coeff_re": True}])
def test_parse_pauli_json_rejects_wrong_types(record):
    with pytest.raises(PauliFormatError, match="term record 1"):
        parse_pauli_json(json.dumps([{"pauli": "ZZ", "coeff_re": 1.0}, record]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, -np.inf),
                                 complex(np.nan, 0.0)])
def test_non_finite_coefficient_is_refused_not_dropped(bad):
    terms = {PauliString.from_label("Z"): bad, PauliString.from_label("X"): 1.0}
    with pytest.raises(ValueError, match="not finite"):
        PauliSum(1, terms)
