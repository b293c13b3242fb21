import numpy as np
import pytest

from gcim.fcidump import (
    FcidumpConsistencyError,
    FcidumpError,
    FcidumpRangeError,
    SpatialIntegrals,
    assemble_hamiltonian,
    dumps_fcidump,
    parse_fcidump,
)
from gcim.fermion import FermionOperator, down, jordan_wigner, up
from gcim.pauli import jw_to_matrix

from helpers import fermion_dense


def test_parse_basic_fields():
    text = """&FCI NORB=1,NELEC=2,MS2=0,
&END
0.7137 1 1 1 1
-1.2563 1 1 0 0
0.7080 0 0 0 0
"""
    ints = parse_fcidump(text)
    assert ints.n_orb == 1 and ints.n_elec == 2 and ints.ms2 == 0
    assert ints.two_body[0, 0, 0, 0] == 0.7137
    assert ints.one_body[0, 0] == -1.2563
    assert ints.core_energy == 0.7080


def test_parse_header_only():
    ints = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n")
    assert np.all(ints.one_body == 0) and np.all(ints.two_body == 0)
    assert ints.core_energy == 0.0


def test_one_body_symmetry_completion():
    ints = parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 1 2 0 0\n")
    assert ints.one_body[0, 1] == 0.5 and ints.one_body[1, 0] == 0.5


def test_two_body_eightfold_completion():
    ints = parse_fcidump("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n0.25 1 2 3 1\n")
    # brute-force permutation fill of the same class
    expected = np.zeros((3, 3, 3, 3))
    i, j, k, l = 0, 1, 2, 0
    for (a, b) in ((i, j), (j, i)):
        for (c, d) in ((k, l), (l, k)):
            expected[a, b, c, d] = 0.25
            expected[c, d, a, b] = 0.25
    assert np.array_equal(ints.two_body, expected)
    ints.check_symmetry()


def test_parse_fortran_exponent_and_slash_terminator():
    ints = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1\n /\n1.0D-01 1 1 0 0\n")
    assert ints.one_body[0, 0] == pytest.approx(0.1)


def test_parse_orbsym_ignored():
    ints = parse_fcidump(
        "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n")
    assert ints.n_orb == 2


def test_header_errors_carry_line_numbers():
    with pytest.raises(FcidumpError, match="line 1"):
        parse_fcidump("NORB=2\n&END\n")
    with pytest.raises(FcidumpError, match="missing MS2"):
        parse_fcidump("&FCI NORB=2,NELEC=2,\n&END\n")
    with pytest.raises(FcidumpError, match="never terminated"):
        parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n")


def test_row_errors():
    head = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
    with pytest.raises(FcidumpRangeError, match="line 3"):
        parse_fcidump(head + "0.5 3 1 0 0\n")
    with pytest.raises(FcidumpError):
        parse_fcidump(head + "0.5 1 1 1\n")
    with pytest.raises(FcidumpError):
        parse_fcidump(head + "abc 1 1 0 0\n")
    with pytest.raises(FcidumpError, match="mixed"):
        parse_fcidump(head + "0.5 0 0 1 1\n")


def test_conflicting_duplicates():
    head = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
    with pytest.raises(FcidumpConsistencyError):
        parse_fcidump(head + "0.5 1 2 0 0\n0.6 2 1 0 0\n")
    # agreeing duplicates are fine
    ints = parse_fcidump(head + "0.5 1 2 0 0\n0.5 2 1 0 0\n")
    assert ints.one_body[0, 1] == 0.5


def test_round_trip_canonical():
    rng = np.random.default_rng(3)
    n = 3
    one = rng.normal(size=(n, n))
    one = 0.5 * (one + one.T)
    two = rng.normal(size=(n, n, n, n))
    two = two + two.transpose(1, 0, 2, 3)
    two = two + two.transpose(0, 1, 3, 2)
    two = two + two.transpose(2, 3, 0, 1)
    ints = SpatialIntegrals(n_orb=n, n_elec=4, ms2=0, core_energy=1.25,
                            one_body=one, two_body=two)
    again = parse_fcidump(dumps_fcidump(ints))
    assert np.allclose(again.one_body, ints.one_body)
    assert np.allclose(again.two_body, ints.two_body)
    assert again.core_energy == pytest.approx(ints.core_energy)
    # parser accepts its own serializer's output verbatim
    assert dumps_fcidump(again) == dumps_fcidump(ints)


def test_assemble_diagonal_one_body():
    ints = SpatialIntegrals(n_orb=1, n_elec=2, ms2=0)
    ints.one_body[0, 0] = -1.0
    h = assemble_hamiltonian(ints)
    assert h.terms == {((0,), (0,)): -1.0, ((1,), (1,)): -1.0}


def test_assemble_constant_only():
    ints = SpatialIntegrals(n_orb=2, n_elec=2, ms2=0, core_energy=0.75)
    h = assemble_hamiltonian(ints)
    assert not h.terms and h.constant == 0.75
    mat = jw_to_matrix(jordan_wigner(h, 4))
    evals = np.linalg.eigvalsh(mat)
    assert evals[0] == pytest.approx(0.75)


def test_assemble_matches_bitwise_oracle():
    rng = np.random.default_rng(7)
    n = 2
    one = rng.normal(size=(n, n))
    one = 0.5 * (one + one.T)
    two = rng.normal(size=(n, n, n, n))
    two = two + two.transpose(1, 0, 2, 3)
    two = two + two.transpose(0, 1, 3, 2)
    two = two + two.transpose(2, 3, 0, 1)
    ints = SpatialIntegrals(n_orb=n, n_elec=2, ms2=0, core_energy=0.3,
                            one_body=one, two_body=two)
    h = assemble_hamiltonian(ints)
    assert h.is_hermitian(1e-12)
    # conjugate closure holds exactly term by term (identical float sums)
    assert h.terms == h.dagger().terms
    dense_jw = jw_to_matrix(jordan_wigner(h, 2 * n))
    # independent route: occupation-basis bit manipulation, no Pauli algebra
    oracle = FermionOperator(constant=ints.core_energy)
    for p in range(n):
        for q in range(n):
            for spin in (up, down):
                oracle.add_term(one[p, q], (spin(p),), (spin(q),))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    for s1 in (up, down):
                        for s2 in (up, down):
                            oracle.add_term(0.5 * two[p, q, r, s],
                                            (s1(p), s2(r)), (s2(s), s1(q)))
    dense_direct = fermion_dense(oracle, 2 * n)
    assert np.allclose(dense_jw, dense_direct, atol=1e-12)
    assert np.max(np.abs(dense_jw - dense_jw.conj().T)) < 1e-12


def test_symmetry_validation_rejects_asymmetric():
    ints = SpatialIntegrals(n_orb=2, n_elec=2, ms2=0)
    ints.one_body[0, 1] = 0.5  # deliberately left unsymmetrized
    with pytest.raises(ValueError):
        assemble_hamiltonian(ints)


def test_invariant_bounds():
    with pytest.raises(ValueError):
        SpatialIntegrals(n_orb=0, n_elec=0, ms2=0)
    with pytest.raises(ValueError):
        SpatialIntegrals(n_orb=2, n_elec=5, ms2=0)


def _header_error(norb: int, nelec: int, ms2: int, match: str) -> None:
    with pytest.raises(ValueError, match=match):
        SpatialIntegrals(n_orb=norb, n_elec=nelec, ms2=ms2)
    with pytest.raises(FcidumpError, match=f"line 2: .*{match}"):
        parse_fcidump(f"&FCI NORB={norb},NELEC={nelec},MS2={ms2},\n&END\n")


def test_electron_count_and_ms2_share_parity():
    # NELEC=3, MS2=0 would otherwise floor to one electron of each spin
    _header_error(2, 3, 0, "parity")


def test_ms2_bounded_by_electron_count():
    # NELEC=2, MS2=4 would otherwise give n_beta = -1
    _header_error(4, 2, 4, "exceeds n_elec")


def test_spin_counts_bounded_by_orbital_count():
    # three spin-up electrons do not fit in two spatial orbitals
    _header_error(2, 3, 3, "exceed n_orb")


_HEAD3 = "&FCI NORB=3,NELEC=2,MS2=0,\n&END\n"


@pytest.mark.parametrize("rows, line, kind", [
    ("1.0 0 0 0 0\n1.5 0 0 0 0\n", 4, "core"),
    ("0.5 1 2 0 0\n0.6 2 1 0 0\n", 4, "one-body"),
    ("0.25 1 2 3 1\n0.5 1 2 0 0\n0.35 3 1 1 2\n", 5, "two-body"),
])
def test_conflicting_duplicates_of_every_class_kind(rows, line, kind):
    # every row is one (ij|kl) class, zeros included, under one duplicate rule
    with pytest.raises(FcidumpConsistencyError,
                       match=f"^line {line}: conflicting duplicate {kind} entry "):
        parse_fcidump(_HEAD3 + rows)


def test_agreeing_duplicates_in_any_member_order_give_the_same_arrays():
    rows = ["0.25 1 2 3 1", "0.5 1 3 0 0", "0.75 0 0 0 0", "0.125 2 2 3 3"]
    members = ["0.25 2 1 1 3", "0.25 3 1 1 2", "0.25 1 3 2 1",
               "0.5 3 1 0 0", "0.75 0 0 0 0", "0.125 3 3 2 2"]
    base = parse_fcidump(_HEAD3 + "\n".join(rows) + "\n")
    for text in (rows + members, members + rows, members[::-1] + rows[::-1]):
        ints = parse_fcidump(_HEAD3 + "\n".join(text) + "\n")
        assert ints.core_energy == base.core_energy == 0.75
        assert np.array_equal(ints.one_body, base.one_body)
        assert np.array_equal(ints.two_body, base.two_body)


def test_data_files_round_trip_bit_for_bit(data_dir):
    paths = sorted(data_dir.glob("*.fcidump"))
    assert paths
    for path in paths:
        ints = parse_fcidump(path.read_text())
        text = dumps_fcidump(ints)
        again = parse_fcidump(text)
        assert again.core_energy == ints.core_energy, path.name
        assert np.array_equal(again.one_body, ints.one_body), path.name
        assert np.array_equal(again.two_body, ints.two_body), path.name
        assert dumps_fcidump(again) == text, path.name


@pytest.mark.parametrize("kwargs, name", [
    ({"one_body": np.zeros((3, 3))}, "one_body"),
    ({"two_body": np.zeros((2, 2, 2))}, "two_body"),
    ({"one_body": [[0.0, np.nan], [np.nan, 0.0]]}, "one_body"),
    ({"two_body": np.full((2, 2, 2, 2), -np.inf)}, "two_body"),
    ({"core_energy": np.inf}, "core_energy"),
], ids=["one_body shape", "two_body shape", "nan one_body", "inf two_body", "inf core"])
def test_integrals_refuse_what_the_assembly_cannot_use(kwargs, name):
    with pytest.raises(ValueError, match=name):
        SpatialIntegrals(n_orb=2, n_elec=2, ms2=0, **kwargs)


def test_toy_with_nan_hopping_is_refused():
    from gcim import toy_system

    # a NaN hopping would otherwise fall below the coefficient cutoff and vanish
    with pytest.raises(ValueError, match="one_body"):
        toy_system(float("nan"), 2.0)


def test_symmetry_check_refuses_a_value_made_non_finite_after_construction():
    ints = SpatialIntegrals(n_orb=2, n_elec=2, ms2=0)
    ints.two_body[0, 1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="two_body"):
        ints.check_symmetry()
    with pytest.raises(ValueError, match="two_body"):
        assemble_hamiltonian(ints)


def test_serializer_refuses_integrals_that_break_the_symmetry():
    # one row per class keeps only the class's first member
    ints = SpatialIntegrals(n_orb=2, n_elec=2, ms2=0)
    ints.two_body[0, 1, 0, 0] = 0.5
    with pytest.raises(ValueError, match="8-fold"):
        dumps_fcidump(ints)
