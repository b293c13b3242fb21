"""Real problems run in real arithmetic: a state's dtype follows its data.

FCIDUMP and Hubbard input, with the real UCC pool acting on a real
determinant, stay float64 through every kernel, the projected pair and its
solve; a complex generator or Hamiltonian promotes to complex128 and still
matches the dense oracle.  Casting a real basis to complex changes no energy.
"""

import json

import numpy as np
import pytest
import scipy.linalg

from gcim.adapt import AdaptConfig, pool_gradients, run_algorithm
from gcim.fcidump import (
    SpatialIntegrals,
    assemble_hamiltonian,
    dumps_fcidump,
    parse_fcidump,
)
from gcim.fermion import jordan_wigner
from gcim.pauli import jw_to_matrix, parse_pauli_json
from gcim.pool import build_pool
from gcim.statevector import (
    StateVector,
    apply_generators,
    apply_paulisum,
    exact_spectrum,
    exp_apply,
    hf_state,
)
from gcim.subspace import (
    BasisRecipe,
    SubspaceBasis,
    build_matrices,
    orthogonalize_basis,
    prepare_state,
    solve_gevp,
)

from helpers import random_hermitian_sum, random_molecular_hamiltonian


def _hubbard10_fcidump() -> str:
    """Open Hubbard chain, 5 sites, t = 1, U = 4, two electrons of each
    spin, written as FCIDUMP text."""
    one = np.zeros((5, 5))
    for i in range(4):
        one[i, i + 1] = one[i + 1, i] = -1.0
    two = np.zeros((5,) * 4)
    for i in range(5):
        two[i, i, i, i] = 4.0
    return dumps_fcidump(SpatialIntegrals(n_orb=5, n_elec=4, ms2=0,
                                          one_body=one, two_body=two))


@pytest.fixture(params=["h4", "hubbard10"])
def fcidump_system(request, h4_path):
    text = h4_path.read_text() if request.param == "h4" else _hubbard10_fcidump()
    ints = parse_fcidump(text)
    n = 2 * ints.n_orb
    return (jordan_wigner(assemble_hamiltonian(ints), n), build_pool(ints.n_orb),
            hf_state(n, ints.n_alpha, ints.n_beta))


def test_fcidump_input_stays_float64(fcidump_system):
    h, pool, ref = fcidump_system
    assert ref.data.dtype == np.float64
    recipes = [BasisRecipe(), BasisRecipe(((3, 0.7),)),
               BasisRecipe(((3, 0.7), (10, -0.4))), BasisRecipe(((10, 1.1), (5, 0.2)))]
    states = [prepare_state(r, pool, ref) for r in recipes]
    assert all(s.data.dtype == np.float64 for s in states)
    assert apply_paulisum(h, states[2]).data.dtype == np.float64
    # the group's stacked product and the per-generator path
    assert apply_generators([op.qubit for op in pool], states[2]).dtype == np.float64
    assert apply_generators([op.qubit for op in pool[:3]], states[2]).dtype == np.float64
    basis = SubspaceBasis(ref, pool, recipes, states)
    h_mat, s_mat = build_matrices(basis, h)
    assert h_mat.dtype == s_mat.dtype == np.float64
    result = solve_gevp(h_mat, s_mat)
    assert result.eigenvectors.dtype == np.float64
    assert exact_spectrum(h, reference=ref).ground_state.data.dtype == np.float64


def test_complex_generator_promotes_and_matches_the_dense_oracle():
    rng = np.random.default_rng(21)
    a = random_hermitian_sum(rng, 4, 5) * 1j   # anti-Hermitian, complex matrix
    real_a = build_pool(2)[0].qubit
    v = StateVector.basis_state(4, 0b0101)
    assert v.data.dtype == np.float64
    dense = jw_to_matrix(a)
    out = apply_paulisum(a, v)
    assert out.data.dtype == np.complex128
    assert np.max(np.abs(out.amplitudes - dense @ v.amplitudes)) < 1e-12
    rotated = exp_apply(a, 0.6, v)
    assert rotated.data.dtype == np.complex128
    want = scipy.linalg.expm(0.6 * dense) @ v.amplitudes
    assert np.max(np.abs(rotated.amplitudes - want)) < 1e-12
    rows = apply_generators([real_a, a], v)
    assert rows.dtype == np.complex128
    assert np.max(np.abs(rows[1] - dense @ v.amplitudes)) < 1e-12
    # a real generator on a complex state stays complex
    assert exp_apply(real_a, 0.3, rotated).data.dtype == np.complex128


def test_pauli_json_hamiltonian_dtype_follows_its_matrix():
    # X0 Y1 - Y0 X1 is Hermitian with real coefficients, but its matrix is
    # imaginary
    doc = json.dumps([{"pauli": "XY", "coeff_re": 0.5, "coeff_im": 0.0},
                      {"pauli": "YX", "coeff_re": -0.5, "coeff_im": 0.0},
                      {"pauli": "ZZ", "coeff_re": 0.25, "coeff_im": 0.0}])
    h = parse_pauli_json(doc)
    dense = jw_to_matrix(h)
    assert np.any(dense.imag != 0)
    v = StateVector.basis_state(2, 0b01)
    out = apply_paulisum(h, v)
    assert out.data.dtype == np.complex128
    assert np.max(np.abs(out.amplitudes - dense @ v.amplitudes)) < 1e-12
    spectrum = exact_spectrum(h)
    assert spectrum.ground_state.data.dtype == np.complex128
    assert spectrum.eigenvalues[0] == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-12)
    # with XX in place of the XY pair the matrix is real, and so is h|v>
    real_h = parse_pauli_json(json.dumps([{"pauli": "XX", "coeff_re": 0.5, "coeff_im": 0.0},
                                          {"pauli": "ZZ", "coeff_re": 0.25, "coeff_im": 0.0}]))
    out = apply_paulisum(real_h, v)
    assert out.data.dtype == np.float64
    assert np.max(np.abs(out.amplitudes - jw_to_matrix(real_h) @ v.amplitudes)) < 1e-12


@pytest.mark.parametrize("name", ["toy", "h4"])
def test_complex_cast_of_a_real_basis_gives_the_same_energies(name, toy, h4):
    h, pool, ref = toy if name == "toy" else h4
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    full = [rec for rec in trace.records if rec.kept_dim == rec.subspace_dim]
    assert full
    for rec in full:
        basis = trace.basis.leading(rec.subspace_dim)
        cast = SubspaceBasis(ref, pool, basis.recipes,
                             [StateVector(s.space, s.data.astype(complex)) for s in basis.states])
        h_mat, s_mat = build_matrices(cast, h)
        assert h_mat.dtype == np.complex128
        result = solve_gevp(h_mat, s_mat)
        assert result.kept_dim == rec.kept_dim
        assert result.ground_energy == pytest.approx(rec.epsilon0, abs=1e-12, rel=0)


@pytest.mark.parametrize("name", ["toy", "h4", "random-12q-1-1"])
def test_screen_matches_one_inner_per_operator_real_and_complex(name, toy, h4):
    # 2 Re <H psi|A_l psi> per operator, on a real surrogate and on a
    # complex state of the same sector
    if name == "toy":
        h, pool, ref = toy
    elif name == "h4":
        h, pool, ref = h4
    else:
        rng = np.random.default_rng(12)
        h, pool, ref = random_molecular_hamiltonian(rng, 6), build_pool(6), hf_state(12, 1, 1)
    surrogate = prepare_state(BasisRecipe(((0, 0.7), (len(pool) - 1, -0.3))), pool, ref)
    rng = np.random.default_rng(5)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, ref.space.dim))
    twisted = StateVector(ref.space, surrogate.data * phases)
    for state in (surrogate, twisted):
        w = apply_paulisum(h, state)
        want = np.array([2.0 * w.inner(apply_paulisum(op.qubit, state)).real
                         for op in pool])
        got = pool_gradients(state, h, pool)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert np.any(got != 0.0)


def test_real_and_complex_states_mix_in_one_basis(toy):
    # a complex generator between real states: the pair and the
    # orthogonalized basis promote to complex wherever a complex state enters
    h, pool, ref = toy
    rng = np.random.default_rng(3)
    twist = StateVector(ref.space, exp_apply(pool[0].qubit, 0.5, ref).data
                        * np.exp(1j * rng.uniform(0, 2 * np.pi, ref.space.dim)))
    states = [ref, twist, exp_apply(pool[1].qubit, 0.4, ref)]
    basis = SubspaceBasis(ref, pool, [BasisRecipe()] * 3, states)
    h_mat, s_mat = build_matrices(basis, h)
    assert h_mat.dtype == s_mat.dtype == np.complex128
    kets = np.array([s.data for s in states])
    assert np.allclose(s_mat, kets.conj() @ kets.T, atol=1e-14)
    ortho = orthogonalize_basis(basis)
    gram = np.array([[a.inner(b) for b in ortho.states] for a in ortho.states])
    assert len(ortho) == 3 and np.allclose(gram, np.eye(3), atol=1e-12)
