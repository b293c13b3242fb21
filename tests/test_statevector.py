from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcim.fermion import FermionOperator, jordan_wigner
from gcim.pauli import COEFF_CUTOFF, PauliSum, jw_to_matrix
from gcim.statevector import (
    StateVector,
    apply_paulisum,
    exact_spectrum,
    exp_apply,
    hf_state,
    pauli_expectations,
)

from helpers import dense_from_sum, random_hermitian_sum, random_state


def test_hf_state_small():
    assert np.argmax(np.abs(hf_state(4, 1, 1).amplitudes)) == 3
    assert np.argmax(np.abs(hf_state(8, 2, 2).amplitudes)) == 15
    assert np.argmax(np.abs(hf_state(6, 2, 1).amplitudes)) == 0b00111


def test_hf_state_occupation_expectation():
    ref = hf_state(4, 1, 1)
    n0 = FermionOperator()
    n0.add_term(1.0, (0,), (0,))
    val = ref.inner(apply_paulisum(jordan_wigner(n0, 4), ref))
    assert val == pytest.approx(1.0)
    n2 = FermionOperator()
    n2.add_term(1.0, (2,), (2,))
    assert ref.inner(apply_paulisum(jordan_wigner(n2, 4), ref)) == pytest.approx(0.0)


def test_hf_state_overflow():
    with pytest.raises(ValueError, match="occupation overflow"):
        hf_state(4, 3, 0)
    with pytest.raises(ValueError, match="occupation overflow"):
        hf_state(4, 1, 3)


def test_apply_identity():
    rng = np.random.default_rng(0)
    v = random_state(rng, 3)
    w = apply_paulisum(PauliSum.identity(3), v)
    assert np.allclose(w.amplitudes, v.amplitudes)


def test_apply_z_sign_convention():
    v = StateVector.basis_state(2, 0b01)  # qubit 0 occupied
    z0 = PauliSum.from_label_dict({"ZI": 1.0})
    assert np.allclose(apply_paulisum(z0, v).amplitudes, -v.amplitudes)
    z1 = PauliSum.from_label_dict({"IZ": 1.0})
    assert np.allclose(apply_paulisum(z1, v).amplitudes, v.amplitudes)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_apply_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    h = random_hermitian_sum(rng, n, int(rng.integers(1, 8)))
    v = random_state(rng, n)
    out = apply_paulisum(h, v).amplitudes
    expected = jw_to_matrix(h) @ v.amplitudes
    assert np.max(np.abs(out - expected)) < 1e-12


def _random_generator(rng, n, n_terms=3):
    h = random_hermitian_sum(rng, n, n_terms)
    return h * 1j  # anti-Hermitian


def test_exp_apply_theta_zero():
    rng = np.random.default_rng(1)
    v = random_state(rng, 3)
    a = _random_generator(rng, 3)
    w = exp_apply(a, 0.0, v)
    assert np.array_equal(w.amplitudes, v.amplitudes)


@given(st.integers(0, 2**31 - 1), st.floats(-np.pi, np.pi))
@settings(max_examples=30)
def test_exp_apply_unitary_and_dense_oracle(seed, theta):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a = _random_generator(rng, n)
    v = random_state(rng, n)
    w = exp_apply(a, theta, v)
    assert abs(w.norm() - 1.0) < 1e-12
    dense = scipy.linalg.expm(theta * dense_from_sum(a))
    assert np.max(np.abs(w.amplitudes - dense @ v.amplitudes)) < 1e-10


@given(st.integers(0, 2**31 - 1), st.floats(-np.pi, np.pi))
@settings(max_examples=20)
@example(117931, 3.0)  # an unscaled Taylor series missed these by 5.9e-9
@example(117931, 3.1)  # and 7.7e-9 through cancellation at large theta*|A|
def test_exp_apply_reversible(seed, theta):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a = _random_generator(rng, n)
    v = random_state(rng, n)
    w = exp_apply(a, -theta, exp_apply(a, theta, v))
    assert np.max(np.abs(w.amplitudes - v.amplitudes)) < 1e-10


@given(st.integers(0, 30), st.floats(-np.pi, np.pi))
@settings(max_examples=30)
def test_exp_apply_unitary_on_pool_generators(op_pick, theta):
    from gcim.pool import build_pool

    pool = build_pool(2)
    op = pool[op_pick % len(pool)]
    rng = np.random.default_rng(op_pick)
    v = random_state(rng, op.n_qubits)
    w = exp_apply(op.qubit, theta, v)
    assert abs(w.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("theta", [np.pi, -np.pi, 0.75 * np.pi, -0.75 * np.pi])
def test_exp_apply_pool_generators_match_expm(theta):
    from gcim.pool import build_pool

    rng = np.random.default_rng(5)
    for op in build_pool(3):
        v = random_state(rng, op.n_qubits)
        w = exp_apply(op.qubit, theta, v)
        dense = scipy.linalg.expm(theta * jw_to_matrix(op.qubit))
        assert np.max(np.abs(w.amplitudes - dense @ v.amplitudes)) < 1e-12


def _pool_and_space(case, toy, h4):
    from gcim.pool import build_pool

    if case == "toy-1-1":
        return toy[1], toy[2].space
    if case == "h4-2-2":
        return h4[1], h4[2].space
    if case == "3orb-2-1":
        return build_pool(3), hf_state(6, 2, 1).space
    # the 12-qubit (1, 1) sector that helpers.random_molecular_hamiltonian
    # inputs live on, with the 6-orbital pool
    return build_pool(6), hf_state(12, 1, 1).space


EXPM_THETAS = [-2.7, -0.3, 0.9, np.pi / 2, 7.1]


@pytest.mark.parametrize("case", ["toy-1-1", "h4-2-2", "3orb-2-1", "random-12q-1-1"])
def test_exp_apply_matches_expm_on_every_pool_generator(case, toy, h4):
    # the projector stack against scipy's Pade exponential of the compiled
    # sector block, and exp(-theta A) exp(theta A) = I, on a complex state.
    # expm of the whole theta*A loses up to 1.8e-14 in its squaring phase at
    # theta = 7.1 (against 34-digit mpmath), so the reference takes the angle
    # in steps of at most 1, which stay within 6e-16
    from gcim.statevector import _compiled

    pool, space = _pool_and_space(case, toy, h4)
    rng = np.random.default_rng(16)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    v = StateVector(space, psi / np.linalg.norm(psi))
    for op in pool:
        block = _compiled(op.qubit, space).matrix.toarray()
        for theta in EXPM_THETAS:
            w = exp_apply(op.qubit, theta, v)
            steps = int(np.ceil(abs(theta)))
            step, expected = scipy.linalg.expm(theta / steps * block), v.data
            for _ in range(steps):
                expected = step @ expected
            assert np.max(np.abs(w.data - expected)) <= 1e-14, (op.label, theta)
            back = exp_apply(op.qubit, -theta, w)
            assert np.max(np.abs(back.data - v.data)) <= 1e-14, (op.label, theta)


def test_exponential_does_not_depend_on_which_call_compiled_first():
    # three pools, compiled first by a rotation, by apply_paulisum and by the
    # stacked screen: every exponential the same to the last bit
    from gcim.adapt import pool_gradients
    from gcim.pool import build_pool

    rng = np.random.default_rng(72)
    h = random_hermitian_sum(rng, 6, 10)
    ref = hf_state(6, 2, 1)
    psi = rng.normal(size=ref.space.dim) + 1j * rng.normal(size=ref.space.dim)
    v = StateVector(ref.space, psi / np.linalg.norm(psi))
    by_rotation, by_apply, by_screen = build_pool(3), build_pool(3), build_pool(3)
    exp_apply(by_rotation[-1].qubit, 0.4, ref)
    apply_paulisum(by_apply[0].qubit, ref)
    pool_gradients(ref, h, by_screen)
    for ops in zip(by_rotation, by_apply, by_screen):
        for theta in EXPM_THETAS:
            a, b, c = (exp_apply(op.qubit, theta, v).data for op in ops)
            assert np.array_equal(a, b) and np.array_equal(a, c)


def test_real_operators_keep_real_states_real(h4):
    h, pool, ref = h4
    state = ref
    for k, op in enumerate(pool[::5]):
        state = exp_apply(op.qubit, 0.4 * k - 2.0, state)
        assert np.all(state.amplitudes.imag == 0)
    assert np.all(apply_paulisum(h, state).amplitudes.imag == 0)


def test_compiled_hamiltonian_matches_dense_oracle(h4):
    from gcim.statevector import _compiled, full_space

    h, _, _ = h4
    mat = _compiled(h, full_space(h.n_qubits)).matrix
    assert mat.dtype == np.float64
    assert np.max(np.abs(mat.toarray() - jw_to_matrix(h))) < 1e-12


def test_exp_apply_rejects_non_anti_hermitian():
    rng = np.random.default_rng(2)
    h = random_hermitian_sum(rng, 2, 3)
    v = random_state(rng, 2)
    with pytest.raises(ValueError, match="anti-Hermitian"):
        exp_apply(h, 0.3, v)


def test_expectation_identity_and_z():
    rng = np.random.default_rng(3)
    v = random_state(rng, 3)
    assert v.inner(v) == pytest.approx(1.0)
    assert v.inner(apply_paulisum(PauliSum.identity(3), v)) == pytest.approx(1.0)
    basis = StateVector.basis_state(3, 0b101)
    z0 = PauliSum.from_label_dict({"ZII": 1.0})
    assert basis.inner(apply_paulisum(z0, basis)) == pytest.approx(-1.0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_expectation_hermitian_real(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    h = random_hermitian_sum(rng, n, 6)
    v = random_state(rng, n)
    assert abs(v.inner(apply_paulisum(h, v)).imag) < 1e-12


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(4)
    a, b = random_state(rng, 3), random_state(rng, 3)
    assert a.inner(b) == pytest.approx(np.conj(b.inner(a)))


def test_exact_spectrum_minus_z():
    # Z|1> = -|1>, so the ground state of -Z is the unoccupied state |0>
    h = PauliSum.from_label_dict({"Z": -1.0})
    spec = exact_spectrum(h, k=2)
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    assert abs(spec.ground_state.amplitudes[0]) == pytest.approx(1.0)


def test_exact_spectrum_constant():
    h = PauliSum.identity(2, 0.5)
    spec = exact_spectrum(h, k=4)
    assert np.allclose(spec.eigenvalues, 0.5)


def test_exact_spectrum_matches_characteristic_polynomial():
    rng = np.random.default_rng(8)
    h = random_hermitian_sum(rng, 4, 10)
    spec = exact_spectrum(h, k=16)
    dense = dense_from_sum(h)
    roots = np.sort(np.roots(np.poly(dense)).real)
    assert np.allclose(np.sort(spec.eigenvalues), roots, atol=1e-6)


def test_exact_spectrum_iterative_path_matches_dense():
    # n = 11 exceeds the dense cutoff, exercising the Krylov branch
    rng = np.random.default_rng(9)
    h = random_hermitian_sum(rng, 11, 12)
    spec = exact_spectrum(h, k=2)
    evals = np.linalg.eigvalsh(jw_to_matrix(h))
    assert np.allclose(spec.eigenvalues, evals[:2], atol=1e-8)


def _sector_indices_dense(n, n_alpha, n_beta):
    even = sum(1 << b for b in range(0, n, 2))
    odd = sum(1 << b for b in range(1, n, 2))
    return [i for i in range(1 << n)
            if bin(i & even).count("1") == n_alpha and bin(i & odd).count("1") == n_beta]


def test_exact_spectrum_reference_sector_toy_u8():
    # at U/t = 8 the one-electron ground (-1.0) lies below the two-electron
    # one, U/2 - sqrt(U^2/4 + 4t^2) = 4 - 2 sqrt(5); the oracle must report
    # the reference's sector
    from gcim import toy_system

    h, _, ref = toy_system(1.0, 8.0)
    assert exact_spectrum(h).eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)
    spec = exact_spectrum(h, k=2, reference=ref)
    assert spec.sector == (1, 1)
    assert spec.eigenvalues[0] == pytest.approx(4.0 - 2.0 * np.sqrt(5.0), abs=1e-12)
    dense = jw_to_matrix(h)
    idx = _sector_indices_dense(4, 1, 1)
    evals = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
    assert np.allclose(spec.eigenvalues, evals[:2], atol=1e-12)
    g = spec.ground_state.amplitudes
    assert np.linalg.norm(g[idx]) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(dense @ g - spec.eigenvalues[0] * g) < 1e-10


def test_exact_spectrum_sector_rule():
    from gcim import toy_system

    h, _, ref = toy_system(1.0, 8.0)
    # a coupling far below rounding of the largest entry keeps the sector
    tiny = h + PauliSum.from_label_dict({"XIII": 1e-13})
    assert exact_spectrum(tiny, reference=ref).sector == (1, 1)
    # a real particle-number-breaking coupling still gets the ground of the
    # reference's (1, 1) block of the dense matrix, embedded in the register
    mixed = h + PauliSum.from_label_dict({"XIII": 0.1, "IZXI": 0.3})
    spec = exact_spectrum(mixed, reference=ref)
    assert spec.sector == (1, 1)
    keep = [i for i in range(16)
            if (i & 0b0101).bit_count() == 1 and (i & 0b1010).bit_count() == 1]
    w, v = np.linalg.eigh(jw_to_matrix(mixed)[np.ix_(keep, keep)])
    assert spec.eigenvalues[0] == pytest.approx(w[0], abs=1e-12)
    assert spec.eigenvalues[0] == pytest.approx(4.0 - 2.0 * np.sqrt(5.0), abs=1e-12)
    amps = spec.ground_state.amplitudes
    assert np.allclose(np.delete(amps, keep), 0.0, atol=0.0)
    assert abs(np.vdot(v[:, 0], amps[keep])) == pytest.approx(1.0, abs=1e-10)


def test_exact_spectrum_rejects_non_hermitian():
    h = PauliSum.from_label_dict({"X": 1.0j})
    with pytest.raises(ValueError):
        exact_spectrum(h)


def test_exact_spectrum_resource_limit():
    from gcim.pauli import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        exact_spectrum(PauliSum.identity(17))


def test_statevector_immutability():
    v = StateVector.basis_state(2, 1)
    with pytest.raises(ValueError):
        v.amplitudes[0] = 1.0


def test_top_amplitudes_dump():
    v = hf_state(4, 1, 1)
    top = v.top_amplitudes()
    assert top[0]["index"] == 3 and top[0]["re"] == pytest.approx(1.0)


def _sector_state(rng, ref):
    data = rng.normal(size=ref.space.dim) + 1j * rng.normal(size=ref.space.dim)
    return StateVector(ref.space, data / np.linalg.norm(data))


def test_hf_state_lives_on_its_sector():
    ref = hf_state(6, 2, 1)
    assert ref.space.sector == (2, 1)
    assert list(ref.space.indices) == _sector_indices_dense(6, 2, 1)
    assert ref.data.shape == (ref.space.dim,)
    assert ref.inner(ref) == pytest.approx(1.0)


def test_sector_apply_is_the_sector_block_of_a_sector_breaking_h(data_dir):
    from gcim.pauli import parse_pauli_json

    h = parse_pauli_json((data_dir / "toy_u8_sector_breaking.json").read_text())
    ref = hf_state(4, 1, 1)
    v = _sector_state(np.random.default_rng(11), ref)
    keep = _sector_indices_dense(4, 1, 1)
    block = jw_to_matrix(h)[np.ix_(keep, keep)]
    out = apply_paulisum(h, v)
    assert out.space is ref.space
    assert np.max(np.abs(out.data - block @ v.data)) < 1e-12
    assert np.all(np.delete(out.amplitudes, keep) == 0)


def test_exp_apply_rejects_a_generator_that_leaves_the_sector():
    op = FermionOperator()
    op.add_term(1.0, (0,), ())  # a+_0 changes the particle number
    gen = jordan_wigner(op.minus_hc(), 4)
    ref = hf_state(4, 0, 1)
    with pytest.raises(ValueError, match="leaves the state's space"):
        exp_apply(gen, 0.3, ref)
    # on the full register the same generator is an ordinary rotation
    full = StateVector.from_array(ref.amplitudes)
    assert exp_apply(gen, 0.3, full).norm() == pytest.approx(1.0, abs=1e-12)


def test_h4_operators_compile_to_the_sector_dimension(h4):
    from gcim.statevector import _compiled

    h, pool, ref = h4
    assert ref.space.sector == (2, 2) and ref.data.shape == (36,)
    assert _compiled(h, ref.space).matrix.shape == (36, 36)
    for op in pool:
        assert _compiled(op.qubit, ref.space).matrix.shape == (36, 36)
    state = exp_apply(pool[-1].qubit, 0.3, apply_paulisum(h, ref))
    assert state.data.shape == (36,)


def test_pool_chain_stays_exactly_in_the_sector(h4):
    # compiled over all 2^8 indices, 15 of H4's 66 generators carry rounding
    # residues (up to 2.8e-17) from their (2, 2) sector into others; chained
    # rotations must leave exactly nothing outside the sector
    _, pool, ref = h4
    keep = _sector_indices_dense(8, 2, 2)
    psi = ref.amplitudes[keep]
    state = ref
    for k, op in enumerate(pool):
        theta = 0.05 * (k + 1) - 1.5
        state = exp_apply(op.qubit, theta, state)
        block = jw_to_matrix(op.qubit)[np.ix_(keep, keep)]
        psi = scipy.linalg.expm(theta * block) @ psi
    amps = state.amplitudes
    assert np.all(np.delete(amps, keep) == 0)
    assert np.max(np.abs(amps[keep] - psi)) < 1e-12


def test_exact_spectrum_caps_the_dimension_not_the_register():
    # 18 qubits, but the (1, 1) sector holds 81 determinants
    ref = hf_state(18, 1, 1)
    spec = exact_spectrum(PauliSum.identity(18, 0.5), k=2, reference=ref)
    assert spec.sector == (1, 1) and np.allclose(spec.eigenvalues, 0.5)
    assert spec.ground_state.space is ref.space


@pytest.mark.parametrize("case", ["toy-1-1", "h4-2-2", "3orb-2-1", "2orb-full"])
def test_pool_matrices_from_excitation_terms_match_jordan_wigner(case, toy, h4):
    # every generator's compiled matrix is built from its excitation terms by
    # string rules; the Jordan-Wigner image, densified, is the independent
    # reference; the X-mask compile of the same sums kept cancellation
    # residues (below 2e-16) in 12 of H4's 66 generators
    from gcim.pool import build_pool
    from gcim.statevector import _compiled, full_space

    if case == "toy-1-1":
        _, pool, ref = toy
        space = ref.space
    elif case == "h4-2-2":
        _, pool, ref = h4
        space = ref.space
    elif case == "3orb-2-1":
        pool, space = build_pool(3), hf_state(6, 2, 1).space
    else:
        pool, space = build_pool(2), full_space(4)
    assert space.sector == {"toy-1-1": (1, 1), "h4-2-2": (2, 2),
                            "3orb-2-1": (2, 1), "2orb-full": None}[case]
    keep = space.indices
    for op in pool:
        mat = _compiled(op.qubit, space).matrix
        dense = mat.toarray()
        assert mat.dtype == np.float64
        assert np.max(np.abs(dense - jw_to_matrix(op.qubit)[np.ix_(keep, keep)])) <= 1e-15
        assert np.array_equal(dense, -dense.T)
        assert np.all(np.abs(mat.data) >= 1e-15)


def _pool_case(case, request):
    """A pool and the space its stack is compiled over."""
    from gcim.pool import build_pool
    from gcim.statevector import full_space, sector_space

    if case in ("toy-1-1", "h4-2-2"):
        _, pool, ref = request.getfixturevalue(case[:case.index("-")])
        return pool, ref.space
    n_spatial, sector = {"3orb-2-1": (3, (2, 1)), "4orb-2-2": (4, (2, 2)),
                         "5orb-2-2": (5, (2, 2)), "2orb-full": (2, None)}[case]
    space = full_space(4) if sector is None else sector_space(2 * n_spatial, *sector)
    return build_pool(n_spatial), space


def _compiled_stack(pool, space):
    """The pool's stacked matrix over the space, compiled afresh."""
    from gcim.statevector import _cache

    group, _ = _cache(pool[0].qubit)["group"]
    return group._compile(space)


def _assert_same_bytes(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("case", ["3orb-2-1", "4orb-2-2", "5orb-2-2", "2orb-full"])
def test_pool_compile_does_not_depend_on_its_chunk_size(case, request):
    # one generator per chunk against the default runs: the same bytes
    import gcim.statevector as statevector

    pool, space = _pool_case(case, request)
    default = _compiled_stack(pool, space)
    with mock.patch.object(statevector, "_CHUNK", 1):
        _assert_same_bytes(_compiled_stack(pool, space), default)


def _reference_stack(pool, space) -> sp.csr_array:
    """The stack by plain Python: every determinant walked through each
    forward term's ladder operators (annihilations, then creations, each
    right to left), the sign (-1)^(occupied orbitals below each one), F
    summed per position in term order, A = 0.0 + F(k) + (-F(k^T))."""
    dim = space.dim
    states = [int(j) for j in space.indices]
    position = {j: i for i, j in enumerate(states)}
    indptr, indices, data = [0], [], []
    for op in pool:
        f = {}
        for cre, ann, c in op.forward_terms():
            ladder = [(p, False) for p in reversed(ann)] + [(p, True) for p in reversed(cre)]
            for col, state in enumerate(states):
                sign = 1.0
                for p, create in ladder:
                    if (state >> p & 1) == create:
                        break
                    if bin(state & ((1 << p) - 1)).count("1") % 2:
                        sign = -sign
                    state ^= 1 << p
                else:
                    key = (position[state], col)
                    f[key] = f.get(key, 0.0) + c * sign
        a = {}
        for row, col in sorted(f.keys() | {(col, row) for row, col in f}):
            value = 0.0 + f.get((row, col), 0.0) + -f.get((col, row), 0.0)
            if abs(value) >= COEFF_CUTOFF:
                a[row, col] = value
        for row in range(dim):
            cols = sorted(col for r, col in a if r == row)
            indices += cols
            data += [a[row, col] for col in cols]
            indptr.append(len(indices))
    return sp.csr_array((np.array(data, dtype=np.float64), np.array(indices), np.array(indptr)),
                        shape=(len(pool) * dim, dim))


@pytest.mark.parametrize("case", ["toy-1-1", "h4-2-2", "3orb-2-1", "2orb-full"])
def test_pool_stack_matches_plain_python_reference_bit_for_bit(case, request):
    pool, space = _pool_case(case, request)
    _assert_same_bytes(_compiled_stack(pool, space), _reference_stack(pool, space))


def test_pool_matrices_do_not_depend_on_call_order():
    # one pool compiled first by a rotation, the other first by the stacked
    # screen: the same matrices to the last bit
    from gcim.adapt import pool_gradients
    from gcim.pool import build_pool
    from gcim.statevector import _compiled

    rng = np.random.default_rng(71)
    h = random_hermitian_sum(rng, 6, 10)
    ref = hf_state(6, 2, 1)
    by_rotation, by_screen = build_pool(3), build_pool(3)
    exp_apply(by_rotation[-1].qubit, 0.4, ref)
    pool_gradients(ref, h, by_screen)
    for a, b in zip(by_rotation, by_screen):
        ma, mb = _compiled(a.qubit, ref.space).matrix, _compiled(b.qubit, ref.space).matrix
        assert np.array_equal(ma.toarray(), mb.toarray())


def test_bound_generator_terms_must_conserve_both_spin_counts():
    from gcim.statevector import bind_generators

    op = FermionOperator()
    op.add_term(1.0, (2,), (1,))  # spin-down orbital 1 to spin-up orbital 2
    gen = jordan_wigner(op.minus_hc(), 4)
    bind_generators([gen], [[((2,), (1,), 1.0)]])
    with pytest.raises(ValueError, match="spin count"):
        exp_apply(gen, 0.3, hf_state(4, 1, 1))


def test_pauli_expectations_need_one_space(toy):
    # a bra and a ket on different spaces would gather from the wrong indices
    h, _, ref = toy
    full = StateVector.from_array(ref.amplitudes)
    coeffs, values = pauli_expectations([full], h, [full])
    assert coeffs @ values[0, 0] == pytest.approx(apply_paulisum(h, ref).inner(ref), abs=1e-12)
    with pytest.raises(ValueError, match="spaces"):
        pauli_expectations([ref], h, [full])


def _hubbard_chain_sector(n_sites: int, u: float):
    """Open Hubbard chain (t = 1) with n_sites // 2 electrons of each spin:
    the qubit Hamiltonian, the reference determinant and the hopping matrix."""
    from gcim.fcidump import SpatialIntegrals, assemble_hamiltonian

    one = np.zeros((n_sites, n_sites))
    for i in range(n_sites - 1):
        one[i, i + 1] = one[i + 1, i] = -1.0
    two = np.zeros((n_sites,) * 4)
    for i in range(n_sites):
        two[i, i, i, i] = u
    m = n_sites // 2
    ints = SpatialIntegrals(n_orb=n_sites, n_elec=2 * m, ms2=0, one_body=one, two_body=two)
    h = jordan_wigner(assemble_hamiltonian(ints), 2 * n_sites)
    return h, hf_state(2 * n_sites, m, m), one


@pytest.fixture
def krylov_calls(monkeypatch):
    from gcim import statevector

    calls = []
    eigsh = statevector.spla.eigsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(statevector.spla, "eigsh", counted)
    return calls


def test_krylov_oracle_on_a_sector_finds_the_free_fermion_levels(krylov_calls):
    from itertools import combinations

    from gcim.statevector import _DENSE_EIG_MAX_DIM

    h, ref, one = _hubbard_chain_sector(7, 0.0)
    assert ref.space.dim == 35 ** 2 > _DENSE_EIG_MAX_DIM
    spec = exact_spectrum(h, k=4, reference=ref)
    assert krylov_calls and spec.sector == (3, 3)
    # U = 0: each spin fills 3 of the 7 one-body levels independently
    eps = np.linalg.eigvalsh(one)
    per_spin = [sum(eps[list(c)]) for c in combinations(range(7), 3)]
    levels = np.sort(np.add.outer(per_spin, per_spin).ravel())[:4]
    assert levels[1] == pytest.approx(levels[2], abs=1e-12)  # a degenerate pair
    assert np.max(np.abs(spec.eigenvalues - levels)) < 1e-10


def test_krylov_oracle_on_a_sector_matches_the_dense_block(krylov_calls):
    from gcim.statevector import _compiled

    h, ref, _ = _hubbard_chain_sector(7, 4.0)
    spec = exact_spectrum(h, k=4, reference=ref)
    assert krylov_calls
    block = _compiled(h, ref.space).matrix.toarray()
    assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(block)[:4])) < 1e-10
