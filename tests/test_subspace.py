import numpy as np
import pytest

from gcim.statevector import StateVector, apply_paulisum, hf_state
from gcim.subspace import (
    HARTREE_TO_EV,
    BasisRecipe,
    EmptySubspaceError,
    SubspaceBasis,
    build_matrices,
    excitation_energies,
    orthogonalize_basis,
    overlap_deficit,
    prepare_state,
    reconstruct_state,
    solve_gevp,
)

from helpers import random_hermitian_sum, random_state, raw_single_pool_op, unitary_from_generator, dense_from_sum


def _toy_basis(toy, recipes):
    h, pool, ref = toy
    basis = SubspaceBasis(reference=ref, pool=pool)
    for r in recipes:
        basis.append(r)
    return basis


def test_build_matrices_reference_only(toy):
    h, pool, ref = toy
    basis = _toy_basis(toy, [BasisRecipe()])
    h_mat, s_mat = build_matrices(basis, h)
    assert h_mat.shape == (1, 1) and s_mat[0, 0] == pytest.approx(1.0)
    assert h_mat[0, 0] == pytest.approx(ref.inner(apply_paulisum(h, ref)))


def test_build_matrices_duplicate_gives_singular_overlap(toy):
    h, pool, ref = toy
    basis = _toy_basis(toy, [BasisRecipe(), BasisRecipe()])
    _, s_mat = build_matrices(basis, h)
    evals = np.sort(np.linalg.eigvalsh(s_mat))
    assert np.allclose(evals, [0.0, 2.0], atol=1e-12)


def test_build_matrices_dense_oracle(toy):
    h, pool, ref = toy
    recipes = [BasisRecipe(), BasisRecipe(((0, 0.3),)),
               BasisRecipe(((0, 0.3), (1, -0.6)))]
    basis = _toy_basis(toy, recipes)
    h_mat, s_mat = build_matrices(basis, h)
    dense = dense_from_sum(h)
    states = [st.amplitudes for st in basis.states]
    for i in range(3):
        for j in range(3):
            assert h_mat[i, j] == pytest.approx(
                np.vdot(states[i], dense @ states[j]), abs=1e-12)
            assert s_mat[i, j] == pytest.approx(
                np.vdot(states[i], states[j]), abs=1e-12)
    assert np.max(np.abs(h_mat - h_mat.conj().T)) == 0.0


def test_build_matrices_cache_follows_states_and_h(toy):
    h, pool, ref = toy
    recipes = [BasisRecipe(), BasisRecipe(((0, 0.3),)),
               BasisRecipe(((0, 0.3), (1, -0.6)))]

    def fresh(basis, op):
        copy = SubspaceBasis(reference=ref, pool=pool, recipes=list(basis.recipes),
                             states=list(basis.states))
        return build_matrices(copy, op)

    basis = _toy_basis(toy, recipes[:2])
    h2, _ = build_matrices(basis, h)
    basis.append(recipes[2])
    h3, s3 = build_matrices(basis, h)
    assert np.array_equal(h3[:2, :2], h2)
    assert all(np.array_equal(a, b) for a, b in zip((h3, s3), fresh(basis, h)))
    # a reordered state list, or a different operator, is not served from the cache
    basis.recipes.reverse()
    basis.states.reverse()
    assert all(np.array_equal(a, b)
               for a, b in zip(build_matrices(basis, h), fresh(basis, h)))
    doubled = 2.0 * h
    assert np.array_equal(build_matrices(basis, doubled)[0], fresh(basis, doubled)[0])


def test_leading_holds_the_leading_block_of_the_pair(toy):
    h, pool, ref = toy
    basis = _toy_basis(toy, [BasisRecipe(), BasisRecipe(((0, 0.3),)),
                             BasisRecipe(((1, -0.6),))])
    assert basis.leading(2).pair is None   # nothing cached yet
    build_matrices(basis, h)
    head = basis.leading(2)
    assert head.recipes == basis.recipes[:2]
    assert all(a is b for a, b in zip(head.states, basis.states[:2]))
    fresh = SubspaceBasis(reference=ref, pool=pool, recipes=head.recipes,
                          states=head.states)
    h_mat, s_mat = build_matrices(head, h)
    assert h_mat is head.pair.h_mat and s_mat is head.pair.s_mat
    assert all(np.array_equal(a, b) for a, b in zip((h_mat, s_mat), build_matrices(fresh, h)))


def test_solve_gevp_identity_overlap():
    res = solve_gevp(np.diag([1.0, 2.0]), np.eye(2), 1e-13)
    assert np.allclose(res.eigenvalues, [1.0, 2.0])
    assert res.kept_dim == 2 and res.dropped_s_eigenvalues.size == 0


def test_solve_gevp_rank_one():
    a = -1.7
    res = solve_gevp(a * np.ones((2, 2)), np.ones((2, 2)), 1e-13)
    # single kept direction (1,1)/sqrt(2): Rayleigh quotient = a
    assert res.kept_dim == 1
    assert res.eigenvalues[0] == pytest.approx(a)


def test_solve_gevp_normalization_and_residual():
    rng = np.random.default_rng(17)
    m = 5
    b = rng.normal(size=(m, 8)) + 1j * rng.normal(size=(m, 8))
    s = b @ b.conj().T
    hmat = rng.normal(size=(m, m))
    hmat = hmat + hmat.T
    res = solve_gevp(hmat, s, 1e-13)
    for k in range(res.kept_dim):
        f = res.eigenvectors[:, k]
        assert np.vdot(f, s @ f).real == pytest.approx(1.0, abs=1e-8)
        resid = np.linalg.norm(hmat @ f - res.eigenvalues[k] * (s @ f))
        assert resid < 1e-8
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)


def test_solve_gevp_plain_eigh_when_s_identity():
    rng = np.random.default_rng(18)
    hmat = rng.normal(size=(4, 4))
    hmat = hmat + hmat.T
    res = solve_gevp(hmat, np.eye(4), 1e-13)
    assert np.allclose(res.eigenvalues, np.linalg.eigvalsh(hmat), atol=1e-12)


def test_solve_gevp_degenerate_tie_break_deterministic():
    # two exactly degenerate eigenvalues: ties order by the original-basis
    # index of the dominant coefficient
    hmat = np.diag([2.0, -1.0, -1.0])
    res = solve_gevp(hmat, np.eye(3), 1e-13)
    assert np.allclose(res.eigenvalues, [-1.0, -1.0, 2.0])
    first_dom = int(np.argmax(np.abs(res.eigenvectors[:, 0])))
    second_dom = int(np.argmax(np.abs(res.eigenvectors[:, 1])))
    assert first_dom < second_dom


def test_solve_gevp_empty_subspace_error():
    with pytest.raises(EmptySubspaceError):
        solve_gevp(np.eye(2), 1e-16 * np.eye(2), 1e-5)


def test_lemma1_single_rotation_instance():
    # 2x2 subspace at theta = pi/8, 3pi/8 matches a dense grid minimum
    # (real-arithmetic Hamiltonian: the equivalence is exact only when the
    # rotation family covers the whole real span)
    from helpers import random_molecular_hamiltonian

    rng = np.random.default_rng(23)
    n = 4
    h = random_molecular_hamiltonian(rng, 2)
    ref = hf_state(n, 1, 1)
    gen = raw_single_pool_op(2, 0, n)
    pool = [gen]
    basis = SubspaceBasis(reference=ref, pool=pool)
    basis.append(BasisRecipe(((0, np.pi / 8),)))
    basis.append(BasisRecipe(((0, 3 * np.pi / 8),)))
    h_mat, s_mat = build_matrices(basis, h)
    res = solve_gevp(h_mat, s_mat, 1e-13)

    from helpers import grid_expectations, refined_grid_minimum

    grid = np.linspace(-np.pi, np.pi, 10_000, endpoint=False)
    energies = grid_expectations(dense_from_sum(gen.qubit), dense_from_sum(h),
                                 ref.amplitudes, grid)
    assert res.eigenvalues[0] == pytest.approx(refined_grid_minimum(energies),
                                               abs=1e-8)


def test_theorem1_upper_bound_small():
    # With all subset products of the ansatz rotations in the basis, the
    # ansatz family is completely projected out, so the lowest eigenvalue
    # bounds the best product-ansatz expectation from below.
    rng = np.random.default_rng(29)
    n = 4
    h = random_hermitian_sum(rng, n, 10)
    ref = hf_state(n, 1, 1)
    ops = [raw_single_pool_op(2, 0, n), raw_single_pool_op(3, 1, n)]
    basis = SubspaceBasis(reference=ref, pool=ops)
    basis.append(BasisRecipe())
    basis.append(BasisRecipe(((0, 0.4),)))
    basis.append(BasisRecipe(((1, -0.9),)))
    basis.append(BasisRecipe(((0, 0.4), (1, -0.9))))
    h_mat, s_mat = build_matrices(basis, h)
    eps0 = solve_gevp(h_mat, s_mat, 1e-13).eigenvalues[0]
    us = [unitary_from_generator(dense_from_sum(op.qubit)) for op in ops]
    dense_h = dense_from_sum(h)
    best = np.inf
    for _ in range(1000):
        t = rng.uniform(-np.pi, np.pi, size=2)
        psi = us[1](t[1]) @ (us[0](t[0]) @ ref.amplitudes)
        best = min(best, np.vdot(psi, dense_h @ psi).real)
    assert eps0 <= best + 1e-10


def test_interlacing_append_never_raises_ground(toy):
    h, pool, ref = toy
    rng = np.random.default_rng(31)
    recipes = [BasisRecipe()]
    last = None
    for k in range(6):
        recipes.append(BasisRecipe(
            tuple((int(rng.integers(0, len(pool))), float(rng.uniform(-1, 1)))
                  for _ in range(rng.integers(1, 3)))))
        basis = _toy_basis((h, pool, ref), recipes)
        h_mat, s_mat = build_matrices(basis, h)
        eps0 = solve_gevp(h_mat, s_mat, 1e-13).eigenvalues[0]
        if last is not None:
            assert eps0 <= last + 1e-10
        last = eps0


def test_truncation_vs_orthogonalized_full_solve(toy):
    h, pool, ref = toy
    recipes = [BasisRecipe(), BasisRecipe(((0, 0.78),)),
               BasisRecipe(((1, 0.78),)), BasisRecipe(((0, 0.78), (1, 0.78)))]
    basis = _toy_basis(toy, recipes)
    h_mat, s_mat = build_matrices(basis, h)
    eps_trunc = solve_gevp(h_mat, s_mat, 1e-13).eigenvalues[0]
    ortho = orthogonalize_basis(basis)
    h2, s2 = build_matrices(ortho, h)
    eps_full = solve_gevp(h2, s2, 0.0).eigenvalues[0]
    assert eps_trunc == pytest.approx(eps_full, abs=1e-9)


def test_orthogonalize_keeps_orthonormal_basis(toy):
    h, pool, ref = toy
    basis = _toy_basis(toy, [BasisRecipe()])
    basis.append(BasisRecipe(((0, np.pi / 2),)))
    ortho = orthogonalize_basis(basis)
    assert len(ortho) == 2
    _, s_mat = build_matrices(ortho, h)
    assert np.allclose(s_mat, np.eye(2), atol=1e-12)
    again = orthogonalize_basis(ortho)
    for a, b in zip(again.states, ortho.states):
        phase = np.vdot(a.amplitudes, b.amplitudes)
        assert abs(abs(phase) - 1.0) < 1e-10


def test_orthogonalize_drops_duplicates(toy):
    h, pool, ref = toy
    basis = _toy_basis(toy, [BasisRecipe(), BasisRecipe()])
    ortho = orthogonalize_basis(basis)
    assert len(ortho) == 1


def test_reconstruct_single_basis(toy):
    h, pool, ref = toy
    basis = _toy_basis(toy, [BasisRecipe()])
    h_mat, s_mat = build_matrices(basis, h)
    res = solve_gevp(h_mat, s_mat, 1e-13)
    state = reconstruct_state(res, basis, 0)
    assert overlap_deficit(state, ref) < 1e-12


def test_reconstruct_ground_matches_eigenvalue(toy):
    h, pool, ref = toy
    recipes = [BasisRecipe(), BasisRecipe(((0, 0.78),)),
               BasisRecipe(((1, 0.78),)), BasisRecipe(((3, 0.5),))]
    basis = _toy_basis(toy, recipes)
    h_mat, s_mat = build_matrices(basis, h)
    res = solve_gevp(h_mat, s_mat, 1e-13)
    psi = reconstruct_state(res, basis, 0)
    assert psi.inner(apply_paulisum(h, psi)).real == pytest.approx(res.eigenvalues[0],
                                                                   abs=1e-9)
    with pytest.raises(IndexError):
        reconstruct_state(res, basis, res.kept_dim)


def test_overlap_deficit_cases():
    a = StateVector.basis_state(2, 0)
    b = StateVector.basis_state(2, 1)
    assert overlap_deficit(a, a) == 0.0
    assert overlap_deficit(a, b) == 1.0
    rng = np.random.default_rng(37)
    u, v = random_state(rng, 3), random_state(rng, 3)
    manual = 1.0 - abs(np.vdot(u.amplitudes, v.amplitudes)) ** 2
    assert overlap_deficit(u, v) == pytest.approx(manual, abs=1e-12)
    with pytest.raises(ValueError):
        overlap_deficit(a, StateVector.from_array(2.0 * b.amplitudes))


def test_excitation_energies_conversion():
    res = solve_gevp(np.diag([-1.0, -1.0]), np.eye(2), 1e-13)
    assert excitation_energies(res) == [pytest.approx(0.0)]
    res2 = solve_gevp(np.diag([0.0, 1.0]), np.eye(2), 1e-13)
    assert excitation_energies(res2) == [pytest.approx(27.211386245988)]
    res3 = solve_gevp(np.array([[1.0]]), np.eye(1), 1e-13)
    with pytest.raises(ValueError):
        excitation_energies(res3)


def test_excitation_energies_match_exact_gaps(toy):
    # converged subspace reproduces the exact gaps of its symmetry sector;
    # the oracle diagonalizes the dense N=2, Sz=0 block independently
    h, pool, ref = toy
    from gcim import AdaptConfig, run_algorithm

    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=4))
    dense = dense_from_sum(h)
    sector = [i for i in range(16)
              if bin(i).count("1") == 2
              and bin(i & 0b0101).count("1") == 1]  # one alpha, one beta
    block = dense[np.ix_(sector, sector)]
    sector_evals = np.linalg.eigvalsh(block)
    gaps = excitation_energies(trace.result)
    exact_gaps = sorted((e - sector_evals[0]) * HARTREE_TO_EV
                        for e in sector_evals[1:])
    # every subspace gap appears among the sector gaps
    for g in gaps:
        assert min(abs(g - eg) for eg in exact_gaps) < 1e-3


def test_real_arithmetic_matrices(h4):
    # real integrals and real rotations: projected matrix entries are real
    h, pool, ref = h4
    rng = np.random.default_rng(61)
    basis = SubspaceBasis(reference=ref, pool=pool)
    basis.append(BasisRecipe())
    steps = []
    for _ in range(3):
        steps.append((int(rng.integers(0, len(pool))), float(rng.uniform(-1, 1))))
        basis.append(BasisRecipe(tuple(steps)))
    h_mat, s_mat = build_matrices(basis, h)
    assert np.max(np.abs(h_mat.imag)) < 1e-10
    assert np.max(np.abs(s_mat.imag)) < 1e-10


def test_recipe_hashing_and_dedup(toy):
    r = BasisRecipe(((0, 0.5),))
    assert len({r, BasisRecipe(((0, 0.5),))}) == 1


def test_states_regenerate_from_recipes(toy):
    h, pool, ref = toy
    basis = _toy_basis(toy, [BasisRecipe(((0, 0.3), (2, -0.2)))])
    cached = basis.states[0].amplitudes.copy()
    basis.regenerate()
    assert np.array_equal(basis.states[0].amplitudes, cached)
    direct = prepare_state(basis.recipes[0], pool, ref)
    assert np.array_equal(direct.amplitudes, cached)


def test_figure_one_style_toy_comparison(toy, toy_spectrum):
    # four generating functions from two spin-resolved rotations span the
    # whole configuration space, while the 2-parameter product ansatz is
    # constrained above the exact ground energy
    h, pool, ref = toy
    ga = raw_single_pool_op(2, 0, 4)  # alpha: site0 -> site1
    gb = raw_single_pool_op(3, 1, 4)  # beta:  site0 -> site1
    raw = [ga, gb]
    basis = SubspaceBasis(reference=ref, pool=raw)
    theta = np.pi / 4
    basis.append(BasisRecipe())
    basis.append(BasisRecipe(((0, theta),)))
    basis.append(BasisRecipe(((1, theta),)))
    basis.append(BasisRecipe(((0, theta), (1, theta))))
    h_mat, s_mat = build_matrices(basis, h)
    eps0 = solve_gevp(h_mat, s_mat, 1e-13).eigenvalues[0]
    exact = toy_spectrum.eigenvalues[0]
    assert eps0 == pytest.approx(exact, abs=1e-10)

    ua = unitary_from_generator(dense_from_sum(ga.qubit))
    ub = unitary_from_generator(dense_from_sum(gb.qubit))
    dense_h = dense_from_sum(h)
    grid = np.linspace(-np.pi, np.pi, 120)
    best = np.inf
    for t1 in grid:
        psi1 = ua(t1) @ ref.amplitudes
        for t2 in grid:
            psi = ub(t2) @ psi1
            best = min(best, np.vdot(psi, dense_h @ psi).real)
    assert best > exact + 1e-4  # the constrained optimum stays strictly above


def test_block_built_pair_matches_per_entry_inner_products(h4):
    # complex states, so the conjugations and the real diagonal are exercised
    h, pool, ref = h4
    recipes = [BasisRecipe(), BasisRecipe(((3, 0.5),)), BasisRecipe(((3, 0.5), (17, -0.8))),
               BasisRecipe(((60, 1.2),)), BasisRecipe(((60, 1.2), (3, 0.2), (41, 0.9)))]
    states = [StateVector(ref.space, np.exp(0.7j * k) * prepare_state(r, pool, ref).data)
              for k, r in enumerate(recipes)]
    basis = SubspaceBasis(reference=ref, pool=pool, recipes=recipes[:3], states=states[:3])
    build_matrices(basis, h)
    basis.recipes += recipes[3:]
    basis.states += states[3:]
    h_mat, s_mat = build_matrices(basis, h)
    h_kets = [apply_paulisum(h, st) for st in states]
    h_ref = np.array([[a.inner(b) for b in h_kets] for a in states])
    s_ref = np.array([[a.inner(b) for b in states] for a in states])
    assert np.max(np.abs(h_mat - h_ref)) <= 1e-14
    assert np.max(np.abs(s_mat - s_ref)) <= 1e-14
    assert np.any(h_mat.imag != 0)
    for mat in (h_mat, s_mat):
        assert np.array_equal(mat, mat.conj().T)
