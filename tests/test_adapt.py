import itertools

import numpy as np
import pytest

from gcim.adapt import (
    ADAPT_GCIM,
    ADAPT_GCIM_MN,
    ADAPT_VQE,
    ADAPT_VQE_GCIM,
    ADAPT_VQE_GCIM_1,
    ALGORITHMS,
    VQE_FAMILY,
    AdaptConfig,
    ansatz_energy_gradient,
    gcim_energy_gradient,
    pool_gradients,
    run_algorithm,
    select_operator,
    vqe_loop,
    vqe_minimize,
)
from gcim.pauli import PauliSum
from gcim.statevector import apply_paulisum, exp_apply, hf_state
from gcim.subspace import (
    BasisRecipe,
    SubspaceBasis,
    build_matrices,
    prepare_state,
    solve_gevp,
)

from helpers import (
    dense_from_sum,
    random_hermitian_sum,
    random_molecular_hamiltonian,
    random_state,
    raw_single_pool_op,
    unitary_from_generator,
)


def test_termination_window_formula():
    from gcim.adapt import _gcim_termination_window

    # min(ceil(0.2 * unselected), t_usr)
    assert _gcim_termination_window(100, 0, 10) == 10
    assert _gcim_termination_window(100, 90, 10) == 2
    assert _gcim_termination_window(100, 99, 10) == 1
    assert _gcim_termination_window(100, 100, 10) == 0
    assert _gcim_termination_window(12, 2, 25) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(algorithm="nope")
    with pytest.raises(ValueError):
        AdaptConfig(gcim_tol=0.0)
    with pytest.raises(ValueError):
        AdaptConfig(m=0)
    with pytest.raises(ValueError):
        AdaptConfig(t_usr=0)


def test_select_identity_hamiltonian_tie_break(toy):
    h, pool, ref = toy
    idx, grads = select_operator(ref, PauliSum.identity(4), pool)
    assert idx == 0 and np.allclose(grads, 0.0)


def test_select_rounding_level_ties_go_to_lowest_index():
    from gcim.adapt import _first_largest

    # equal by symmetry, but the later entry came out 4e-16 larger
    assert _first_largest(np.array([1.0, 2.584569994692884,
                                    2.5845699946928855, 1.5])) == 1
    assert _first_largest(np.array([1.0, 2.0, 2.0 + 1e-9])) == 2


def test_select_excludes_and_errors(toy):
    h, pool, ref = toy
    idx, _ = select_operator(ref, h, pool)
    idx2, _ = select_operator(ref, h, pool, excluded={idx})
    assert idx2 != idx
    with pytest.raises(ValueError, match="empty candidate"):
        select_operator(ref, h, pool, excluded=set(range(len(pool))))


def test_gradients_match_dense_commutator(toy):
    h, pool, ref = toy
    rng = np.random.default_rng(41)
    v = random_state(rng, 4)
    grads = pool_gradients(v, h, pool)
    dense_h = dense_from_sum(h)
    for g, op in zip(grads, pool):
        a = dense_from_sum(op.qubit)
        comm = dense_h @ a - a @ dense_h
        expected = np.vdot(v.amplitudes, comm @ v.amplitudes)
        assert abs(expected.imag) < 1e-10
        assert g == pytest.approx(expected.real, abs=1e-10)


def test_brillouin_structural_zeros():
    # pure singles between two occupied (or two virtual) spin orbitals have
    # zero gradient at the reference determinant
    n = 6
    ref = hf_state(n, 2, 1)  # occupied spin orbitals {0, 1, 2}
    rng = np.random.default_rng(43)
    h = random_hermitian_sum(rng, n, 12)
    occ_pair = raw_single_pool_op(2, 0, n)
    virt_pair = raw_single_pool_op(5, 3, n)
    mixed = raw_single_pool_op(4, 0, n)
    grads = pool_gradients(ref, h, [occ_pair, virt_pair, mixed])
    assert grads[0] == pytest.approx(0.0, abs=1e-12)
    assert grads[1] == pytest.approx(0.0, abs=1e-12)


def test_adapt_gcim_toy_exact(toy, toy_spectrum):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    trace.attach_exact(toy_spectrum)
    assert trace.converged
    assert abs(trace.energy_error) < 1e-10
    assert trace.overlap_deficit_value < 1e-6
    eps = trace.epsilon0_series()
    assert all(b <= a + 1e-10 for a, b in zip(eps, eps[1:]))
    # two generating functions per iteration
    assert all(r.subspace_dim == 2 * r.iteration for r in trace.records)


def test_adapt_gcim_deterministic(toy):
    h, pool, ref = toy
    t1 = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    t2 = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    assert [r.selected_index for r in t1.records] == \
        [r.selected_index for r in t2.records]
    assert [r.epsilon0 for r in t1.records] == [r.epsilon0 for r in t2.records]


def test_adapt_gcim_basis_states_match_prepare_state(h4):
    # product states come from the running surrogate, not from prepare_state
    h, pool, ref = h4
    trace = run_algorithm(h, pool, ref, AdaptConfig(max_iterations=6))
    assert any(len(r) > 1 for r in trace.basis.recipes)
    for recipe, state in zip(trace.basis.recipes, trace.basis.states):
        assert np.array_equal(state.amplitudes,
                              prepare_state(recipe, pool, ref).amplitudes)


def test_adapt_gcim_no_reselection(toy):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3, max_iterations=10))
    sel = [r.selected_index for r in trace.records]
    assert len(sel) == len(set(sel))


def test_adapt_vqe_toy(toy, toy_spectrum):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE))
    assert trace.converged and trace.reason == "gradient_norm"
    assert abs(trace.final_vqe_energy - toy_spectrum.eigenvalues[0]) < 1e-8
    energies = [r.vqe_energy for r in trace.records]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_adapt_vqe_unconverged_flag(toy):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref,
                          AdaptConfig(algorithm=ADAPT_VQE, max_iterations=1))
    assert not trace.converged and trace.reason == "max_iterations"


def test_vqe_minimize_single_rotation_grid_oracle(toy):
    h, pool, ref = toy
    recipe = BasisRecipe(((1, 0.1),))
    theta, energy, rounds = vqe_minimize(h, pool, recipe, ref)
    u = unitary_from_generator(dense_from_sum(pool[1].qubit))
    dense_h = dense_from_sum(h)
    grid = np.linspace(-np.pi, np.pi, 100_000)
    best = min(np.vdot(u(t) @ ref.amplitudes,
                       dense_h @ (u(t) @ ref.amplitudes)).real for t in grid)
    assert energy == pytest.approx(best, abs=1e-9)


def test_vqe_minimize_stationary_start(toy):
    h, pool, ref = toy
    recipe = BasisRecipe(((1, 0.3),))
    theta_star, energy, _ = vqe_minimize(h, pool, recipe, ref)
    recipe2 = recipe.with_thetas(theta_star)
    theta_again, _, rounds = vqe_minimize(h, pool, recipe2, ref)
    assert rounds == 0
    assert np.allclose(theta_again, theta_star)


def test_analytic_gradient_matches_finite_difference(toy):
    # generic Hamiltonians so the gradients are O(1), plus the toy itself
    _, pool, ref = toy
    rng = np.random.default_rng(47)
    for trial in range(6):
        h = random_hermitian_sum(rng, 4, 10)
        k = int(rng.integers(1, 4))
        ops = [pool[i] for i in rng.integers(0, len(pool), size=k)]
        thetas = rng.uniform(-1.0, 1.0, size=k)
        _, grad = ansatz_energy_gradient(h, ops, thetas, ref)
        step = 1e-5
        for s in range(k):
            tp, tm = thetas.copy(), thetas.copy()
            tp[s] += step
            tm[s] -= step
            ep, _ = ansatz_energy_gradient(h, ops, tp, ref)
            em, _ = ansatz_energy_gradient(h, ops, tm, ref)
            fd = (ep - em) / (2 * step)
            assert abs(grad[s] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_adapt_vqe_gcim_bound_and_dims(toy, toy_spectrum):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE_GCIM))
    for rec in trace.records:
        assert rec.epsilon0 <= rec.vqe_energy + 1e-10
        assert rec.subspace_dim == 2 * rec.iteration
    assert abs(trace.final_energy - toy_spectrum.eigenvalues[0]) < 1e-8

    vqe = run_algorithm(h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE))
    assert trace.final_energy <= vqe.final_vqe_energy + 1e-10


def test_adapt_vqe_gcim_single_iteration_dims(toy):
    h, pool, ref = toy
    trace = run_algorithm(
        h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE_GCIM, max_iterations=1))
    assert trace.records[-1].subspace_dim == 2
    assert trace.records[-1].kept_dim == 1  # duplicate directions truncated
    assert trace.records[-1].epsilon0 == pytest.approx(
        trace.records[-1].vqe_energy, abs=1e-9)


def test_one_shot_dimension_and_bound(toy, toy_spectrum):
    h, pool, ref = toy
    trace = run_algorithm(
        h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE_GCIM_1))
    assert len(trace.basis) == len(trace.records[-1].product_recipe) + 1
    assert trace.final_energy <= trace.final_vqe_energy + 1e-10
    assert abs(trace.final_energy - toy_spectrum.eigenvalues[0]) < 1e-8


def test_one_shot_single_rotation_matches_two_by_two(toy):
    h, pool, ref = toy
    trace = run_algorithm(
        h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE_GCIM_1, max_iterations=1))
    # one rotation: basis = {G(theta*)|ref>, ansatz} (identical states)
    assert len(trace.basis) == 2
    recipe = BasisRecipe.from_steps(trace.records[-1].product_recipe)
    state = prepare_state(recipe, pool, ref)
    e = state.inner(apply_paulisum(h, state)).real
    h22 = np.full((2, 2), e, dtype=complex)
    s22 = np.ones((2, 2), dtype=complex)
    oracle = solve_gevp(h22, s22, 1e-13).eigenvalues[0]
    assert trace.final_energy == pytest.approx(oracle, abs=1e-9)


def _assert_same_trace(got, want, h):
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert vars(a) == vars(b)
    assert (got.converged, got.reason) == (want.converged, want.reason)
    assert got.final_energy == want.final_energy
    assert got.final_vqe_energy == want.final_vqe_energy
    assert np.array_equal(got.final_state.data, want.final_state.data)
    assert (got.basis is None) == (want.basis is None)
    if got.basis is not None:
        for m_got, m_want in zip(build_matrices(got.basis, h), build_matrices(want.basis, h)):
            assert np.array_equal(m_got, m_want)


def _check_shared_loop(system, order):
    # each variant read from one loop, built under the first variant's
    # config, equals the same variant run on its own, whatever the order
    h, pool, ref = system
    loop = vqe_loop(h, pool, ref, AdaptConfig(algorithm=order[0]))
    shared = [run_algorithm(h, pool, ref, AdaptConfig(algorithm=a), loop) for a in order]
    for algorithm, trace in zip(order, shared):
        alone = run_algorithm(h, pool, ref, AdaptConfig(algorithm=algorithm))
        assert trace.algorithm == algorithm
        _assert_same_trace(trace, alone, h)


@pytest.mark.parametrize("order", list(itertools.permutations(VQE_FAMILY)))
def test_shared_loop_equals_separate_runs_toy(toy, order):
    _check_shared_loop(toy, order)


def test_shared_loop_equals_separate_runs_h4(h4):
    _check_shared_loop(h4, VQE_FAMILY)


def test_loop_built_under_other_settings_is_rejected(toy):
    h, pool, ref = toy
    loop = vqe_loop(h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE, max_iterations=3))
    with pytest.raises(ValueError, match="max_iterations 3"):
        run_algorithm(h, pool, ref,
                      AdaptConfig(algorithm=ADAPT_VQE_GCIM, max_iterations=4), loop)
    with pytest.raises(ValueError, match="vqe_grad_tol"):
        run_algorithm(h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE, max_iterations=3,
                                                vqe_grad_tol=1e-3), loop)
    other_ref = hf_state(h.n_qubits, 1, 1)  # equal to ref, but not the loop's
    with pytest.raises(ValueError, match="another system"):
        run_algorithm(h, pool, other_ref,
                      AdaptConfig(algorithm=ADAPT_VQE, max_iterations=3), loop)


def test_variants_read_from_one_loop_share_no_mutable_state(toy, toy_spectrum):
    h, pool, ref = toy
    loop = vqe_loop(h, pool, ref, AdaptConfig(algorithm=ADAPT_VQE))
    vqe, vqe_gcim = (run_algorithm(h, pool, ref, AdaptConfig(algorithm=a), loop)
                     for a in (ADAPT_VQE, ADAPT_VQE_GCIM))
    lists = [loop.trace.records, vqe.records, vqe_gcim.records]
    assert len({id(records) for records in lists}) == 3
    records = [r for records in lists for r in records]
    assert len({id(r) for r in records}) == len(records)
    assert len({id(r.gradients) for r in records}) == len(records)
    vqe.attach_exact(toy_spectrum)
    assert vqe.exact_energy is not None
    assert loop.trace.exact_energy is None and vqe_gcim.exact_energy is None
    assert all(r.epsilon0 is not None for r in vqe_gcim.records)
    assert all(r.epsilon0 is None for r in loop.trace.records)


def test_gcim_mn_limits(toy):
    h, pool, ref = toy
    plain = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    frozen = run_algorithm(
        h, pool, ref,
        AdaptConfig(algorithm=ADAPT_GCIM_MN, m=10_000, n=2, t_usr=3))
    assert [r.selected_index for r in frozen.records] == \
        [r.selected_index for r in plain.records]
    assert [r.epsilon0 for r in frozen.records] == \
        [r.epsilon0 for r in plain.records]
    assert frozen.total_opt_rounds == 0

    # m=1 with a generous budget follows the optimized-surrogate trajectory
    m1 = run_algorithm(
        h, pool, ref,
        AdaptConfig(algorithm=ADAPT_GCIM_MN, m=1, n=200, t_usr=3))
    vg = run_algorithm(h, pool, ref,
                       AdaptConfig(algorithm=ADAPT_VQE_GCIM, max_iterations=2))
    assert [r.selected_index for r in m1.records[:2]] == \
        [r.selected_index for r in vg.records[:2]]


def test_gcim_mn_round_budget(toy, toy_spectrum):
    h, pool, ref = toy
    cfg = AdaptConfig(algorithm=ADAPT_GCIM_MN, m=2, n=2, t_usr=3)
    trace = run_algorithm(h, pool, ref, cfg)
    calls = sum(1 for r in trace.records if r.iteration % 2 == 0)
    assert trace.total_opt_rounds <= 2 * calls
    assert abs(trace.final_energy - toy_spectrum.eigenvalues[0]) < 1e-8


def test_gcim_mn_rejects_zero_rounds_at_construction():
    with pytest.raises(ValueError, match="n >= 1"):
        AdaptConfig(algorithm=ADAPT_GCIM_MN, n=0)
    AdaptConfig(algorithm=ADAPT_GCIM, n=0)  # only the (m, n) variant uses n


def _canonical_gradient_subspace(rng, pool, ref, n_rot=3, s_min=1e-6):
    """Working subspace of one-rotation states plus the full product.

    Resamples until the overlap matrix is well conditioned: with an exactly
    rank-deficient basis the truncated eigenvector no longer satisfies the
    full-space stationarity the quotient rule relies on.
    """
    while True:
        idxs = rng.choice(len(pool), size=n_rot, replace=False)
        thetas = rng.uniform(-1.0, 1.0, size=n_rot)
        basis = SubspaceBasis(reference=ref, pool=pool)
        for i, t in zip(idxs, thetas):
            basis.append(BasisRecipe(((int(i), float(t)),)))
        basis.append(BasisRecipe(tuple((int(i), float(t))
                                       for i, t in zip(idxs, thetas))))
        gram = np.array([[a.inner(b) for b in basis.states]
                         for a in basis.states])
        if np.linalg.eigvalsh(gram)[0] > s_min:
            return basis, idxs


def _fd_eigenvalue_gradient(h, pool, basis, s, which=0, step=1e-5):
    """Central finite difference along the outermost-insertion flow."""
    a_op = pool[s].qubit
    vals = []
    for delta in (step, -step):
        states = [exp_apply(a_op, delta, st) if s in r.pool_indices() else st
                  for r, st in zip(basis.recipes, basis.states)]
        m = len(states)
        h_kets = [apply_paulisum(h, st) for st in states]
        hm = np.zeros((m, m), dtype=complex)
        sm = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                hm[i, j] = states[i].inner(h_kets[j])
                sm[i, j] = states[i].inner(states[j])
        vals.append(solve_gevp(hm, sm, 1e-13).eigenvalues[which])
    return (vals[0] - vals[1]) / (2 * step)


def test_gcim_energy_gradient_unused_parameter(toy):
    h, pool, ref = toy
    rng = np.random.default_rng(53)
    basis, idxs = _canonical_gradient_subspace(rng, pool, ref, n_rot=2)
    h_mat, s_mat = build_matrices(basis, h)
    res = solve_gevp(h_mat, s_mat, 1e-13)
    unused = next(i for i in range(len(pool)) if i not in idxs)
    assert gcim_energy_gradient(h, pool, basis, res, unused) == 0.0


def test_gcim_energy_gradient_matches_finite_difference():
    # a 6-qubit register leaves the derivative directions outside the span
    # (on the 4-qubit toy a 3-vector basis saturates its singlet sector and
    # every gradient is trivially zero)
    from gcim import build_pool

    pool = build_pool(3)
    ref = hf_state(6, 1, 1)
    rng = np.random.default_rng(59)
    seen_nonzero = 0
    for _ in range(6):
        h = random_molecular_hamiltonian(rng, 3)
        basis, idxs = _canonical_gradient_subspace(rng, pool, ref, n_rot=2)
        h_mat, s_mat = build_matrices(basis, h)
        res = solve_gevp(h_mat, s_mat, 1e-13)
        for s in idxs:
            grad = gcim_energy_gradient(h, pool, basis, res, int(s))
            fd = _fd_eigenvalue_gradient(h, pool, basis, int(s))
            assert abs(grad - fd) <= 1e-5 * max(1.0, abs(fd))
            seen_nonzero += abs(fd) > 1e-4
    assert seen_nonzero >= 4  # the comparison is not vacuous


def _quotient_rule_gradient(h, pool, basis, result, s, which=0):
    """d eps / d theta_s from m x m derivative matrices of explicit inner
    products: d|psi_j> = A_s|psi_j> for the states whose recipe holds s."""
    states = basis.states
    h_kets = [apply_paulisum(h, st) for st in states]
    d_kets = [apply_paulisum(pool[s].qubit, st) if s in r.pool_indices() else None
              for r, st in zip(basis.recipes, states)]
    inner = lambda a, b: 0.0 if a is None or b is None else a.inner(b)
    m = len(states)
    hm = np.array([[states[i].inner(h_kets[j]) for j in range(m)] for i in range(m)])
    sm = np.array([[states[i].inner(states[j]) for j in range(m)] for i in range(m)])
    dh = np.array([[inner(d_kets[i], h_kets[j]) + inner(h_kets[i], d_kets[j])
                    for j in range(m)] for i in range(m)])
    ds = np.array([[inner(d_kets[i], states[j]) + inner(states[i], d_kets[j])
                    for j in range(m)] for i in range(m)])
    f = result.eigenvectors[:, which]
    mean = lambda mat: complex(f.conj() @ mat @ f)
    return ((mean(dh) * mean(sm) - mean(hm) * mean(ds)) / mean(sm) ** 2).real


def test_gcim_energy_gradient_matches_quotient_rule(h4):
    h, pool, ref = h4
    rng = np.random.default_rng(61)
    seen_nonzero = 0
    for _ in range(5):
        basis, idxs = _canonical_gradient_subspace(rng, pool, ref, n_rot=4)
        res = solve_gevp(*build_matrices(basis, h), 1e-13)
        for s in idxs:
            grad = gcim_energy_gradient(h, pool, basis, res, int(s))
            want = _quotient_rule_gradient(h, pool, basis, res, int(s))
            assert abs(grad - want) <= 1e-10 * max(1.0, abs(want))
            seen_nonzero += abs(want) > 1e-3
    assert seen_nonzero >= 5  # the comparison is not vacuous


@pytest.mark.parametrize("algorithm", [ADAPT_GCIM, ADAPT_GCIM_MN])
def test_gcim_family_rejects_an_empty_pool(toy, algorithm):
    h, _, ref = toy
    with pytest.raises(ValueError, match="empty candidate"):
        run_algorithm(h, [], ref, AdaptConfig(algorithm=algorithm))


@pytest.mark.parametrize("algorithm", [ADAPT_GCIM, ADAPT_GCIM_MN])
def test_gcim_family_aborts_when_the_lowest_eigenvalue_rises(toy, rising_solver,
                                                              algorithm):
    with pytest.raises(RuntimeError,
                       match=r"^lowest eigenvalue rose by .* at iteration 2$"):
        run_algorithm(*toy, AdaptConfig(algorithm=algorithm))


# The first four generators adapt-gcim selects on H4's full pool.  On them
# alone every step of the lowest eigenvalue exceeds 7e-3 hartree, so the run
# ends on pool exhaustion whatever the BLAS kernel; the toy's own pool runs
# out only if a 1.5e-15 step counts as unstable, a rounding-floor decision.
H4_SUBPOOL = ("dS(0,1,2,3)", "dS(1,1,2,2)", "dS(0,0,3,3)", "dT(0,2,1,3)")


@pytest.mark.parametrize("overrides, reason, iterations", [
    ({"t_usr": 5}, "delta_eps", 3),
    ({}, "pool_exhausted", 4),
])
def test_adapt_gcim_stop_reasons(toy, h4, overrides, reason, iterations):
    h, pool, ref = toy if reason == "delta_eps" else h4
    if reason == "pool_exhausted":
        pool = [op for op in pool if op.label in H4_SUBPOOL]
    config = AdaptConfig(**overrides)
    trace = run_algorithm(h, pool, ref, config)
    assert (trace.converged, trace.reason, trace.iterations) == (True, reason, iterations)
    if reason == "pool_exhausted":
        assert sorted(r.selected_index for r in trace.records) == list(range(len(pool)))
        steps = np.diff([r.epsilon0 for r in trace.records])
        assert np.all(np.abs(steps) > 1000 * config.gcim_tol)


def test_trace_jsonable_fields(toy):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    rec = trace.records[0]
    assert rec.selected_label == pool[rec.selected_index].label
    assert len(rec.gradients) == len(pool)
    assert trace.time_gradients >= 0.0 and trace.time_energy > 0.0


def test_final_pair_matches_fresh_build(h4):
    h, pool, ref = h4
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3, max_iterations=8))
    # the loop left its pair on the basis, covering every state
    assert trace.basis.pair is not None
    assert len(trace.basis.pair.states) == len(trace.basis)
    h_loop, s_loop = build_matrices(trace.basis, h)
    fresh = SubspaceBasis(reference=ref, pool=pool, recipes=list(trace.basis.recipes),
                          states=list(trace.basis.states))
    h_new, s_new = build_matrices(fresh, h)
    assert np.array_equal(h_loop, h_new) and np.array_equal(s_loop, s_new)


@pytest.mark.parametrize("algorithm", [ADAPT_GCIM, ADAPT_VQE_GCIM])
def test_iteration_pairs_are_leading_blocks(toy, algorithm):
    # the basis only grows, so a run stopped after k iterations solves the
    # leading block of the full run's final pair
    h, pool, ref = toy
    full = run_algorithm(h, pool, ref, AdaptConfig(algorithm=algorithm, t_usr=3))
    h_fin, s_fin = build_matrices(full.basis, h)
    assert full.iterations >= 2
    for rec in full.records:
        cfg = AdaptConfig(algorithm=algorithm, t_usr=3, max_iterations=rec.iteration)
        part = run_algorithm(h, pool, ref, cfg)
        d = rec.subspace_dim
        h_k, s_k = build_matrices(part.basis, h)
        assert np.array_equal(h_k, h_fin[:d, :d])
        assert np.array_equal(s_k, s_fin[:d, :d])
        assert rec.eigenvalues == part.records[-1].eigenvalues == part.eigenvalues


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_algorithm_dispatches_on_config(toy, algorithm):
    # the config names the variant once; the trace carries that name
    h, pool, ref = toy
    cfg = AdaptConfig(algorithm=algorithm, t_usr=3)
    trace = run_algorithm(h, pool, ref, cfg)
    assert trace.algorithm == algorithm
    assert trace.records
    # the GCIM family never runs a VQE energy; the VQE family records one
    # per iteration
    vqe_family = algorithm not in (ADAPT_GCIM, ADAPT_GCIM_MN)
    assert all((r.vqe_energy is not None) == vqe_family for r in trace.records)


def test_stacked_screen_equals_one_inner_per_operator(h4):
    # at the reference and at a rotated surrogate, every gradient equals the
    # per-operator 2 Re <H psi|A_l psi> on the same matrices, bit for bit
    h, pool, ref = h4
    surrogate = prepare_state(BasisRecipe(((9, 0.7), (40, -0.3), (2, 1.1))), pool, ref)
    for state in (ref, surrogate):
        w = apply_paulisum(h, state)
        want = np.array([2.0 * w.inner(apply_paulisum(op.qubit, state)).real
                         for op in pool])
        got = pool_gradients(state, h, pool)
        assert np.array_equal(got, want)
    assert np.any(got != 0.0)
