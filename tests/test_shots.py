import numpy as np
import pytest

from gcim.adapt import AdaptConfig, run_algorithm
from gcim.cli import _noise_basis
from gcim.shots import (
    EntryEstimator,
    MatrixEstimators,
    ShotConfig,
    allocate_shots_is,
    allocate_shots_uniform,
    chebyshev_shots,
    exact_decomposition,
    hf_filter,
    mc_experiment,
    mc_sweep,
    sample_entry,
)
from gcim.subspace import BasisRecipe, SubspaceBasis, build_matrices, solve_gevp


@pytest.fixture(scope="module")
def h4_noise(h4):
    # the subspace `gcim noise` sweeps on H4 at default settings
    h, pool, ref = h4
    trace = run_algorithm(h, pool, ref, AdaptConfig())
    return h, _noise_basis(trace)


@pytest.fixture(scope="module")
def toy_noise(toy):
    # the subspace `gcim noise` sweeps on configs/toy_noise.json
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=5, s_threshold=1e-13))
    return h, _noise_basis(trace)


def _snapped(p):
    # the stored form of exact values: clipped to [-1, 1], and exactly +-1
    # where 1 - |p| <= 2**-46
    p = np.clip(p, -1.0, 1.0)
    return np.where(1.0 - np.abs(p) <= 2.0 ** -46, np.sign(p), p)

def _toy_noise_setup(toy, n_basis=3):
    h, pool, ref = toy
    recipes = [BasisRecipe(), BasisRecipe(((0, 0.7),)), BasisRecipe(((1, -0.4),))]
    basis = SubspaceBasis(reference=ref, pool=pool)
    for r in recipes[:n_basis]:
        basis.append(r)
    return h, basis


def _perturbed(basis, h, cfg, run=0):
    """One finite-shot draw of the projected pair, mirrored symmetric."""
    ests = MatrixEstimators.build(basis, h)
    h_vals, s_vals = ests.sample([cfg], [run])
    return ests.matrix(h_vals[0, 0]), ests.matrix(s_vals[0, 0])


def test_shot_config_validation():
    with pytest.raises(ValueError):
        ShotConfig(tau=0.5)
    with pytest.raises(ValueError):
        ShotConfig(s_multiplier=0.0)
    with pytest.raises(ValueError):
        ShotConfig(mode="exactly")


def test_exact_decomposition_reproduces_entry(toy):
    h, basis = _toy_noise_setup(toy)
    h_mat, _ = build_matrices(basis, h)
    for i in range(3):
        for j in range(i, 3):
            est = exact_decomposition(basis, h, i, j)
            assert est.coeffs @ est.p_values == pytest.approx(h_mat[i, j].real, abs=1e-10)
            assert np.all(np.abs(est.p_values) <= 1.0)


def test_exact_decomposition_matches_per_term_oracle(h4):
    from gcim.pauli import PauliSum, jw_to_matrix

    h, pool, ref = h4
    basis = SubspaceBasis(reference=ref, pool=pool)
    for r in [BasisRecipe(), BasisRecipe(((3, 0.7),)),
              BasisRecipe(((3, 0.7), (40, -1.1)))]:
        basis.append(r)
    terms = h.sorted_terms()
    mats = [jw_to_matrix(PauliSum(h.n_qubits, {p: 1.0})) for p, _ in terms]
    for i in range(3):
        for j in range(i, 3):
            bra, ket = basis.states[i].amplitudes, basis.states[j].amplitudes
            est = exact_decomposition(basis, h, i, j)
            assert est.coeffs.tolist() == [c.real for _, c in terms]
            expected = np.array([np.vdot(bra, m @ ket).real for m in mats])
            assert np.max(np.abs(est.p_values - expected)) < 1e-12


def test_sector_p_values_match_full_register_oracle(data_dir):
    # toy U/t = 8 plus XIII and IZXI, which map every (1, 1) state out of the
    # sector: on the sector they read exactly 0, as their full-register
    # expectations between sector states do
    from gcim.pauli import PauliSum, jw_to_matrix, parse_pauli_json
    from gcim.pool import build_pool
    from gcim.statevector import hf_state, pauli_expectations

    h = parse_pauli_json((data_dir / "toy_u8_sector_breaking.json").read_text())
    basis = SubspaceBasis(reference=hf_state(4, 1, 1), pool=build_pool(2))
    for r in [BasisRecipe(), BasisRecipe(((0, 0.7),)), BasisRecipe(((0, 0.7), (1, -0.4)))]:
        basis.append(r)
    space = basis.reference.space
    terms = h.sorted_terms()
    coeffs, values = pauli_expectations(basis.states, h, basis.states)
    assert coeffs.tolist() == [c for _, c in terms]
    leaving = [k for k, (p, _) in enumerate(terms)
               if not space.positions(space.indices ^ p.x)[1].any()]
    assert {terms[k][0].label for k in leaving} == {"XIII", "IZXI"}
    assert np.all(values[:, :, leaving] == 0)
    amps = [state.amplitudes for state in basis.states]
    for k, (p, _) in enumerate(terms):
        m = jw_to_matrix(PauliSum(h.n_qubits, {p: 1.0}))
        expected = np.array([[np.vdot(bra, m @ ket) for ket in amps] for bra in amps])
        assert np.max(np.abs(values[:, :, k] - expected)) <= 1e-15


def test_overlaps_are_the_projected_pair(h4):
    # the estimators read S from the basis's pair instead of recomputing it
    # on this basis a full-register vdot differs from the pair in the last bit
    h, pool, ref = h4
    rng = np.random.default_rng(0)
    basis = SubspaceBasis(reference=ref, pool=pool)
    for _ in range(8):
        basis.append(BasisRecipe(tuple((int(rng.integers(len(pool))), float(rng.uniform(-1, 1)))
                                       for _ in range(3))))
    ests = MatrixEstimators.build(basis, h)
    _, s_mat = build_matrices(basis, h)
    rows, cols = ests.entries
    assert np.array_equal(ests.overlaps, _snapped(s_mat[rows, cols].real))


@pytest.mark.parametrize("setup", ["toy_noise", "h4_noise"])
def test_entry_and_sweep_store_the_same_p_values(request, setup):
    # one clip-and-snap rule: an entry's decomposition holds the p-values
    # the sweep samples, bit for bit
    h, basis = request.getfixturevalue(setup)
    ests = MatrixEstimators.build(basis, h)
    for e, (i, j) in enumerate(zip(*ests.entries)):
        p = exact_decomposition(basis, h, i, j).p_values
        assert p.tobytes() == ests.p_values[e].tobytes()


def test_zero_coefficient_terms_absent(toy):
    # PauliSum drops zero coefficients, so every term carries weight
    h, basis = _toy_noise_setup(toy)
    est = exact_decomposition(basis, h, 0, 1)
    assert np.all(np.abs(est.coeffs) > 0)
    assert len(est.coeffs) == len(h)


def test_sample_entry_deterministic_at_unit_p():
    est = EntryEstimator(np.array([0.5, -1.5]), np.array([1.0, 1.0]),
                         np.array([100, 100]))
    rng = np.random.default_rng(0)
    for mode in ("binomial-exact", "gaussian"):
        cfg = ShotConfig(tau=100, mode=mode)
        draws = [sample_entry(est, cfg, rng) for _ in range(20)]
        assert np.allclose(draws, -1.0)  # sum of c_k with zero variance


def test_sample_entry_variance_law():
    # single term c=1, p=0, N=100: Var(Xi) = 1/100
    est = EntryEstimator(np.array([1.0]), np.array([0.0]), np.array([100]))
    assert est.variance() == pytest.approx(0.01)
    for mode in ("binomial-exact", "gaussian"):
        rng = np.random.default_rng(1)
        cfg = ShotConfig(tau=100, mode=mode)
        draws = np.array([sample_entry(est, cfg, rng) for _ in range(100_000)])
        assert abs(draws.var() - 0.01) / 0.01 < 0.05
        assert abs(draws.mean()) < 4 * 0.1 / np.sqrt(100_000) * 10


def test_sample_entry_unbiased_generic():
    rng = np.random.default_rng(2)
    coeffs = rng.normal(size=12)
    ps = rng.uniform(-0.9, 0.9, size=12)
    shots = allocate_shots_is(coeffs, tau=400)
    est = EntryEstimator(coeffs, ps, shots)
    for mode in ("binomial-exact", "gaussian"):
        cfg = ShotConfig(tau=400, mode=mode)
        draws = np.array([sample_entry(est, cfg, rng) for _ in range(50_000)])
        se = np.sqrt(est.variance() / len(draws))
        assert abs(draws.mean() - est.coeffs @ est.p_values) < 4 * se
        assert abs(draws.var() - est.variance()) / est.variance() < 0.05


def test_allocate_shots_is_reference_case():
    shots = allocate_shots_is([1.0, 3.0], tau=100)
    assert shots.tolist() == [50, 150]


def test_shot_counts_past_int64_are_errors():
    # an overflowing share used to wrap negative and be clipped to one shot
    with pytest.raises(ValueError):
        allocate_shots_is([1.0, 3.0], tau=1e19)
    with pytest.raises(ValueError):
        allocate_shots_uniform([1.0, 3.0], tau=1e19)
    with pytest.raises(ValueError):
        ShotConfig(tau=1e17)  # 1e19 overlap shots at s_multiplier 100
    assert ShotConfig(tau=1e16).tau == 1e16


def test_allocate_shots_is_uniform_when_equal():
    shots = allocate_shots_is([0.5, 0.5, 0.5], tau=77)
    assert shots.tolist() == [77, 77, 77]


def test_allocate_shots_total_conserved():
    rng = np.random.default_rng(3)
    for _ in range(20):
        c = rng.normal(size=rng.integers(2, 40))
        tau = float(rng.integers(10, 1000))
        shots = allocate_shots_is(c, tau)
        assert abs(int(shots.sum()) - tau * len(c)) <= len(c)
        assert np.all(shots[np.abs(c) > 0] >= 1)
    with pytest.raises(ValueError):
        allocate_shots_is([0.0, 0.0], tau=10)


def test_importance_sampling_variance_never_worse():
    # analytic comparison of the two allocation rules at equal total shots
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 50))
        c = rng.normal(size=n) * rng.uniform(0.1, 3.0)
        p = rng.uniform(-1.0, 1.0, size=n)
        tau = 1000.0
        var_is = float(np.sum(c ** 2 * (1 - p ** 2)
                              / np.maximum(allocate_shots_is(c, tau), 1)))
        var_unif = float(np.sum(c ** 2 * (1 - p ** 2)
                                / allocate_shots_uniform(c, tau)))
        assert var_is <= var_unif * 1.02 + 1e-12


def test_chebyshev_shot_budget():
    assert chebyshev_shots([1.0], a=1e-4, eta=1.0) == 10 ** 8
    n1 = chebyshev_shots([1.0, 2.0], a=1e-3, eta=0.05)
    n2 = chebyshev_shots([1.0, 2.0], a=0.5e-3, eta=0.05)
    assert n2 == 4 * n1
    with pytest.raises(ValueError):
        chebyshev_shots([1.0], a=0.0, eta=0.5)


def test_chebyshev_molecular_scale(h4):
    # published per-entry budgets for molecular Hamiltonians sit at 1e10-1e12
    # for a = 1e-4 and eta in {1%, 5%}
    h, _, _ = h4
    coeffs = [c.real for _, c in h.sorted_terms()]
    for eta in (0.05, 0.01):
        n = chebyshev_shots(coeffs, a=1e-4, eta=eta)
        assert 1e9 < n < 1e13


def test_perturb_matrices_variance_collapse(toy):
    h, basis = _toy_noise_setup(toy)
    h_mat, s_mat = build_matrices(basis, h)
    cfg = ShotConfig(tau=1e14, mode="gaussian", seed=5)
    h_noisy, s_noisy = _perturbed(basis, h, cfg)
    assert np.max(np.abs(h_noisy - h_mat.real)) < 1e-6
    assert np.max(np.abs(s_noisy - s_mat.real)) < 1e-6
    assert np.allclose(h_noisy, h_noisy.T)


def test_perturb_matrices_reproducible(toy):
    h, basis = _toy_noise_setup(toy)
    cfg = ShotConfig(tau=1e4, seed=9)
    a1 = _perturbed(basis, h, cfg, run=3)
    a2 = _perturbed(basis, h, cfg, run=3)
    assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])
    b = _perturbed(basis, h, cfg, run=4)
    assert not np.array_equal(a1[0], b[0])


def test_noisy_gevp_with_duplicates_does_not_fail(toy):
    # indefinite noisy overlap matrices must pass through the truncation path
    h, pool, ref = toy
    basis = SubspaceBasis(reference=ref, pool=pool)
    basis.append(BasisRecipe())
    basis.append(BasisRecipe())  # exact duplicate
    basis.append(BasisRecipe(((0, 0.7),)))
    cfg = ShotConfig(tau=1e6, mode="gaussian", seed=11)
    for run in range(25):
        h_noisy, s_noisy = _perturbed(basis, h, cfg, run)
        res = solve_gevp(h_noisy, s_noisy, 1e-5)
        assert np.isfinite(res.ground_energy)


def test_mc_experiment_zero_noise_limit(toy):
    h, basis = _toy_noise_setup(toy)
    cfg = ShotConfig(tau=1e14, mode="gaussian", seed=13)
    summary = mc_experiment(basis, h, cfg, runs=10)
    assert summary.mean_error < 1e-6
    assert summary.ci_low <= summary.median_error <= summary.ci_high
    assert len(summary.kept_dims) == 10
    with pytest.raises(ValueError):
        mc_experiment(basis, h, cfg, runs=1)
    with pytest.raises(ValueError, match="no shot cells"):
        mc_sweep(basis, h, [], runs=10)


def test_mc_experiment_error_shrinks_with_tau(toy):
    h, basis = _toy_noise_setup(toy)
    errors = []
    for tau in (1e8, 1e12):
        cfg = ShotConfig(tau=tau, mode="gaussian", seed=17)
        errors.append(mc_experiment(basis, h, cfg, runs=40).median_error)
    assert errors[1] < errors[0]


def test_matrix_estimators_cache_consistency(toy):
    h, basis = _toy_noise_setup(toy)
    cfg = ShotConfig(tau=100, seed=19, importance_sampling=True)
    ests = MatrixEstimators.build(basis, h)
    h_mat, s_mat = build_matrices(basis, h)
    rows, cols = ests.entries
    for e, (i, j) in enumerate(zip(rows, cols)):
        assert ests.coeffs @ ests.p_values[e] == pytest.approx(h_mat[i, j].real, abs=1e-10)
        assert ests.overlaps[e] == pytest.approx(s_mat[i, j].real, abs=1e-12)
    # every H entry shares the coefficients, so one allocation serves them all
    h_shots = allocate_shots_is(ests.coeffs, cfg.tau)
    assert np.all(h_shots >= 1)
    # overlap entries get s_multiplier-times more shots
    s_shots = allocate_shots_is([1.0], cfg.tau * cfg.s_multiplier)
    assert s_shots[0] == int(round(cfg.tau * cfg.s_multiplier))


def test_sweep_cells_reproduce_single_cells(toy):
    # a sweep decomposes once; each cell must sample exactly as if built anew
    h, basis = _toy_noise_setup(toy)
    first = MatrixEstimators.build(basis, h)
    cells = [ShotConfig(tau=1e9, seed=5),
             ShotConfig(tau=300, seed=5, importance_sampling=True, s_multiplier=7)]
    swept = first.sample(cells, range(3))
    for c, cfg in enumerate(cells):
        alone = MatrixEstimators.build(basis, h).sample([cfg], range(3))
        for a, b in zip(swept, alone):
            assert np.array_equal(a[c], b[0])
    for cfg, summary in zip(cells, mc_sweep(basis, h, cells, runs=4)):
        alone = mc_experiment(basis, h, cfg, runs=4)
        assert np.array_equal(summary.errors, alone.errors)
    with pytest.raises(ValueError):
        first.sample([ShotConfig(seed=1), ShotConfig(seed=2)], range(2))


@pytest.mark.parametrize("mode", ["binomial-exact", "gaussian"])
def test_sweep_stream_contract(toy, mode):
    # in run r of every cell, term t draws its column of entries from a fresh
    # stream keyed (seed, r, t), t = len(h) for the overlap, at that cell's
    # shot count; an H entry adds c_t (lambda / n) in h's term order
    h, basis = _toy_noise_setup(toy)
    ests = MatrixEstimators.build(basis, h)
    seed = 29
    cells = [ShotConfig(tau=tau, mode=mode, importance_sampling=flag, seed=seed)
             for tau in (1e4, 1e8) for flag in (False, True)]
    runs = range(3)
    h_vals, s_vals = ests.sample(cells, runs)
    rows, cols = ests.entries
    decomps = [exact_decomposition(basis, h, i, j) for i, j in zip(rows, cols)]
    coeffs = decomps[0].coeffs
    p_cols = _snapped(np.array([d.p_values for d in decomps])).T
    overlaps = _snapped(np.array([basis.states[i].inner(basis.states[j]).real
                                  for i, j in zip(rows, cols)]))
    assert np.array_equal(p_cols.T, ests.p_values)
    assert np.array_equal(overlaps, ests.overlaps)
    assert np.any(np.abs(p_cols) == 1.0) and np.any(np.abs(p_cols) < 1.0)

    def draw(rng, n, p):
        if mode == "binomial-exact":
            return 2.0 * rng.binomial(n, (1.0 + p) / 2.0) - n
        return rng.normal(n * p, np.sqrt(n * (1.0 - p * p)))

    for c, cfg in enumerate(cells):
        alloc = allocate_shots_is if cfg.importance_sampling else allocate_shots_uniform
        h_shots = alloc(coeffs, cfg.tau)
        s_shots = alloc([1.0], cfg.tau * cfg.s_multiplier)[0]
        for r in runs:
            want = np.zeros(len(rows))
            for t, (coeff, n, p) in enumerate(zip(coeffs, h_shots, p_cols)):
                rng = np.random.default_rng(np.random.SeedSequence((seed, r, t)))
                want += coeff * (draw(rng, n, p) / n)
            assert np.array_equal(h_vals[c, r], want)
            rng = np.random.default_rng(np.random.SeedSequence((seed, r, len(h))))
            assert np.array_equal(s_vals[c, r], draw(rng, s_shots, overlaps) / s_shots)


@pytest.mark.parametrize("mode", ["binomial-exact", "gaussian"])
def test_sample_does_not_hang_on_the_last_bit(h4_noise, mode):
    # a p or overlap of exactly +-1 moved one ulp toward 0, as a change of
    # summation order can move it, is stored as +-1 again, so no draw moves
    h, basis = h4_noise
    ests = MatrixEstimators.build(basis, h)
    cells = [ShotConfig(tau=tau, mode=mode, importance_sampling=flag, seed=3)
             for tau in (1e10, 1e12) for flag in (False, True)]
    want = ests.sample(cells, range(4))
    nudged = [np.where(np.abs(v) == 1.0, np.nextafter(v, 0.0), v)
              for v in (ests.p_values, ests.overlaps)]
    assert all(np.any(a != b) for a, b in zip(nudged, (ests.p_values, ests.overlaps)))
    got = MatrixEstimators(ests.dim, ests.coeffs, *nudged).sample(cells, range(4))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["binomial-exact", "gaussian"])
def test_unit_p_entry_is_its_exact_mean(h4_noise, mode):
    # every term at p = +-1 has a certain outcome, so the estimate is sum c_t p_t
    h, basis = h4_noise
    coeffs = MatrixEstimators.build(basis, h).coeffs
    signs = np.where(np.arange(len(coeffs)) % 3 == 0, -1.0, 1.0)
    ests = MatrixEstimators(1, coeffs, signs[None, :], np.array([-1.0]))
    mean = 0.0
    for c, p in zip(coeffs, signs):
        mean += c * p
    cells = [ShotConfig(tau=tau, mode=mode, importance_sampling=flag, seed=5)
             for tau in (1e3, 1e12) for flag in (False, True)]
    h_vals, s_vals = ests.sample(cells, range(3))
    assert np.all(h_vals == mean) and np.all(s_vals == -1.0)


def test_binomial_cells_share_random_numbers(h4_noise):
    # binomial cells draw the same numbers except from a rejection-count
    # mismatch to the end of one term's column, so the scaled deviations of
    # two cells stay nearly proportional; one long stream per run would
    # decorrelate them (about 0.87)
    h, basis = h4_noise
    ests = MatrixEstimators.build(basis, h)
    cells = [ShotConfig(tau=tau, seed=3) for tau in (1e10, 1e12)]
    h_vals, s_vals = ests.sample(cells, range(20))
    for vals, exact in ((h_vals, ests.p_values @ ests.coeffs), (s_vals, ests.overlaps)):
        lo, hi = (np.sqrt(cfg.tau) * (vals[c] - exact) for c, cfg in enumerate(cells))
        assert np.corrcoef(lo.ravel(), hi.ravel())[0, 1] >= 0.99


def test_sweep_cells_share_random_numbers(toy):
    # a Gaussian draw is loc + scale * z, and every cell of a sweep draws the
    # same z, so sqrt(tau) * (X(tau) - exact) is the same at every tau
    h, basis = _toy_noise_setup(toy)
    ests = MatrixEstimators.build(basis, h)
    cells = [ShotConfig(tau=tau, mode="gaussian", seed=31) for tau in (1e8, 1e12)]
    h_vals, s_vals = ests.sample(cells, range(4))
    for vals, exact in ((h_vals, ests.p_values @ ests.coeffs), (s_vals, ests.overlaps)):
        lo, hi = (np.sqrt(cfg.tau) * (vals[c] - exact) for c, cfg in enumerate(cells))
        assert np.max(np.abs(lo)) > 1e-3   # the comparison is not between zeros
        np.testing.assert_allclose(hi, lo, rtol=1e-6, atol=1e-9)


def test_hf_filter_branches():
    assert hf_filter(0.35) == 1
    assert hf_filter(-0.5) == -1
    assert hf_filter(0.1) == 0
    assert hf_filter(0.2) == 0  # boundary goes to the middle branch


def test_hf_filter_exactness_under_bounded_noise():
    rng = np.random.default_rng(23)
    truth = rng.choice([-1, 0, 1], size=4096)
    noise = rng.uniform(-0.19, 0.19, size=4096)
    filtered = np.array([hf_filter(t + e) for t, e in zip(truth, noise)])
    assert np.array_equal(filtered, truth)


def test_estimator_invariants():
    with pytest.raises(ValueError):
        EntryEstimator(np.array([1.0]), np.array([0.5, 0.5]))
    est = EntryEstimator(np.array([1.0]), np.array([1.5]))
    assert est.p_values[0] == 1.0  # clipped into [-1, 1]
    with pytest.raises(ValueError):
        est.variance()
