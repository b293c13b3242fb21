"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 12 is skipped
when the molecular integral fixture is absent.
"""

import itertools

import numpy as np
import pytest
import scipy.stats

from gcim import (
    ADAPT_GCIM_MN,
    ADAPT_VQE_GCIM,
    AdaptConfig,
    BasisRecipe,
    ShotConfig,
    SubspaceBasis,
    assemble_hamiltonian,
    build_matrices,
    build_pool,
    exact_spectrum,
    gcim_energy_gradient,
    hf_state,
    jordan_wigner,
    mc_experiment,
    overlap_deficit,
    parse_fcidump,
    run_algorithm,
    solve_gevp,
    toy_system,
)
from gcim.adapt import select_operator
from gcim.fermion import FermionOperator
from gcim.pauli import PauliSum, jw_to_matrix
from gcim.resources import GIVENS_FSWAP, REDUCED, STANDARD, cnot_count
from gcim.shots import EntryEstimator, allocate_shots_is, hf_filter, sample_entry
from gcim.statevector import StateVector, apply_paulisum, exp_apply
from gcim.subspace import orthogonalize_basis

from helpers import (
    dense_from_sum,
    grid_expectations,
    random_hermitian_sum,
    random_molecular_hamiltonian,
    refined_grid_minimum,
    rotation_applier,
)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _load_system(path):
    ints = parse_fcidump(path.read_text())
    h = jordan_wigner(assemble_hamiltonian(ints), 2 * ints.n_orb)
    pool = build_pool(ints.n_orb)
    ref = hf_state(2 * ints.n_orb, ints.n_alpha, ints.n_beta)
    return h, pool, ref


def test_criterion_01_pool_exhaustion_exactness(data_dir):
    # the builtin toy model plus every supplied integral file (<= 12 spin
    # orbitals; larger files are out of the desk-scale contract)
    systems = [("toy", toy_system(1.0, 2.0))]
    for path in sorted(data_dir.glob("*.fcidump")):
        ints = parse_fcidump(path.read_text())
        if 2 * ints.n_orb <= 12:
            systems.append((path.stem, _load_system(path)))
    worst_err, worst_deficit = 0.0, 0.0
    for name, (h, pool, ref) in systems:
        trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=10))
        trace.attach_exact(exact_spectrum(h, k=1))
        worst_err = max(worst_err, abs(trace.energy_error))
        worst_deficit = max(worst_deficit, trace.overlap_deficit_value)
    _report(1, "pool-exhaustion exactness",
            worst_err < 1e-8 and worst_deficit < 1e-6,
            f"{len(systems)} systems, max |error| {worst_err:.2e}, "
            f"max deficit {worst_deficit:.2e}")


def _disjoint_givens_instance(rng):
    """(H, reference, rotation generators) with pairwise-disjoint supports.

    Each generator is a bare skew pair acting as a two-configuration Givens
    rotation on the reference, so the subset-product basis projects the whole
    ansatz family out of the subspace (the premise of the variational bound).
    """
    n = 6
    orbitals = list(rng.permutation(n))
    k = int(rng.integers(1, 4))
    size_options = {1: [(2,), (4,)], 2: [(2, 2), (2, 4), (4, 2)], 3: [(2, 2, 2)]}
    sizes = size_options[k][int(rng.integers(0, len(size_options[k])))]
    ops = []
    occupied = set()
    idx = 0
    for take in sizes:
        chunk = orbitals[idx:idx + take]
        idx += take
        op = FermionOperator()
        if take == 2:
            op.add_term(1.0, (chunk[0],), (chunk[1],))
            occupied.add(chunk[1])
        else:
            op.add_term(1.0, (chunk[0], chunk[1]), (chunk[2], chunk[3]))
            occupied.update(chunk[2:])
        skew = op.minus_hc()
        ops.append(jordan_wigner(skew, n))
    for j in orbitals[idx:]:
        if rng.random() < 0.5:
            occupied.add(j)
    index = sum(1 << j for j in occupied)
    ref = StateVector.basis_state(n, index)
    h = random_hermitian_sum(rng, n, 16)
    return h, ref, ops


def test_criterion_02_theorem1_bound():
    rng = np.random.default_rng(2024)
    violations = 0
    worst_margin = -np.inf
    for _ in range(200):
        h, ref, ops = _disjoint_givens_instance(rng)
        k = len(ops)
        thetas = rng.uniform(-np.pi, np.pi, size=k)
        states = []
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(k), r) for r in range(k + 1)):
            v = ref
            for i in subset:
                v = exp_apply(ops[i], float(thetas[i]), v)
            states.append(v)
        m = len(states)
        h_kets = [apply_paulisum(h, st) for st in states]
        hm = np.zeros((m, m), dtype=complex)
        sm = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                hm[i, j] = states[i].inner(h_kets[j])
                sm[i, j] = states[i].inner(states[j])
        eps0 = solve_gevp(hm, sm, 1e-13).eigenvalues[0]

        appliers = [rotation_applier(dense_from_sum(op)) for op in ops]
        dense_h = dense_from_sum(h)
        best = np.inf
        for _ in range(1000):
            draw = rng.uniform(-np.pi, np.pi, size=k)
            psi = ref.amplitudes
            for ap, t in zip(appliers, draw):
                psi = ap(t, psi)
            best = min(best, np.vdot(psi, dense_h @ psi).real)
        margin = eps0 - best
        worst_margin = max(worst_margin, margin)
        violations += margin > 1e-10
    _report(2, "variational lower bound",
            violations == 0,
            f"200 instances, worst eps0 - best_draw = {worst_margin:.2e}")


def test_criterion_03_two_point_subspace_equals_grid_minimum():
    # real-arithmetic instances: with complex Hamiltonian matrix elements the
    # two-dimensional span admits complex combinations below the real
    # rotation family, and the equivalence is no longer an identity
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = 4
        h = random_molecular_hamiltonian(rng, 2)
        p, q = rng.choice(n, size=2, replace=False)
        op = FermionOperator()
        op.add_term(1.0, (int(p),), (int(q),))
        gen = jordan_wigner(op.minus_hc(), n)
        occ = {int(q)} | {j for j in range(n)
                          if j not in (p, q) and rng.random() < 0.5}
        ref = StateVector.basis_state(n, sum(1 << j for j in occ))
        states = [exp_apply(gen, np.pi / 8, ref), exp_apply(gen, 3 * np.pi / 8, ref)]
        hm = np.zeros((2, 2), dtype=complex)
        sm = np.zeros((2, 2), dtype=complex)
        h_kets = [apply_paulisum(h, st) for st in states]
        for i in range(2):
            for j in range(2):
                hm[i, j] = states[i].inner(h_kets[j])
                sm[i, j] = states[i].inner(states[j])
        eps0 = solve_gevp(hm, sm, 1e-13).eigenvalues[0]

        grid = np.linspace(-np.pi, np.pi, 10_000, endpoint=False)
        energies = grid_expectations(dense_from_sum(gen), dense_from_sum(h),
                                     ref.amplitudes, grid)
        worst = max(worst, abs(eps0 - refined_grid_minimum(energies)))
    _report(3, "two-point subspace equals grid minimum", worst < 1e-8,
            f"50 instances, worst |eps0 - grid min| = {worst:.2e}")


def test_criterion_04_monotone_convergence(data_dir):
    systems = [toy_system(1.0, 2.0)]
    for name in ("h3_chain_moderate.fcidump", "h3_chain_stretched.fcidump"):
        if (data_dir / name).exists():
            systems.append(_load_system(data_dir / name))
    worst_rise = -np.inf
    count = 0
    for h, pool, ref in systems:
        for cfg in (AdaptConfig(t_usr=10), AdaptConfig(algorithm=ADAPT_VQE_GCIM)):
            trace = run_algorithm(h, pool, ref, cfg)
            eps = trace.epsilon0_series()
            rises = [b - a for a, b in zip(eps, eps[1:])]
            worst_rise = max(worst_rise, max(rises, default=-np.inf))
            count += 1
    _report(4, "monotone lowest-eigenvalue traces", worst_rise <= 1e-10,
            f"{count} traces, worst rise {worst_rise:.2e}")


def test_criterion_05_eigenvalue_gradient_finite_difference():
    rng = np.random.default_rng(505)
    pool = build_pool(3)
    ref = hf_state(6, 1, 1)
    step = 1e-5
    checked = 0
    informative = 0
    worst = 0.0
    while checked < 100:
        h = random_molecular_hamiltonian(rng, 3)
        n_rot = int(rng.integers(2, 4))
        idxs = rng.choice(len(pool), size=n_rot, replace=False)
        thetas = rng.uniform(-1.0, 1.0, size=n_rot)
        basis = SubspaceBasis(reference=ref, pool=pool)
        for i, t in zip(idxs, thetas):
            basis.append(BasisRecipe(((int(i), float(t)),)))
        basis.append(BasisRecipe(tuple((int(i), float(t))
                                       for i, t in zip(idxs, thetas))))
        h_mat, s_mat = build_matrices(basis, h)
        if np.linalg.eigvalsh(s_mat)[0].real < 1e-4:
            continue
        res = solve_gevp(h_mat, s_mat, 1e-13)
        if res.eigenvalues[1] - res.eigenvalues[0] < 1e-2:
            # near a crossing the ordered lowest eigenvalue is not smooth
            # and central differences straddle branches
            continue
        for s in idxs:
            s = int(s)
            a_op = pool[s].qubit
            vals = []
            for delta in (step, -step):
                states = [exp_apply(a_op, delta, st)
                          if s in r.pool_indices() else st
                          for r, st in zip(basis.recipes, basis.states)]
                m = len(states)
                h_kets = [apply_paulisum(h, st) for st in states]
                hm = np.zeros((m, m), dtype=complex)
                sm = np.zeros((m, m), dtype=complex)
                for i in range(m):
                    for j in range(m):
                        hm[i, j] = states[i].inner(h_kets[j])
                        sm[i, j] = states[i].inner(states[j])
                vals.append(solve_gevp(hm, sm, 1e-13).eigenvalues[0])
            fd = (vals[0] - vals[1]) / (2 * step)
            grad = gcim_energy_gradient(h, pool, basis, res, s)
            worst = max(worst, abs(grad - fd) / max(1.0, abs(fd)))
            informative += abs(fd) > 1e-4
            checked += 1
    _report(5, "analytic eigenvalue gradient vs finite differences",
            worst < 1e-5 and informative >= 30,
            f"{checked} gradients ({informative} with |fd| > 1e-4), "
            f"worst scaled error {worst:.2e}")


def test_criterion_06_jordan_wigner_exactness():
    def ladder(index, create, n):
        op = FermionOperator()
        if create:
            op.add_term(1.0, (index,), ())
        else:
            op.add_term(1.0, (), (index,))
        return jordan_wigner(op, n)

    n = 6
    ident = PauliSum.identity(n)
    car_ok = True
    for p_i in range(n):
        ap = ladder(p_i, False, n)
        for q_i in range(n):
            aq, aqd = ladder(q_i, False, n), ladder(q_i, True, n)
            anti = ap * aq + aq * ap
            car_ok &= not anti.terms
            anti2 = ap * aqd + aqd * ap
            if p_i == q_i:
                car_ok &= anti2.terms == ident.terms
            else:
                car_ok &= not anti2.terms
    worst_ah = 0.0
    for n_spatial in (2, 3):
        for op in build_pool(n_spatial):
            mat = jw_to_matrix(op.qubit)
            worst_ah = max(worst_ah, float(np.max(np.abs(mat + mat.conj().T))))
    _report(6, "Jordan-Wigner anticommutation and pool skew-symmetry",
            car_ok and worst_ah < 1e-14,
            f"CAR exact on n=6; worst |A + A^H| = {worst_ah:.2e}")


def test_criterion_07_cnot_closed_forms():
    ok = cnot_count((1, 0), STANDARD) == 4
    ok &= cnot_count((0, 1, 2, 3), GIVENS_FSWAP) == 14
    for q in range(12):
        for p in range(q + 1, 13):
            ok &= cnot_count((p, q), STANDARD) == 4 * (p - q)
            ok &= cnot_count((p, q), REDUCED) == 2 * (p - q) + 1
            ok &= cnot_count((p, q), GIVENS_FSWAP) == 6 * (p - q) - 4
    for q in range(10):
        for s in range(q + 1, 11):
            for p in range(s + 1, 12):
                for r in range(p + 1, 13):
                    ok &= cnot_count((q, s, p, r), STANDARD) == \
                        16 * (s - q + r - p + 1)
                    ok &= cnot_count((q, s, p, r), REDUCED) == \
                        2 * (s - q + r - p) + 9
                    ok &= cnot_count((q, s, p, r), GIVENS_FSWAP) == \
                        6 * (r - s + p - q) - 10
    _report(7, "CNOT closed forms (exhaustive, indices <= 12)", ok, "")


def _conditioned_instance(rng, n_spatial):
    # reference plus two rotations: three vectors fit inside the 3-dim
    # singlet sector of a 2-orbital system, so a well-conditioned overlap
    # matrix exists (four would be deterministically dependent)
    h = random_molecular_hamiltonian(rng, n_spatial)
    pool = build_pool(n_spatial)
    ref = hf_state(2 * n_spatial, 1, 1)
    while True:
        basis = SubspaceBasis(reference=ref, pool=pool)
        basis.append(BasisRecipe())
        for _ in range(2):
            i = int(rng.integers(0, len(pool)))
            basis.append(BasisRecipe(((i, float(rng.uniform(-1, 1))),)))
        if len(basis) < 3:
            continue
        _, s_mat = build_matrices(basis, h)
        if np.linalg.eigvalsh(s_mat)[0].real > 1e-3:
            return h, basis


def test_criterion_08_shot_noise_statistics():
    rng = np.random.default_rng(808)
    # (a) variance law within 5% at 1e5 draws
    var_ok = True
    for _ in range(3):
        n_terms = int(rng.integers(5, 51))
        coeffs = rng.normal(size=n_terms)
        ps = rng.uniform(-0.95, 0.95, size=n_terms)
        est = EntryEstimator(coeffs, ps, allocate_shots_is(coeffs, tau=200))
        cfg = ShotConfig(tau=200, mode="binomial-exact")
        draws = np.array([sample_entry(est, cfg, rng) for _ in range(100_000)])
        var_ok &= abs(draws.var() - est.variance()) / est.variance() < 0.05
    # (b) allocation reference case
    alloc_ok = allocate_shots_is([1.0, 3.0], tau=100).tolist() == [50, 150]
    # (c) importance sampling wins on most instances at equal shots
    wins = 0
    n_instances = 10
    for k in range(n_instances):
        h, basis = _conditioned_instance(np.random.default_rng(900 + k), 2)
        medians = {}
        for is_flag in (False, True):
            cfg = ShotConfig(tau=1e9, mode="gaussian",
                             importance_sampling=is_flag, seed=1000 + k)
            medians[is_flag] = mc_experiment(basis, h, cfg, runs=100).median_error
        wins += medians[True] <= medians[False] * (1 + 1e-9)
    # (d) median error decreases monotonically in tau (Spearman over 4 decades)
    h, basis = _conditioned_instance(np.random.default_rng(950), 2)
    taus = [1e8, 1e9, 1e10, 1e11, 1e12]
    meds = []
    for tau in taus:
        cfg = ShotConfig(tau=tau, mode="gaussian", seed=77)
        meds.append(mc_experiment(basis, h, cfg, runs=100).median_error)
    rho = scipy.stats.spearmanr(taus, meds).statistic
    ok = var_ok and alloc_ok and wins >= 0.8 * n_instances and rho < -0.9
    _report(8, "finite-shot statistics",
            ok,
            f"variance law {'ok' if var_ok else 'BAD'}; allocation "
            f"{'ok' if alloc_ok else 'BAD'}; IS wins {wins}/{n_instances}; "
            f"Spearman rho {rho:.3f}")


def test_criterion_09_truncation_robustness():
    rng = np.random.default_rng(909)
    h = random_molecular_hamiltonian(rng, 2)
    pool = build_pool(2)
    ref = hf_state(4, 1, 1)
    clean = SubspaceBasis(reference=ref, pool=pool)
    clean.append(BasisRecipe())
    clean.append(BasisRecipe(((0, 0.7),)))
    clean.append(BasisRecipe(((2, -0.5),)))
    dup = SubspaceBasis(reference=ref, pool=pool,
                        recipes=list(clean.recipes) + [BasisRecipe(((0, 0.7),))])
    dup.regenerate()

    def median_err(basis):
        cfg = ShotConfig(tau=1e6, mode="gaussian", seed=5)
        return mc_experiment(basis, h, cfg, runs=60).median_error

    base = median_err(clean)
    dup_err = median_err(dup)
    robust_ok = np.isfinite(dup_err) and dup_err <= 10 * base

    # noiseless: eigenvalue truncation at 1e-13 vs classical orthogonalization
    agree = 0.0
    for h2, basis in [( h, dup )]:
        h_mat, s_mat = build_matrices(basis, h2)
        eps_trunc = solve_gevp(h_mat, s_mat, 1e-13).eigenvalues[0]
        ortho = orthogonalize_basis(basis)
        h_o, s_o = build_matrices(ortho, h2)
        eps_full = solve_gevp(h_o, s_o, 0.0).eigenvalues[0]
        agree = max(agree, abs(eps_trunc - eps_full))
    _report(9, "overlap truncation robustness",
            robust_ok and agree < 1e-9,
            f"noisy duplicate median {dup_err:.2e} vs baseline {base:.2e}; "
            f"noiseless truncation-vs-orthogonalization gap {agree:.2e}")


def test_criterion_10_reference_expectation_filter():
    rng = np.random.default_rng(1010)
    failures = 0
    total = 0
    for _ in range(100):
        truth = rng.choice([-1.0, 0.0, 1.0], size=8192)
        noisy = truth + rng.normal(0.0, 0.05, size=8192)
        filtered = np.sign(noisy) * (np.abs(noisy) > 0.2)
        failures += int(np.sum(filtered != truth))
        total += truth.size
    # spot check the scalar entry point agrees with the vectorized sweep
    assert hf_filter(0.35) == 1 and hf_filter(-0.5) == -1 and hf_filter(0.1) == 0
    rate = failures / total
    _report(10, "reference-expectation filter",
            rate <= 1e-3,
            f"{failures} flips in {total} entries (rate {rate:.2e})")


def test_criterion_11_intermittent_truncated_optimization(data_dir):
    systems = [("toy", toy_system(1.0, 2.0))]
    stretched = data_dir / "h3_chain_stretched.fcidump"
    if stretched.exists():
        systems.append(("h3_stretched", _load_system(stretched)))
    ok = True
    details = []
    for name, (h, pool, ref) in systems:
        plain = run_algorithm(h, pool, ref, AdaptConfig(t_usr=10))
        mn = run_algorithm(
            h, pool, ref,
            AdaptConfig(algorithm=ADAPT_GCIM_MN, m=5, n=2, t_usr=10))
        exact = exact_spectrum(h, k=1).eigenvalues[0]
        iters_ok = mn.iterations <= int(np.ceil(1.1 * plain.iterations))
        rounds_ok = mn.total_opt_rounds <= 2 * int(np.ceil(mn.iterations / 5))
        conv_ok = mn.converged and abs(mn.final_energy - exact) < 1e-8
        ok &= iters_ok and rounds_ok and conv_ok
        details.append(f"{name}: {mn.iterations}/{plain.iterations} iters, "
                       f"{mn.total_opt_rounds} rounds")
    _report(11, "intermittent truncated optimization", ok, "; ".join(details))


def test_criterion_12_molecular_golden_run(h4_path):
    h, pool, ref = _load_system(h4_path)
    first_idx, _ = select_operator(ref, h, pool)
    first_ok = pool[first_idx].label == "dS(0,1,2,3)"
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=10))
    trace.attach_exact(exact_spectrum(h, k=1))
    err_ok = abs(trace.energy_error) < 1e-8
    _report(12, "molecular golden run",
            first_ok and err_ok,
            f"first selected {pool[first_idx].label}, "
            f"final |error| {abs(trace.energy_error):.2e}")
