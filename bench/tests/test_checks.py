"""Each correctness check passes a good output and rejects a bad one."""

import checks

FCI = -2.150993700396


def _gcim_run(eps, converged=True):
    records = [{"iteration": k + 1, "epsilon0": e, "vqe_energy": None}
               for k, e in enumerate(eps)]
    summary = {"algorithm": "adapt-gcim", "converged": converged,
               "final_energy": eps[-1], "exact_energy": FCI}
    return summary, records


def _vqe_gcim_run(eps, vqe):
    records = [{"iteration": k + 1, "epsilon0": e, "vqe_energy": v}
               for k, (e, v) in enumerate(zip(eps, vqe))]
    summary = {"algorithm": "adapt-vqe-gcim", "converged": True,
               "final_energy": eps[-1], "exact_energy": FCI}
    return summary, records


def test_good_gcim_run_passes():
    assert checks.check_algorithm(*_gcim_run([-2.0, -2.1, FCI]), FCI) == []


def test_energy_shifted_by_a_microhartree_is_rejected():
    assert checks.check_algorithm(*_gcim_run([-2.0, -2.1, FCI + 1e-6]), FCI)


def test_energy_below_fci_is_rejected():
    assert checks.check_algorithm(*_gcim_run([-2.0, FCI - 1e-6], converged=False), FCI)


def test_unconverged_run_is_not_held_to_fci():
    assert checks.check_algorithm(*_gcim_run([-2.0, -2.1], converged=False), FCI) == []


def test_rising_epsilon0_is_rejected():
    assert checks.check_algorithm(*_gcim_run([-2.0, -2.1, -2.09, FCI]), FCI)


def test_vqe_gcim_above_its_vqe_energy_is_rejected():
    good = _vqe_gcim_run([-2.10, FCI], [-2.09, FCI])
    assert checks.check_algorithm(*good, FCI) == []
    bad = _vqe_gcim_run([-2.08, FCI], [-2.09, FCI])
    assert checks.check_algorithm(*bad, FCI)


def test_oracle_in_the_wrong_sector_is_rejected():
    summary, _ = _gcim_run([FCI])
    assert checks.check_oracle(summary, FCI) == []
    assert checks.check_oracle(dict(summary, exact_energy=FCI - 0.07), FCI)
    assert checks.check_oracle(dict(summary, exact_energy=FCI + 1e-6), FCI)


def _sweep(errors_by_flag):
    taus = [1e10, 1e11, 1e12]
    return [{"tau": tau, "is": flag, "mean_error": err}
            for flag, errors in errors_by_flag.items()
            for tau, err in zip(taus, errors)]


def test_tau_sweep_shrinking_as_inverse_root_passes():
    rows = _sweep({0: [1.0e-6, 3.2e-7, 1.0e-7], 1: [6.6e-7, 2.1e-7, 6.6e-8]})
    assert checks.check_noise(rows, 0) == []
    assert checks.check_noise(rows, 1) == []


def test_tau_sweep_that_does_not_shrink_is_rejected():
    rows = _sweep({0: [1.0e-6, 1.1e-6, 0.9e-6], 1: [6.6e-7, 2.1e-7, 6.6e-8]})
    assert checks.check_noise(rows, 0)
    assert checks.check_noise(rows, 1) == []


def test_tau_sweep_shrinking_too_fast_is_rejected():
    rows = _sweep({0: [1.0e-6, 1.0e-7, 1.0e-8]})
    assert checks.check_noise(rows, 0)
