import hypothesis
import pytest

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=40,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def toy():
    from gcim import toy_system

    return toy_system(1.0, 2.0)


@pytest.fixture(scope="session")
def toy_spectrum(toy):
    from gcim import exact_spectrum

    h, _, _ = toy
    return exact_spectrum(h, k=4)


@pytest.fixture(scope="session")
def h4(h4_path):
    from gcim import (assemble_hamiltonian, build_pool, hf_state,
                      jordan_wigner, parse_fcidump)

    ints = parse_fcidump(h4_path.read_text())
    h = jordan_wigner(assemble_hamiltonian(ints), 2 * ints.n_orb)
    pool = build_pool(ints.n_orb)
    ref = hf_state(2 * ints.n_orb, ints.n_alpha, ints.n_beta)
    return h, pool, ref


@pytest.fixture(scope="session")
def data_dir():
    from pathlib import Path

    return Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def h4_path(data_dir):
    path = data_dir / "h4_linear_sto3g_r1.0584.fcidump"
    if not path.exists():
        pytest.skip("H4 integral file not present")
    return path


@pytest.fixture
def rising_solver(monkeypatch):
    """From its second call on, the eigensolver gcim.adapt calls reports
    every eigenvalue 1e-5 hartree high: more than the toy's drop at
    adapt-gcim's second iteration (7e-6), so the lowest eigenvalue rises."""
    import dataclasses

    from gcim import adapt

    real, calls = adapt.solve_gevp, []

    def rising(*args):
        calls.append(1)
        result = real(*args)
        shift = 0.0 if len(calls) == 1 else 1e-5
        return dataclasses.replace(result, eigenvalues=result.eigenvalues + shift)

    monkeypatch.setattr(adapt, "solve_gevp", rising)
