import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gcim.adapt import AdaptConfig, run_algorithm
from gcim.cli import (
    CHEMICAL_ACCURACY,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNCONVERGED,
    ConfigError,
    _load_schema,
    _noise_basis,
    build_system,
    load_config,
    main,
)
from gcim.pauli import parse_pauli_json, pauli_sum_to_json
from gcim.shots import ShotConfig
from gcim.statevector import exact_spectrum
from gcim.subspace import build_matrices

from helpers import jw_to_matrix

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _write_config(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def _toy_doc(tmp_path, **overrides):
    doc = {
        "hamiltonian": {"toy": {"t": 1.0, "u": 2.0}},
        "algorithms": ["adapt-gcim"],
        "adapt": {"t_usr": 3},
        "out_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    doc.update(overrides)
    return doc


def test_run_toy_converged(tmp_path):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    for name in ("trace.jsonl", "summary.json", "convergence.csv", "pool.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, _load_schema("summary.schema.json"))
    assert summary["converged"] and abs(summary["energy_error"]) < 1e-10
    assert summary["overlap_deficit"] < 1e-6

    record_schema = _load_schema("trace_record.schema.json")
    lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(lines) == summary["iterations"]
    for line in lines:
        jsonschema.validate(json.loads(line), record_schema)

    rows = list(csv.reader((out / "convergence.csv").read_text().splitlines()))
    assert rows[0] == ["iteration", "energy", "abs_error"]
    assert len(rows) == summary["iterations"] + 1


def test_run_deterministic_traces(tmp_path):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    main(["run", "--config", str(cfg_path)])
    first = (tmp_path / "out" / "trace.jsonl").read_bytes()
    main(["run", "--config", str(cfg_path)])
    second = (tmp_path / "out" / "trace.jsonl").read_bytes()
    assert first == second


def test_run_missing_config_reports_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == EXIT_ERROR
    assert str(missing) in capsys.readouterr().err


def test_run_missing_fcidump_reports_path(tmp_path, capsys):
    doc = _toy_doc(tmp_path, hamiltonian={"fcidump": str(tmp_path / "absent.fcidump")})
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "absent.fcidump" in capsys.readouterr().err


def test_run_unconverged_exit_code(tmp_path):
    doc = _toy_doc(tmp_path, algorithms=["adapt-vqe"],
                   adapt={"t_usr": 3, "max_iterations": 1})
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_UNCONVERGED


def test_invalid_config_schema(tmp_path):
    doc = _toy_doc(tmp_path, algorithms=["gradient-descent"])
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
    doc2 = _toy_doc(tmp_path)
    doc2["hamiltonian"] = {}
    assert main(["run", "--config", str(_write_config(tmp_path, doc2))]) == EXIT_ERROR


def test_bad_algorithm_config_rejected_before_any_run(tmp_path, capsys):
    # n = 0 is valid for adapt-gcim but not for adapt-gcim-mn; the config
    # fails as a whole before the first algorithm writes anything
    doc = _toy_doc(tmp_path, algorithms=["adapt-gcim", "adapt-gcim-mn"],
                   adapt={"t_usr": 3, "n": 0})
    cfg_path = _write_config(tmp_path, doc)
    assert main(["compare", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "n >= 1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key, value", [("jitter", 1e-12), ("vqe_gtol", 1e-6),
                                        ("vqe_round_budget", 50)])
def test_removed_adapt_keys_rejected(tmp_path, capsys, key, value):
    doc = _toy_doc(tmp_path, adapt={"t_usr": 3, key: value})
    assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == EXIT_ERROR
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("tau", 1e6), ("importance_sampling", True)])
def test_removed_shot_keys_rejected(tmp_path, capsys, key, value):
    # gcim noise sets both per cell, so a config value was never read
    doc = _toy_doc(tmp_path, shots={key: value}, tau_grid=[1e10], noise_runs=2)
    assert main(["noise", "--config", str(_write_config(tmp_path, doc))]) == EXIT_ERROR
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "noise.csv").exists()


def test_non_positive_s_threshold_rejected(tmp_path, capsys):
    doc = _toy_doc(tmp_path, adapt={"t_usr": 3, "s_threshold": -1.0})
    cfg_path = _write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="s_threshold"):
        load_config(cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "s_threshold" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    with pytest.raises(ValueError, match="s_threshold"):
        AdaptConfig(s_threshold=0.0)


def test_seed_and_out_overrides(tmp_path):
    doc = _toy_doc(tmp_path)
    cfg_path = _write_config(tmp_path, doc)
    alt = tmp_path / "alt"
    assert main(["run", "--config", str(cfg_path), "--seed", "11",
                 "--out", str(alt)]) == EXIT_OK
    summary = json.loads((alt / "summary.json").read_text())
    assert summary["seed"] == 11


@pytest.mark.parametrize("verb", ["run", "noise"])
@pytest.mark.parametrize("origin", ["flag", "config"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, verb, origin):
    # noise used to run the whole adapt-gcim loop before numpy's SeedSequence
    # refused the seed, and run recorded it
    doc = _toy_doc(tmp_path, seed=-1 if origin == "config" else 7)
    cfg_path = _write_config(tmp_path, doc)
    argv = [verb, "--config", str(cfg_path)] + (["--seed", "-1"] if origin == "flag" else [])
    with pytest.raises(ConfigError, match="seed"):
        load_config(cfg_path, seed=-1 if origin == "flag" else None)
    _assert_input_error(tmp_path, capsys, argv, str(cfg_path), "seed")


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_repeated_algorithm_is_a_config_error(tmp_path, capsys, verb):
    # it used to run twice, and compare wrote two identical columns
    doc = _toy_doc(tmp_path, algorithms=["adapt-gcim", "adapt-gcim"])
    cfg_path = _write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="algorithms"):
        load_config(cfg_path)
    _assert_input_error(tmp_path, capsys, [verb, "--config", str(cfg_path)],
                        "algorithms", "non-unique")


def test_compare_needs_two_algorithms(tmp_path):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    assert main(["compare", "--config", str(cfg_path)]) == EXIT_ERROR


def test_compare_toy_all_variants(tmp_path):
    doc = _toy_doc(tmp_path, algorithms=[
        "adapt-gcim", "adapt-vqe", "adapt-vqe-gcim", "adapt-vqe-gcim-1"])
    cfg_path = _write_config(tmp_path, doc)
    assert main(["compare", "--config", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    rows = list(csv.reader((out / "compare.csv").read_text().splitlines()))
    header = rows[0]
    assert header[0] == "iteration" and len(header) == 5
    assert rows[-1][0] == "chemical_accuracy"
    assert float(rows[-1][1]) == CHEMICAL_ACCURACY
    # every variant reaches well below chemical accuracy on the toy model
    for col in range(1, 5):
        final = [float(r[col]) for r in rows[1:-1] if r[col] != ""]
        assert final[-1] < 1e-8
    for alg in doc["algorithms"]:
        assert (out / alg / "summary.json").exists()


def test_compare_runs_the_vqe_loop_once(tmp_path, monkeypatch, h4_path):
    # the three VQE-family variants read one ADAPT-VQE loop, so a compare
    # re-optimizes as often as adapt-vqe alone does
    from gcim import adapt

    calls = []
    real = adapt.vqe_minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(adapt, "vqe_minimize", counting)
    counts = {}
    for verb, algorithms in (("run", ["adapt-vqe"]),
                             ("compare", ["adapt-gcim", "adapt-vqe", "adapt-vqe-gcim",
                                          "adapt-vqe-gcim-1"])):
        calls.clear()
        out = tmp_path / verb
        doc = {"hamiltonian": {"fcidump": str(h4_path)}, "algorithms": algorithms,
               "out_dir": str(out)}
        assert main([verb, "--config", str(_write_config(tmp_path, doc))]) == EXIT_OK
        counts[verb] = len(calls)
    iterations = len((tmp_path / "run" / "trace.jsonl").read_text().splitlines())
    assert counts["compare"] == counts["run"] == iterations > 1


@pytest.mark.parametrize("variant", ["adapt-vqe-gcim", "adapt-vqe-gcim-1"])
def test_variational_bound_failure_names_the_variant(tmp_path, capsys, monkeypatch,
                                                     variant):
    # an eigensolver that reports every eigenvalue 1 hartree too high breaks
    # the bound; the algorithms before the failing one keep their artifacts
    from gcim import adapt

    solved = []
    real = adapt.solve_gevp

    def shifted(*args):
        result = real(*args)
        solved.append(dataclasses.replace(result, eigenvalues=result.eigenvalues + 1.0))
        return solved[-1]

    monkeypatch.setattr(adapt, "solve_gevp", shifted)
    doc = _toy_doc(tmp_path, algorithms=["adapt-gcim", "adapt-vqe", variant])
    assert main(["compare", "--config", str(_write_config(tmp_path, doc))]) == EXIT_ERROR
    out = tmp_path / "out"
    for alg in ("adapt-gcim", "adapt-vqe"):
        for name in ("trace.jsonl", "summary.json", "convergence.csv"):
            assert (out / alg / name).exists()
    assert not (out / variant / "summary.json").exists()
    assert not (out / "compare.csv").exists()
    vqe = json.loads((out / "adapt-vqe" / "summary.json").read_text())
    first = json.loads((out / "adapt-vqe" / "trace.jsonl").read_text().splitlines()[0])
    if variant == "adapt-vqe-gcim":
        want = (f"adapt-vqe-gcim: subspace eigenvalue {solved[-1].ground_energy} exceeds "
                f"the variational bound {first['vqe_energy']} at iteration 1")
    else:
        want = (f"adapt-vqe-gcim-1: one-shot eigenvalue {solved[-1].ground_energy} "
                f"exceeds the variational bound {vqe['final_vqe_energy']} at iteration "
                f"{vqe['iterations']}")
    assert capsys.readouterr().err == f"gcim: error: {want}\n"


def test_rising_eigenvalue_is_an_error(tmp_path, capsys, rising_solver):
    status = main(["run", "--config", str(CONFIG_DIR / "toy_gcim.json"),
                   "--out", str(tmp_path)])
    assert status == EXIT_ERROR
    assert capsys.readouterr().err.startswith("gcim: error: lowest eigenvalue rose by")


def test_noise_sweep_csv(tmp_path):
    doc = _toy_doc(tmp_path, tau_grid=[1e10], noise_runs=10,
                   shots={"mode": "gaussian"})
    cfg_path = _write_config(tmp_path, doc)
    assert main(["noise", "--config", str(cfg_path)]) == EXIT_OK
    rows = list(csv.reader((tmp_path / "out" / "noise.csv").read_text().splitlines()))
    assert rows[0] == ["tau", "importance_sampling", "mean_error",
                      "ci_low", "ci_high"]
    assert len(rows) == 3  # one tau, IS off and on
    assert {r[1] for r in rows[1:]} == {"0", "1"}
    first = (tmp_path / "out" / "noise.csv").read_bytes()
    main(["noise", "--config", str(cfg_path)])
    assert (tmp_path / "out" / "noise.csv").read_bytes() == first


@pytest.mark.parametrize("mode", ["gaussian", "binomial-exact"])
def test_noise_csv_matches_golden(tmp_path, mode):
    # noise.csv under the (run, term) stream contract of gcim.shots; rel=1e-9
    # leaves room for rounding in the solves, not for a changed draw
    golden = Path(__file__).parent / "data" / f"noise_toy_{mode}.csv"
    doc = _toy_doc(tmp_path, shots={"mode": mode}, tau_grid=[1e6, 1e8, 1e10],
                   noise_runs=6)
    cfg_path = _write_config(tmp_path, doc)
    assert main(["noise", "--config", str(cfg_path), "--seed", "7"]) == EXIT_OK
    got = list(csv.reader((tmp_path / "out" / "noise.csv").read_text().splitlines()))
    want = list(csv.reader(golden.read_text().splitlines()))
    assert got[0] == want[0] and len(got) == len(want) == 7
    for row, ref in zip(got[1:], want[1:]):
        assert [float(v) for v in row] == pytest.approx([float(v) for v in ref],
                                                        rel=1e-9, abs=0)


@pytest.mark.parametrize("mode", ["binomial-exact", "gaussian"])
def test_noise_warns_when_runs_keep_a_direction_the_exact_solve_drops(tmp_path, capsys, mode):
    # configs/toy_noise.json at seed 7: the exact solve keeps 3 of 4
    # directions; at tau 1e8 some noisy solves keep 4 and miss by O(10) Ha,
    # which mean_error averages in, so each such cell is named on stderr
    doc = json.loads((CONFIG_DIR / "toy_noise.json").read_text())
    doc["shots"]["mode"] = mode
    cfg_path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    argv = ["noise", "--config", str(cfg_path), "--seed", "7", "--out", str(out)]
    assert main(argv) == EXIT_OK
    warning = re.compile(r"gcim: warning: tau 1e\+08, importance sampling ([01]): (\d+) of 100 "
                         r"runs keep more than the exact solve's 3 directions")
    found = [warning.fullmatch(line) for line in capsys.readouterr().err.splitlines()]
    assert [m and m[1] for m in found] == ["0", "1"]
    assert all(0 < int(m[2]) < 100 for m in found)
    rows = list(csv.reader((out / "noise.csv").read_text().splitlines()))
    assert rows[0] == ["tau", "importance_sampling", "mean_error", "ci_low", "ci_high"]
    assert len(rows) == 11


def test_noise_rejects_shot_counts_past_int64(tmp_path, capsys):
    # 1e17 * s_multiplier 100 overlap shots: refused before the adapt loop runs
    doc = _toy_doc(tmp_path, tau_grid=[1e10, 1e17], noise_runs=2)
    cfg_path = _write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="int64"):
        load_config(cfg_path)
    assert main(["noise", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "int64" in capsys.readouterr().err
    assert not (tmp_path / "out" / "noise.csv").exists()


def test_noise_rejects_run_counts_past_int64(tmp_path, monkeypatch, capsys):
    # 10^30 runs pass the schema and the double check; the sweep refuses
    # them before it builds its estimators or sizes a sample array
    from gcim import shots

    def refuse(*args):
        raise AssertionError("estimators built")

    monkeypatch.setattr(shots.MatrixEstimators, "build", refuse)
    doc = _toy_doc(tmp_path, tau_grid=[1e10], noise_runs=10 ** 30)
    assert main(["noise", "--config", str(_write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.splitlines() == [f"gcim: error: runs = {10 ** 30}: the (cells, runs, entries) "
                                "sample arrays exceed the int64 range"]
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "noise.csv").exists()


def test_noise_rejects_empty_tau_grid(tmp_path, capsys):
    # an empty grid used to run the whole adapt-gcim loop and estimator build
    # before the sampler refused zero cells
    doc = _toy_doc(tmp_path, tau_grid=[], noise_runs=2)
    cfg_path = _write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="tau_grid"):
        load_config(cfg_path)
    assert main(["noise", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "tau_grid" in capsys.readouterr().err
    assert not (tmp_path / "out" / "noise.csv").exists()


@pytest.mark.parametrize("source", ["toy", "h4"])
def test_noise_never_embeds_a_state_into_the_full_register(tmp_path, monkeypatch, h4_path,
                                                           source):
    # the shot model reads the run's sector states and projected pair; the
    # 2^n embedding is left to oracles and tests
    from gcim import statevector

    hamiltonian = {"fcidump": str(h4_path)} if source == "h4" else {"toy": {}}
    doc = _toy_doc(tmp_path, hamiltonian=hamiltonian, shots={"mode": "binomial-exact"},
                   tau_grid=[1e10, 1e12], noise_runs=4)
    cfg_path = _write_config(tmp_path, doc)
    assert main(["noise", "--config", str(cfg_path), "--out", str(tmp_path / "free")]) == EXIT_OK

    def refuse(*args):
        raise AssertionError("embedded into the full register")

    monkeypatch.setattr(statevector.StateVector, "amplitudes", property(refuse))
    monkeypatch.setattr(statevector, "full_space", refuse)
    assert main(["noise", "--config", str(cfg_path)]) == EXIT_OK
    written = (tmp_path / "out" / "noise.csv").read_bytes()
    assert written == (tmp_path / "free" / "noise.csv").read_bytes()
    assert len(written.decode().splitlines()) == 5


def test_noise_rejects_other_algorithms(tmp_path, capsys):
    doc = _toy_doc(tmp_path, algorithms=["adapt-vqe"], tau_grid=[1e10], noise_runs=2)
    assert main(["noise", "--config", str(_write_config(tmp_path, doc))]) != EXIT_OK
    assert "adapt-vqe" in capsys.readouterr().err
    assert not (tmp_path / "out" / "noise.csv").exists()


def test_resources_replay(tmp_path):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    main(["run", "--config", str(cfg_path)])
    assert main(["resources", "--config", str(cfg_path)]) == EXIT_OK
    rows = list(csv.reader(
        (tmp_path / "out" / "resources.csv").read_text().splitlines()))
    assert rows[0] == ["iteration", "error_level", "new_generator_cnots",
                       "product_cnots", "scheme"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(rows) == 1 + 4 * summary["iterations"]
    # product cost is cumulative: it never shrinks within one scheme
    std = [int(r[3]) for r in rows[1:] if r[4] == "standard-trotter"]
    assert all(b >= a for a, b in zip(std, std[1:]))


def test_resources_missing_trace(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    assert main(["resources", "--config", str(cfg_path)]) == EXIT_ERROR
    assert "trace" in capsys.readouterr().err


def test_resources_empty_trace_header_only(tmp_path):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    (tmp_path / "out").mkdir(parents=True, exist_ok=True)
    assert main(["resources", "--config", str(cfg_path),
                 "--trace", str(empty)]) == EXIT_OK
    rows = (tmp_path / "out" / "resources.csv").read_text().splitlines()
    assert len(rows) == 1


def test_resources_rejects_a_trace_of_another_pool(tmp_path, capsys, h4_path):
    # H4's trace indexes its 36-operator pool; replayed on the toy's 4 it
    # used to end in an IndexError traceback
    h4_doc = _toy_doc(tmp_path, hamiltonian={"fcidump": str(h4_path)},
                      out_dir=str(tmp_path / "h4"))
    main(["run", "--config", str(_write_config(tmp_path, h4_doc))])
    trace = tmp_path / "h4" / "trace.jsonl"
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    _assert_input_error(tmp_path, capsys,
                        ["resources", "--config", str(cfg_path), "--trace", str(trace)],
                        f"{trace}:1: pool index", "4-operator pool")


@pytest.mark.parametrize("key, value, where", [
    ("selected_index", -1, "selected_index"),
    ("product_recipe", [[-1, 0.785]], "product_recipe[0][0]"),
])
def test_resources_rejects_a_negative_pool_index(tmp_path, capsys, data_dir, key,
                                                 value, where):
    # a negative index used to read pool[-1] and exit 0
    golden = data_dir / "golden" / "toy_compare" / "adapt-gcim" / "trace.jsonl"
    record = json.loads(golden.read_text().splitlines()[0])
    record[key] = value
    trace = tmp_path / "trace.jsonl"
    trace.write_text(golden.read_text().splitlines()[1] + "\n" + json.dumps(record) + "\n")
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    _assert_input_error(tmp_path, capsys,
                        ["resources", "--config", str(cfg_path), "--trace", str(trace)],
                        f"{trace}:2: {where}: -1 is less than the minimum of 0")


def test_resources_names_a_line_that_is_not_json(tmp_path, capsys, data_dir):
    golden = data_dir / "golden" / "toy_compare" / "adapt-gcim" / "trace.jsonl"
    trace = tmp_path / "trace.jsonl"
    trace.write_text(golden.read_text().splitlines()[0] + "\n{not json\n")
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    _assert_input_error(tmp_path, capsys,
                        ["resources", "--config", str(cfg_path), "--trace", str(trace)],
                        f"{trace}:2: not JSON")


def test_exact_dump(tmp_path, toy):
    h, _, ref = toy
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path, exact_k=3))
    assert main(["exact", "--config", str(cfg_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "out" / "exact.json").read_text())
    spec = exact_spectrum(h, k=3, reference=ref)
    assert np.allclose(doc["eigenvalues"], spec.eigenvalues)
    assert doc["sector"] == [1, 1]


def test_exact_uses_reference_sector_like_run(tmp_path):
    # at U/t = 8 the full Fock space holds a lower one-electron state (-1.0);
    # exact.json reports the reference's sector, the same oracle run uses
    doc = _toy_doc(tmp_path, hamiltonian={"toy": {"t": 1.0, "u": 8.0}})
    cfg_path = _write_config(tmp_path, doc)
    assert main(["exact", "--config", str(cfg_path)]) == EXIT_OK
    exact = json.loads((tmp_path / "out" / "exact.json").read_text())
    assert exact["sector"] == [1, 1]
    assert abs(exact["ground_energy"] - (4.0 - 2.0 * np.sqrt(5.0))) < 1e-12
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(exact["ground_energy"] - summary["exact_energy"]) < 1e-12


def test_pauli_json_source(tmp_path, toy):
    h, _, _ = toy
    ham_path = tmp_path / "ham.json"
    ham_path.write_text(pauli_sum_to_json(h))
    doc = _toy_doc(tmp_path, hamiltonian={"pauli_json": str(ham_path)},
                   n_alpha=1, n_beta=1)
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["energy_error"]) < 1e-10

    # without reference occupations the source is rejected
    doc2 = _toy_doc(tmp_path, hamiltonian={"pauli_json": str(ham_path)})
    assert main(["run", "--config", str(_write_config(tmp_path, doc2))]) \
        == EXIT_ERROR


def test_dump_matrices_artifact(tmp_path):
    doc = _toy_doc(tmp_path, dump_matrices=True)
    cfg_path = _write_config(tmp_path, doc)
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    lines = (tmp_path / "out" / "matrices.jsonl").read_text().splitlines()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert len(lines) == summary["iterations"]
    entry = json.loads(lines[0])
    assert {"iteration", "h_real", "s_real", "eigenvalues", "kept_dim",
            "threshold"} <= set(entry)


def test_build_system_fcidump(h4_path, tmp_path):
    doc = _toy_doc(tmp_path, hamiltonian={"fcidump": str(h4_path)})
    cfg = load_config(_write_config(tmp_path, doc))
    system = build_system(cfg)
    assert system.n_qubits == 8 and len(system.pool) == 66


def test_dump_matrices_leading_blocks(tmp_path, toy):
    # every iteration's dumped pair is the leading block of the final pair
    h, pool, ref = toy
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path, dump_matrices=True))
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    h_fin, s_fin = build_matrices(trace.basis, h)
    lines = (tmp_path / "out" / "matrices.jsonl").read_text().splitlines()
    assert len(lines) == trace.iterations
    for line, rec in zip(lines, trace.records):
        entry = json.loads(line)
        d = rec.subspace_dim
        assert entry["iteration"] == rec.iteration
        h_k = np.array(entry["h_real"]) + 1j * np.array(entry["h_imag"])
        s_k = np.array(entry["s_real"]) + 1j * np.array(entry["s_imag"])
        assert np.array_equal(h_k, h_fin[:d, :d]) and np.array_equal(s_k, s_fin[:d, :d])
        assert entry["eigenvalues"] == rec.eigenvalues
        assert entry["kept_dim"] == rec.kept_dim
    # eigenvalues stay out of the trace
    first = json.loads((tmp_path / "out" / "trace.jsonl").read_text().splitlines()[0])
    assert "eigenvalues" not in first


def test_noise_basis_holds_trace_states(toy):
    h, pool, ref = toy
    trace = run_algorithm(h, pool, ref, AdaptConfig(t_usr=3))
    basis = _noise_basis(trace)
    d = len(basis)
    assert 0 < d <= len(trace.basis)
    assert len(basis.states) == d
    assert all(a is b for a, b in zip(basis.states, trace.basis.states))
    assert basis.recipes == trace.basis.recipes[:d]
    # it holds the leading block of the run's pair, so nothing is applied again
    h_fin, s_fin = build_matrices(trace.basis, h)
    assert all(a is b for a, b in zip(basis.pair.h_kets, trace.basis.pair.h_kets[:d]))
    h_mat, s_mat = build_matrices(basis, h)
    assert h_mat is basis.pair.h_mat and s_mat is basis.pair.s_mat
    assert np.array_equal(h_mat, h_fin[:d, :d]) and np.array_equal(s_mat, s_fin[:d, :d])


def test_shipped_schemas_are_valid():
    # validation builds its validator without checking the schema itself
    for name in ("config.schema.json", "trace_record.schema.json", "summary.schema.json"):
        jsonschema.Draft202012Validator.check_schema(_load_schema(name))


def test_shipped_configs_load():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert paths
    for path in paths:
        load_config(path)


def test_run_oracle_uses_reference_sector(tmp_path):
    # at U/t = 8 the full Fock space holds a lower one-electron state; the
    # run's own error must be measured against the two-electron ground
    doc = _toy_doc(tmp_path, hamiltonian={"toy": {"t": 1.0, "u": 8.0}})
    assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    jsonschema.validate(summary, _load_schema("summary.schema.json"))
    assert summary["oracle_sector"] == [1, 1]
    assert abs(summary["exact_energy"] - (4.0 - 2.0 * np.sqrt(5.0))) < 1e-12
    assert abs(summary["energy_error"]) < 1e-10 and summary["overlap_deficit"] < 1e-10


GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def _parse_cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_same(got, want, where: str) -> None:
    # ints and strings exactly, floats to rel 1e-9 or abs 1e-13, whichever is
    # looser: the held floats are energies, errors and gradients formed as
    # differences of O(1) energies, defined only to absolute rounding, so a
    # sub-gtol BFGS gradient (~1e-10) moves by a few 1e-15 with the BLAS
    # kernel or the exponential's summation order
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-9, abs=1e-13), where
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def _parse_artifact(suffix: str, text: str):
    if suffix == ".csv":
        return [[_parse_cell(c) for c in row] for row in csv.reader(text.splitlines())]
    if suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    doc = json.loads(text)
    # exact.json: the ground vector's global sign and the order of
    # equal-weight amplitudes are the eigensolver's choice, not the format's
    amps = sorted(doc["ground_state_top_amplitudes"], key=lambda a: a["index"])
    sign = 1.0 if amps[0]["re"] >= 0 else -1.0
    doc["ground_state_top_amplitudes"] = [
        {**a, "re": sign * a["re"], "im": sign * a["im"]} for a in amps]
    return doc


def _assert_matches_golden(out: Path, golden: Path) -> None:
    for want_path in sorted(golden.rglob("*.*")):
        name = str(want_path.relative_to(golden))
        _assert_same(_parse_artifact(want_path.suffix, (out / name).read_text()),
                     _parse_artifact(want_path.suffix, want_path.read_text()), name)


def test_compare_artifacts_match_golden(tmp_path):
    # trace.jsonl, convergence.csv and compare.csv as the shipped toy
    # comparison wrote them before the artifact writers were consolidated
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(CONFIG_DIR / "toy_compare.json"),
                 "--out", str(out)]) == EXIT_OK
    _assert_matches_golden(out, GOLDEN_DIR / "toy_compare")


def test_resources_and_exact_match_golden(tmp_path):
    cfg = str(CONFIG_DIR / "toy_gcim.json")
    out = tmp_path / "gcim"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["resources", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _assert_matches_golden(out, GOLDEN_DIR / "toy_gcim")


def test_sector_breaking_h_is_judged_on_its_sector_block(tmp_path, data_dir):
    # toy U/t = 8 plus 0.1 XIII + 0.3 IZXI: both terms change n_alpha, so the
    # (1, 1) block is the toy's own, and the whole adapt-gcim subspace stays in it
    ham = data_dir / "toy_u8_sector_breaking.json"
    doc = _toy_doc(tmp_path, hamiltonian={"pauli_json": str(ham)}, n_alpha=1, n_beta=1)
    cfg_path = _write_config(tmp_path, doc)
    keep = [i for i in range(16)
            if (i & 0b0101).bit_count() == 1 and (i & 0b1010).bit_count() == 1]
    dense = jw_to_matrix(parse_pauli_json(ham.read_text()))
    block_ground = np.linalg.eigvalsh(dense[np.ix_(keep, keep)])[0]
    assert block_ground == pytest.approx(-0.4721359550, abs=1e-10)
    assert np.linalg.eigvalsh(dense)[0] < block_ground - 0.5  # the full space is lower
    assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["oracle_sector"] == [1, 1]
    assert abs(summary["exact_energy"] - block_ground) < 1e-12
    assert abs(summary["energy_error"]) < 1e-10
    assert main(["exact", "--config", str(cfg_path)]) == EXIT_OK
    exact = json.loads((tmp_path / "out" / "exact.json").read_text())
    assert exact["sector"] == [1, 1]
    assert abs(exact["ground_energy"] - block_ground) < 1e-12


@pytest.mark.parametrize("record", [{"pauli": 5}, {"pauli": "XXXX", "coeff_re": None}])
def test_malformed_pauli_json_record_is_a_cli_error(tmp_path, capsys, record):
    ham = tmp_path / "ham.json"
    ham.write_text(json.dumps([record]))
    doc = _toy_doc(tmp_path, hamiltonian={"pauli_json": str(ham)}, n_alpha=1, n_beta=1)
    assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("gcim: error:") and "term record 0" in err


def test_pauli_json_coefficient_overflow_is_a_cli_error(tmp_path, capsys):
    ham = tmp_path / "ham.json"
    ham.write_text('[{"pauli": "XXXX", "coeff_re": 1' + "0" * 400 + "}]")
    doc = _toy_doc(tmp_path, hamiltonian={"pauli_json": str(ham)}, n_alpha=1, n_beta=1)
    assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("gcim: error:") and "term record 0" in err


def _assert_input_error(tmp_path, capsys, argv, *names):
    """The verb exits 1 with an error that names the fault, and writes no artifact."""
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("gcim: error:") and all(name in err for name in names), err
    assert not any((tmp_path / "out").rglob("*"))


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_fcidump_value_is_a_cli_error(tmp_path, capsys, h4_path, value):
    # a NaN row used to pass the symmetry check and be dropped by the
    # assembly, so method and oracle agreed on a different Hamiltonian
    lines = h4_path.read_text().splitlines()
    assert lines[2].endswith(" 1 1 1 1")
    lines[2] = f"{value} 1 1 1 1"
    fcidump = tmp_path / "h4.fcidump"
    fcidump.write_text("\n".join(lines) + "\n")
    doc = _toy_doc(tmp_path, hamiltonian={"fcidump": str(fcidump)})
    _assert_input_error(tmp_path, capsys,
                        ["run", "--config", str(_write_config(tmp_path, doc))], "line 3")


@pytest.mark.parametrize("records, named", [
    ('{"pauli": "ZZII", "coeff_re": NaN}', "term record 1"),
    ('{"pauli": "ZZII", "coeff_im": -Infinity}', "term record 1"),
    ('{"pauli": "ZZII", "coeff_re": 1e308}, {"pauli": "ZZII", "coeff_re": 1e308}',
     "term record 2"),
], ids=["nan", "minus-infinity", "merged-overflow"])
def test_non_finite_pauli_json_coefficient_is_a_cli_error(tmp_path, capsys, records,
                                                          named):
    ham = tmp_path / "ham.json"
    ham.write_text('[{"pauli": "XXXX", "coeff_re": 1.0}, ' + records + "]")
    doc = _toy_doc(tmp_path, hamiltonian={"pauli_json": str(ham)}, n_alpha=1, n_beta=1)
    _assert_input_error(tmp_path, capsys,
                        ["run", "--config", str(_write_config(tmp_path, doc))], named)


@pytest.mark.parametrize("verb, old, new", [
    ("run", '"u": 2.0', '"u": Infinity'),
    ("run", '"u": 2.0', '"u": 1e999'),
    ("noise", '"seed": 7', '"seed": 7, "tau_grid": [NaN]'),
], ids=["infinity", "overflow", "nan"])
def test_non_finite_config_number_is_a_cli_error(tmp_path, capsys, verb, old, new):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    cfg_path.write_text(cfg_path.read_text().replace(old, new))
    _assert_input_error(tmp_path, capsys, [verb, "--config", str(cfg_path)],
                        str(cfg_path), "not finite")


@pytest.mark.parametrize("verb, old, new, key", [
    ("run", '"u": 2.0', '"u": 1' + "0" * 400, "hamiltonian.toy.u"),
    ("noise", '"seed": 7', '"seed": 7, "tau_grid": [1e10, 1' + "0" * 400 + "]",
     "tau_grid[1]"),
], ids=["toy-u", "tau-grid"])
def test_config_integer_too_large_for_a_double_is_a_cli_error(tmp_path, capsys, verb,
                                                              old, new, key):
    # float() of such an integer raised OverflowError, which main did not catch
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    cfg_path.write_text(cfg_path.read_text().replace(old, new))
    _assert_input_error(tmp_path, capsys, [verb, "--config", str(cfg_path)],
                        str(cfg_path), key, "too large for a double")


def test_schema_error_names_a_list_entry_as_the_overflow_check_does(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _toy_doc(tmp_path))
    cfg_path.write_text(cfg_path.read_text().replace(
        '"seed": 7', '"seed": 7, "tau_grid": [1e10, 0.5]'))
    _assert_input_error(tmp_path, capsys, ["noise", "--config", str(cfg_path)],
                        str(cfg_path), "tau_grid[1]: 0.5 is less than the minimum of 1")


@pytest.mark.parametrize("cls, name, value", [
    (AdaptConfig, "theta_init", math.nan), (AdaptConfig, "theta_init", -math.inf),
    (AdaptConfig, "gcim_tol", math.nan), (AdaptConfig, "gcim_tol", math.inf),
    (AdaptConfig, "vqe_grad_tol", math.inf), (AdaptConfig, "s_threshold", math.nan),
    (ShotConfig, "tau", math.nan), (ShotConfig, "s_multiplier", math.nan),
])
def test_library_configs_reject_non_finite_fields(cls, name, value):
    # the CLI refuses these numbers in JSON; a library caller meets the same
    # rule instead of a converged NaN run or a misleading EmptySubspaceError
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})


def test_toy_occupation_overrides(tmp_path):
    doc = _toy_doc(tmp_path, n_alpha=2, n_beta=0)
    assert main(["run", "--config", str(_write_config(tmp_path, doc))]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["oracle_sector"] == [2, 0]


@pytest.mark.parametrize("source", ["toy_gcim", "sector_breaking"])
def test_run_and_exact_report_the_same_ground_energy(tmp_path, data_dir, source):
    if source == "toy_gcim":
        cfg_path = CONFIG_DIR / "toy_gcim.json"
    else:
        ham = data_dir / "toy_u8_sector_breaking.json"
        cfg_path = _write_config(tmp_path, _toy_doc(
            tmp_path, hamiltonian={"pauli_json": str(ham)}, n_alpha=1, n_beta=1))
    out = str(tmp_path / "both")
    assert main(["run", "--config", str(cfg_path), "--out", out]) == EXIT_OK
    assert main(["exact", "--config", str(cfg_path), "--out", out]) == EXIT_OK
    summary = json.loads((tmp_path / "both" / "summary.json").read_text())
    exact = json.loads((tmp_path / "both" / "exact.json").read_text())
    assert summary["exact_energy"] == exact["ground_energy"]


def test_schema_defaults_match_code(tmp_path):
    # each default is written in the schema and in the code; they must agree
    props = _load_schema("config.schema.json")["properties"]
    adapt, shots = AdaptConfig(), ShotConfig()
    assert set(props["adapt"]["properties"]) == \
        {f.name for f in dataclasses.fields(adapt)} - {"algorithm"}
    for key, spec in props["adapt"]["properties"].items():
        assert getattr(adapt, key) == spec["default"], key
    # gcim noise sets tau and importance sampling per cell of its sweep
    assert set(props["shots"]["properties"]) == \
        {f.name for f in dataclasses.fields(shots)} - {"seed", "tau", "importance_sampling"}
    for key, spec in props["shots"]["properties"].items():
        assert getattr(shots, key) == spec["default"], key
    cfg = load_config(_write_config(tmp_path, {"hamiltonian": {"toy": {}}}))
    for key, spec in props.items():
        if "default" in spec:
            value = getattr(cfg, key)
            assert (str(value) if isinstance(value, Path) else value) == spec["default"], key
    toy = props["hamiltonian"]["properties"]["toy"]["properties"]
    assert build_system(cfg).source == \
        f"toy(t={toy['t']['default']},u={toy['u']['default']})"
