"""The library surface that code outside the package reaches: the functions
the benchmark traces by name, the README's quick start, and the rule that
every public name either runs under a CLI verb or is kept for such a caller."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import gcim

ROOT = Path(__file__).resolve().parents[1]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_exist():
    # the tracer looks these up by name; a deleted or renamed one would
    # otherwise show only in a traced benchmark run
    spans = _load_spans()
    for mod_name, names in spans.FUNCTIONS.items():
        module = importlib.import_module(f"gcim.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gcim.{mod_name}.{name}"
    for mod_name, classes in spans.METHODS.items():
        module = importlib.import_module(f"gcim.{mod_name}")
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name)
            for name in names:
                assert name in vars(cls), f"gcim.{mod_name}.{cls_name}.{name}"


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


# Public names that no verb below runs, each kept for a caller outside the
# verbs, with its reason; every other public function, method and property
# of the package must run under one of them.
KEPT = {
    "fcidump.dumps_fcidump": "canonical FCIDUMP writer (docs/formats.md)",
    "pauli.pauli_sum_to_json": "canonical Pauli JSON writer (docs/formats.md)",
    "shots.exact_decomposition": "bench/spans.py wraps it",
    "shots.mc_experiment": "bench/spans.py wraps it",
    "toy.toy_system": "README quick start",
    # paper results that tests/test_acceptance.py checks
    "adapt.gcim_energy_gradient": "eigenvalue gradient (criterion 05)",
    "adapt.AdaptTrace.epsilon0_series": "epsilon0 series (criterion 04)",
    "shots.hf_filter": "reference-expectation filter (criterion 10)",
    "shots.sample_entry": "per-entry estimator draw (criterion 08)",
    "shots.EntryEstimator.variance": "estimator variance (criterion 08)",
    "shots.chebyshev_shots": "Chebyshev shot budget; ROADMAP item 7 decides its fate",
    "subspace.SubspaceBasis.regenerate": "recipe regeneration (criterion 09)",
    # exact_spectrum(h) without a reference returns full-register states
    "statevector.StateVector.from_array": "full-register constructor",
    "statevector.StateVector.basis_state": "full-register constructor",
    "statevector.StateVector.amplitudes": "full-register embedding for oracles",
    "statevector.full_space": "full-register space",
}


def _public_code(package):
    """{"module.name" or "module.Class.name": code object} for every public
    function, method and property defined in the package's modules."""
    import inspect
    import pkgutil

    out = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(inspect.unwrap(obj)):  # functools.cache included
                out[f"{info.name}.{name}"] = inspect.unwrap(obj).__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        out[f"{info.name}.{name}.{attr}"] = member.__code__
    return out


def run_verbs(calls: list[list[str]]) -> tuple[list[int], list[str]]:
    """Exit codes of gcim.cli.main on each argv, and the public names that
    none of the calls ran, under sys.setprofile.  Meant for a fresh
    process: a cache filled before the calls would skip the code behind it."""
    import gcim
    from gcim.cli import main

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in calls]
    finally:
        sys.setprofile(None)
    return codes, sorted(name for name, code in _public_code(gcim).items()
                         if code not in reached)


def test_every_public_name_is_reached_or_kept(tmp_path):
    # each verb, on the smallest inputs that take every path the verbs
    # have: every public name either runs or is kept for its reason
    configs = ROOT / "configs"
    data = ROOT / "tests" / "data"
    docs = {
        "noise-binomial": {"hamiltonian": {"toy": {}}, "shots": {"mode": "binomial-exact"},
                           "tau_grid": [1e6], "noise_runs": 2},
        "noise-gaussian": {"hamiltonian": {"toy": {}}, "shots": {"mode": "gaussian"},
                           "tau_grid": [1e6], "noise_runs": 2},
        "mn": {"hamiltonian": {"fcidump": str(data / "h3_chain_moderate.fcidump")},
               "algorithms": ["adapt-gcim-mn"], "dump_matrices": True},
        "sb": {"hamiltonian": {"pauli_json": str(data / "toy_u8_sector_breaking.json")},
               "n_alpha": 1, "n_beta": 1, "adapt": {"t_usr": 5}},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    run_out = tmp_path / "run"
    calls = [
        ["run", "--config", str(configs / "toy_gcim.json"), "--out", str(run_out)],
        ["resources", "--config", str(configs / "toy_gcim.json"), "--out", str(run_out),
         "--trace", str(run_out / "trace.jsonl")],
        ["exact", "--config", str(configs / "toy_gcim.json"), "--out", str(tmp_path / "exact")],
        ["compare", "--config", str(configs / "toy_compare.json"), "--out", str(tmp_path / "cmp")],
        ["noise", "--config", str(tmp_path / "noise-binomial.json"), "--out", str(tmp_path / "nb")],
        ["noise", "--config", str(tmp_path / "noise-gaussian.json"), "--out", str(tmp_path / "ng")],
        ["run", "--config", str(tmp_path / "mn.json"), "--out", str(tmp_path / "mn")],
        ["run", "--config", str(tmp_path / "sb.json"), "--out", str(tmp_path / "sb")],
    ]
    # a fresh process, so that no cache an earlier test filled hides a call
    code = ("import json, test_surface; "
            f"print(json.dumps(test_surface.run_verbs({calls!r})))")
    src = str(Path(gcim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(ROOT / "tests")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    codes, unreached = json.loads(out.splitlines()[-1])
    assert codes == [0] * len(calls)
    assert set(KEPT) <= set(_public_code(gcim))
    assert [name for name in unreached if name not in KEPT] == []
    # a kept name that a verb runs needs no keeping
    assert sorted(set(KEPT) - set(unreached)) == []
