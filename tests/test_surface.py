"""The library surface that code outside the package reaches: the functions
the benchmark traces by name, and the README's quick start."""

import importlib
import importlib.util
import re
from pathlib import Path

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
