"""Spans around the program's public functions, installed from outside it.

Each gcim module binds the names it imports at import time, so a wrapper
replaces the original object under every name that refers to it in every
loaded gcim module.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# module -> public functions whose calls are timed
FUNCTIONS = {
    "fcidump": ("parse_fcidump", "assemble_hamiltonian"),
    "fermion": ("jordan_wigner",),
    "pool": ("build_pool",),
    "statevector": ("apply_paulisum", "exp_apply", "exact_spectrum"),
    "subspace": ("prepare_state", "build_matrices", "solve_gevp", "reconstruct_state"),
    "adapt": ("pool_gradients", "vqe_minimize", "ansatz_energy_gradient",
              "run_algorithm"),
    "shots": ("exact_decomposition", "mc_experiment"),
    "cli": ("build_system",),
}
# module -> class -> methods (classmethods keep their binding)
METHODS = {"shots": {"MatrixEstimators": ("build", "sample")}}


class Tracer:
    """Records (name, start, end, parent index, attribute) per call.

    The attribute is set only on adapt.run_algorithm spans: the number of
    basis states in the run's final subspace.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, func, *args, **kwargs):
        index = len(self.spans)
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = func(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()
        if name == "adapt.run_algorithm" and result.basis is not None:
            span[4] = len(result.basis)
        return result

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            return self.call(name, func, *args, **kwargs)
        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in loaded gcim modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gcim" or n.startswith("gcim.")]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[f"gcim.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{mod_name}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        for mod_name, classes in METHODS.items():
            home = sys.modules[f"gcim.{mod_name}"]
            for cls_name, names in classes.items():
                cls = getattr(home, cls_name)
                for name in names:
                    raw = vars(cls)[name]
                    label = f"{mod_name}.{cls_name}.{name}"
                    if isinstance(raw, classmethod):
                        setattr(cls, name, classmethod(self.wrap(label, raw.__func__)))
                    else:
                        setattr(cls, name, self.wrap(label, raw))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, attr in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "attr": attr}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and the summed attribute.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attr": 0})
        for (name, start, end, _, attr), children in zip(self.spans, child_time):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
            row["attr"] += attr or 0
        return dict(out)
