"""In-memory span recorder that times sraar's layers from outside the package.

Each layer is reached through the module-level names other modules call it
by (``from .transforms import dft2`` binds ``sraar.projections.dft2``), plus
the solver dispatch table.  :class:`Tracer` replaces those bindings with
wrappers that record a span per call and restores them afterwards, so no
file under ``src/`` changes.  A binding that no longer exists is skipped
and its layer simply reports zero calls.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass

# (module, attribute, span name).  The span is named after the callee; the
# caller shows as the parent span.
BINDINGS = (
    ("sraar.cli", "load_array", "fileio.load_array"),
    ("sraar.cli", "save_array", "fileio.save_array"),
    ("sraar.cli", "save_trajectory", "fileio.save_trajectory"),
    ("sraar.cli", "save_trace_csv", "fileio.save_trace_csv"),
    ("sraar.cli", "tune_sparsity_budget", "solvers.tune_sparsity_budget"),
    ("sraar.cli", "solve_er", "solvers.solve_er"),
    ("sraar.cli", "solve_sraar", "solvers.solve_sraar"),
    ("sraar.solvers", "project_fourier", "projections.project_fourier"),
    ("sraar.solvers", "project_sparse", "projections.project_sparse"),
    ("sraar.solvers", "_data_misfit", "solvers.data_misfit"),
    ("sraar.solvers", "naive_reconstruct", "motion.naive_reconstruct"),
    ("sraar.solvers", "apply_translation", "motion.apply_translation"),
    ("sraar.solvers", "dft2", "transforms.dft2"),
    ("sraar.solvers", "haar_forward", "transforms.haar_forward"),
    ("sraar.solvers", "l1_norm", "transforms.l1_norm"),
    ("sraar.projections", "invert_translation", "motion.invert_translation"),
    ("sraar.projections", "dft2", "transforms.dft2"),
    ("sraar.projections", "idft2", "transforms.idft2"),
    ("sraar.projections", "haar_forward", "transforms.haar_forward"),
    ("sraar.projections", "haar_inverse", "transforms.haar_inverse"),
    ("sraar.motion", "apply_translation", "motion.apply_translation"),
    ("sraar.motion", "idft2", "transforms.idft2"),
)

# (module, dict attribute, key, span name): tune_sparsity_budget reaches the
# solvers through this table, not through module globals.
TABLE_ENTRIES = (
    ("sraar.solvers", "_SOLVER_FUNCS", "er", "solvers.solve_er"),
    ("sraar.solvers", "_SOLVER_FUNCS", "sraar", "solvers.solve_sraar"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent) in memory while installed.

    Every wrapped name is called on the main thread (P2's worker threads run
    only unwrapped code), so one stack gives each span its parent.
    ``observers`` maps a span name to ``callback(args, kwargs, result)``,
    called after each wrapped call of that name returns.
    """

    def __init__(self, observers=None):
        self.spans = []
        self.observers = dict(observers or {})
        self._stack = []
        self._next_id = 0
        self._restore = []

    def begin(self, name):
        self._next_id += 1
        span = Span(self._next_id, name, 0.0, 0.0, self._stack[-1].id if self._stack else 0)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            observer = self.observers.get(name)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every binding in BINDINGS and TABLE_ENTRIES that exists."""
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self._wrap(fn, name))
                self._restore.append((module.__dict__, attr, fn))
        for module_name, attr, key, name in TABLE_ENTRIES:
            table = getattr(importlib.import_module(module_name), attr, None)
            if isinstance(table, dict) and callable(table.get(key)):
                fn = table[key]
                table[key] = self._wrap(fn, name)
                self._restore.append((table, key, fn))

    def uninstall(self):
        while self._restore:
            container, key, fn = self._restore.pop()
            container[key] = fn

    def write(self, path):
        """Write the recorded spans as one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_seconds(spans):
    """Map span id -> duration minus the durations of its child spans."""
    out = {span.id: span.seconds for span in spans}
    for span in spans:
        if span.parent in out:
            out[span.parent] -= span.seconds
    return out
