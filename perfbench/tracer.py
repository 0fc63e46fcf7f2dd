"""Span tracer that wraps cavmag's public functions from outside.

Each wrapped function records a span (name, start, end, parent span,
op id) in memory. A function object is patched in every ``cavmag.*``
module namespace that binds it, so calls through an imported name (e.g.
``model.solve_lyapunov``) are caught as well as calls through the
defining module. A listed name that the program no longer defines is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# Layer -> public functions the traced run wraps. ``analytic`` is a test
# oracle on no workload's path and is not a layer here.
WRAPPED = {
    "sweep": (
        "apply_parameter",
        "run_sweep",
        "summarize_point",
        "find_temperature_threshold",
        "emit_csv",
        "emit_heatmap",
    ),
    "model": (
        "build_drift",
        "build_diffusion",
        "noise_moments",
        "steady_state_cm",
        "entanglement_report",
    ),
    "linsys": ("stability", "solve_lyapunov"),
    "cvgaussian": (
        "reduce",
        "partial_transpose",
        "symplectic_eigenvalues",
        "two_mode_symplectic_eigenvalues",
        "log_negativity",
    ),
    "cli": ("main",),
}

QUALIFIED = tuple(f"{module}.{fn}" for module, fns in WRAPPED.items() for fn in fns)

NO_PARENT = -1
PACKAGE = "cavmag"


class Tracer:
    """Installs wrappers, records spans, and restores the originals.

    ``clock`` is injectable so the self-time arithmetic can be tested
    with exact timestamps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_id = 0
        # parallel span columns: name index, start, end, parent, op id
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.qualified: tuple[str, ...] = ()

    def wrap(self, name_index: int, fn):
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.starts)
            self.names.append(name_index)
            self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
            self.ops.append(self.op_id)
            self.ends.append(0.0)
            self._stack.append(span)
            self.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[span] = clock()
                self._stack.pop()

        return wrapper

    def install(self, wrapped: dict[str, tuple[str, ...]] = WRAPPED) -> None:
        """Patch every listed function in every module of the package."""
        self.qualified = tuple(f"{m}.{f}" for m, fns in wrapped.items() for f in fns)
        self.absent = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for index, qualified in enumerate(self.qualified):
            module_name, fn_name = qualified.split(".")
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self.wrap(index, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover.

        Spans nest strictly within one thread, so the children of a span
        are disjoint and their durations add.
        """
        child = [0.0] * len(self.starts)
        for span, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                child[parent] += self.ends[span] - self.starts[span]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def totals(self) -> dict[str, tuple[int, float]]:
        """Qualified name -> (calls, total self seconds)."""
        calls = [0] * len(self.qualified)
        self_s = [0.0] * len(self.qualified)
        for name, t in zip(self.names, self.self_times()):
            calls[name] += 1
            self_s[name] += t
        return {q: (calls[k], self_s[k]) for k, q in enumerate(self.qualified)}

    def write(self, path) -> None:
        """Write every span as gzipped CSV: name,start,end,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(f"{self.qualified[row[0]]},{row[1]:.9f},{row[2]:.9f},{row[3]},{row[4]}\n")
