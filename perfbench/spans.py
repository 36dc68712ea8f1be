"""Spans around the public functions of rigidity_cert, installed from outside.

`Tracer.install` replaces every public function of the layer modules with
a wrapper, by `setattr` on the module object; nothing under `src/` is
edited.  The wrappers therefore see calls made through a module attribute
(`cli -> certify.local_min_gate -> harmonic.bmo_seminorm`) and calls inside
one module through its globals (`bmo_l1_norm -> bmo_seminorm`).  A name
bound with `from ... import` in another module keeps the original
function, so those calls are not seen: `material` binds `frob` and
`random_rotation` that way, and their time counts as material's own.
"""
from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = ("cli", "fem", "material", "harmonic", "certify", "rigidity",
          "pushforward", "reporting", "tensor_core")

# fem.coercivity_constant switches from dense eigh to shift-invert eigsh
# above this many rows
SPARSE_ROWS = 3500

_CUBE_WALKERS = ("harmonic.bmo_seminorm", "harmonic.fs_sharp", "harmonic.hl_maximal")


class Tracer:
    """Records one span per wrapped call and a few counters at the same
    boundaries.  A span is `(name, start, end, parent index, run id)`;
    spans stay in memory until the caller writes them out."""

    def __init__(self, package: str, run_id: str):
        self.package = package
        self.run_id = run_id
        self.spans: list = []
        self.counters = {
            "cubes_visited": 0,
            "coercivity_max_dofs": 0,
            "coercivity_sparse_calls": 0,
            "newton_iterations": 0,
            "taylor_samples": 0,
            "gates_run": 0,
            "gates_pass": 0,
        }
        self._stack: list = []
        self._originals: list = []
        self._cube_counts: dict = {}
        self._cube_family = None
        observers = {name: self._count_cubes for name in _CUBE_WALKERS}
        observers["fem.coercivity_constant"] = self._count_eigensolve
        observers["fem.solve_equilibrium"] = self._count_newton
        observers["material.taylor_constants"] = self._count_taylor
        observers["certify.local_min_gate"] = self._count_gate
        self._observers = observers

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for name, fn in list(vars(mod).items()):
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    self._originals.append((layer, mod, name, fn))
        self._cube_family = importlib.import_module(f"{self.package}.harmonic").cube_family
        for layer, mod, name, fn in self._originals:
            setattr(mod, name, self._wrap(f"{layer}.{name}", fn))

    def restore(self) -> bool:
        """Put every original function back; True when all are back."""
        for _, mod, name, fn in self._originals:
            setattr(mod, name, fn)
        return all(getattr(mod, name) is fn for _, mod, name, fn in self._originals)

    @property
    def wrapped(self) -> int:
        return len(self._originals)

    def _wrap(self, name, fn):
        spans, stack, clock, run_id = self.spans, self._stack, time.perf_counter, self.run_id
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- counters, read from arguments and return values

    def _count_cubes(self, args, kwargs, result):
        family = kwargs.get("family", args[1] if len(args) > 1 else None)
        if family is None:
            fld = kwargs["fld"] if "fld" in kwargs else args[0]
            key = (fld.mask.shape, fld.mask.tobytes())
            if key not in self._cube_counts:
                self._cube_counts[key] = self._cube_family(fld).count
            count = self._cube_counts[key]
        else:
            count = family.count
        self.counters["cubes_visited"] += count

    def _count_eigensolve(self, args, kwargs, result):
        rows = int((kwargs["M_mat"] if "M_mat" in kwargs else args[0]).shape[0])
        c = self.counters
        c["coercivity_max_dofs"] = max(c["coercivity_max_dofs"], rows)
        c["coercivity_sparse_calls"] += rows > SPARSE_ROWS

    def _count_newton(self, args, kwargs, result):
        self.counters["newton_iterations"] += int(result[1].iterations)

    def _count_taylor(self, args, kwargs, result):
        self.counters["taylor_samples"] += int(result.samples)

    def _count_gate(self, args, kwargs, result):
        self.counters["gates_run"] += 1
        self.counters["gates_pass"] += result.outcome == "pass"


def summarize(spans) -> dict:
    """Per function name: calls, total_s and self_s.

    total_s sums the spans that are not nested inside a span of the same
    name, so a recursive or re-entrant call is not counted twice.  self_s
    is a span's duration minus the time its child spans cover; calls are
    single-threaded, so children never overlap and that time is the sum
    of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["total_s"] += end - start
    return out
