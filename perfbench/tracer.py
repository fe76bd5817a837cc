"""Span tracing from outside the program.

Wrappers replace the public functions of each ``minenergy`` layer and the
numpy/scipy kernels it calls, in every module namespace that binds them
(``h_space``, for example, is imported by name into four modules).  A
span is (name, start, end, parent); spans stay in memory and are written
once, when the run ends.  Self time is a span's duration minus the time
its child spans cover; it is accumulated as spans close.
"""

import functools
import json
import math
import os
import sys
import time
from array import array

import numpy as np

#: layer -> public functions whose calls and self time are reported
LAYER_FUNCTIONS = {
    "operators": ["expm", "Propagator.at", "Propagator.apply",
                  "pseudo_inverse", "load_model"],
    "quadrature": ["legendre_panels", "panel_grid"],
    "gramian": ["gramian_finite", "gramian_infinite", "h_space", "h_basis"],
    "energy": ["value_auxiliary", "value_finite", "simulate_mild",
               "time_reversal_check", "optimal_control_infinite",
               "optimal_trajectory_infinite", "feedback_residual",
               "bcle_residual", "steering_control_finite"],
    "riccati": ["comparison_check", "are_residual_H", "maximality_check",
                "enumerate_commuting_solutions", "verify_canonical_solutions"],
    "landau": ["lg_value_check", "synthesize_profile"],
    "serialize": ["control_csv", "trajectory_csv", "profile_csv", "write_report"],
    "cli": ["main", "cmd_synthesize", "cmd_auxiliary", "cmd_landau"],
}

#: kernel name -> (module, attribute) entry points it covers
KERNELS = {
    "eigh": [("numpy.linalg", "eigh"), ("scipy.linalg", "eigh")],
    "eig": [("numpy.linalg", "eig"), ("scipy.linalg", "eig")],
    "solve": [("numpy.linalg", "solve"), ("scipy.linalg", "solve")],
    "expm": [("scipy.linalg", "expm")],
    "solve_continuous_lyapunov": [("scipy.linalg", "solve_continuous_lyapunov")],
    "cholesky": [("numpy.linalg", "cholesky"), ("scipy.linalg", "cholesky")],
}

GRAMIAN_ROUTES = ("quadrature", "matrix_ode")

#: RK4 step rule of the matrix-ODE Gramian route: h <= H_SCALE / ||A||_2
RK4_H_SCALE = 1e-2


def span_names():
    """Every span name the tracer can report, in report order."""
    names = []
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            if layer == "gramian" and fn == "gramian_finite":
                names += [f"gramian.gramian_finite.{r}" for r in GRAMIAN_ROUTES]
            else:
                names.append(f"{layer}.{fn}")
    names += [f"kernel.{k}" for k in KERNELS]
    return names


def rk4_steps(a, t):
    """Steps the matrix-ODE route takes for state matrix a over horizon t."""
    h_max = RK4_H_SCALE / max(float(np.linalg.norm(a, 2)), 1e-12)
    return max(1, int(math.ceil(float(t) / h_max)))


class Tracer:
    """Records spans while ``active``; otherwise the wrappers call through."""

    def __init__(self):
        self.active = False
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []           # open span indices
        self._child = []           # time covered by children, per open span
        self.calls = {}
        self.self_s = {}
        self.counts = {"quadrature.legendre_nodes": 0, "gramian.rk4_steps": 0,
                       "serialize.bytes_written": 0}

    def _id(self, name):
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx):
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        dur = end - self.span_start[idx]
        if self._child:
            self._child[-1] += dur
        name = self.names[self.span_name[idx]]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (dur - child)

    def wrap(self, fn, name, name_of=None, after=None):
        """Wrapper recording one span per call.  ``name_of(args, kwargs)``
        refines the span name; ``after(result, args, kwargs)`` updates the
        computed counts once the span is closed."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def write(self, path):
        """Write every span as parallel columns (times in seconds from the
        first span)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": [round(s - t0, 9) for s in self.span_start],
            "end": [round(e - t0, 9) for e in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _rebind(original, wrapper, modules):
    """Replace every binding of ``original`` in the given module
    namespaces; returns how many were replaced."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def install(tracer):
    """Wrap the layer functions and kernels in every namespace that binds
    them.  Must run after ``minenergy.cli`` is imported."""
    import minenergy.cli  # noqa: F401  (loads every layer module)

    own = [m for name, m in sys.modules.items()
           if m is not None and (name == "minenergy" or name.startswith("minenergy."))]

    def method(args, kwargs):
        return kwargs.get("method", args[2] if len(args) > 2 else "quadrature")

    def gramian_name(args, kwargs):
        return f"gramian.gramian_finite.{method(args, kwargs)}"

    def gramian_after(result, args, kwargs):
        if method(args, kwargs) == "matrix_ode":
            tracer.counts["gramian.rk4_steps"] += rk4_steps(args[0].A, args[1])

    def nodes_after(result, args, kwargs):
        tracer.counts["quadrature.legendre_nodes"] += len(result[0])

    def bytes_after(result, args, kwargs):
        tracer.counts["serialize.bytes_written"] += os.path.getsize(args[0])

    hooks = {
        "gramian.gramian_finite": dict(name_of=gramian_name, after=gramian_after),
        "quadrature.legendre_panels": dict(after=nodes_after),
    }
    for fn in ("control_csv", "trajectory_csv", "profile_csv", "write_report"):
        hooks[f"serialize.{fn}"] = dict(after=bytes_after)

    for layer, fns in LAYER_FUNCTIONS.items():
        mod = sys.modules[f"minenergy.{layer}"]
        for fn in fns:
            name = f"{layer}.{fn}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(vars(cls)[meth], name))
                continue
            original = getattr(mod, fn)
            wrapper = tracer.wrap(original, name, **hooks.get(name, {}))
            if not _rebind(original, wrapper, own):
                raise RuntimeError(f"{name} is bound nowhere")

    for kname, entries in KERNELS.items():
        for mod_name, attr in entries:
            mod = sys.modules[mod_name]
            original = getattr(mod, attr)
            wrapper = tracer.wrap(original, f"kernel.{kname}")
            _rebind(original, wrapper, own + [mod])
