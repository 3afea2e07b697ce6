"""Spans around daesemi's public functions, for the traced run.

``install`` wraps each function named in ``TARGETS`` everywhere it is
bound: in its defining module, in every daesemi module that imported it by
name, and in the package namespace.  The methods in ``METHODS`` are wrapped
on their class, and ``numpy.linalg.svd``/``cond``/``solve`` on
``numpy.linalg``, which is where daesemi looks them up.  Nothing under
``src/`` changes.

A span is recorded only while the benchmark holds an operation open with
``Tracer.operation``, so input generation and output checks leave no spans.
Spans are kept in memory as ``[name, start, end, parent]`` and can be
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

ROOT_SPAN = "op"

TARGETS = {
    "pencil": ("resolvent", "estimate_resolvent_index", "chain_index"),
    "subspaces": ("hilbert_decomposition", "block_left_resolvent",
                  "check_disjointness"),
    "semigroup": ("build_evaluator", "verify_properties", "eval_S_r",
                  "cp_semigroup"),
    "laplace": ("bromwich_invert",),
    "solver": ("solve_full", "solve_homogeneous", "solve_inhomogeneous_ran",
               "residual"),
    "fileio": ("read_pencil", "trajectory_csv"),
    "cli": ("main",),
}
METHODS = {"signals": ("Signal", ("__call__", "antiderivative", "convolve"))}
LINALG = ("svd", "cond", "solve")

# The per-layer metrics, in BENCHMARK.json order: name -> unit.
PER_LAYER = {}
for _name in ("pencil.resolvent", "pencil.estimate_resolvent_index",
              "subspaces.hilbert_decomposition", "semigroup.build_evaluator",
              "semigroup.eval_S_r", "signals.Signal.__call__",
              "laplace.bromwich_invert", "linalg.svd", "linalg.cond",
              "linalg.solve"):
    PER_LAYER[_name + ".calls"] = "count"
for _name in ("pencil.resolvent", "pencil.estimate_resolvent_index",
              "pencil.chain_index", "subspaces.hilbert_decomposition",
              "subspaces.block_left_resolvent", "subspaces.check_disjointness",
              "semigroup.build_evaluator", "semigroup.verify_properties",
              "semigroup.eval_S_r", "semigroup.cp_semigroup",
              "signals.Signal.__call__", "signals.Signal.antiderivative",
              "signals.Signal.convolve", "laplace.bromwich_invert",
              "solver.solve_full", "solver.solve_homogeneous",
              "solver.solve_inhomogeneous_ran", "solver.residual",
              "fileio.read_pencil", "fileio.trajectory_csv", "cli.main",
              "linalg.svd", "linalg.solve"):
    PER_LAYER[_name + ".self_s"] = "s"
PER_LAYER["semigroup.S_coord.terms"] = "count"
PER_LAYER["semigroup.S_coord.mb"] = "MB"


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.n_ops = 0
        # (terms, bytes) of every S_coord built inside an operation
        self.s_coord_sizes: list[tuple[int, int]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self):
        """Root span of one benchmark operation."""
        idx = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self.n_ops += 1

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out)
            return out
        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def per_layer_metrics(self) -> dict[str, dict]:
        """Every PER_LAYER metric, per operation (zero when never called)."""
        per_op = max(self.n_ops, 1)
        agg = self.self_times()
        metrics = {}
        for key, unit in PER_LAYER.items():
            name, _, kind = key.rpartition(".")
            calls, self_s = agg.get(name, (0, 0.0))
            if kind == "calls":
                value = calls / per_op
            elif kind == "self_s":
                value = self_s / per_op
            elif kind == "terms":
                value = max((t for t, _ in self.s_coord_sizes), default=0)
            else:  # mb
                value = max((b for _, b in self.s_coord_sizes), default=0) / 2 ** 20
            metrics[key] = {"value": value, "unit": unit}
        return metrics

    def record_evaluator(self, ev) -> None:
        sig = getattr(ev, "S_coord", None)
        if sig is not None:
            self.s_coord_sizes.append(
                (len(sig.terms), sum(t.coeff.nbytes for t in sig.terms)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the traced functions; returns what ``uninstall`` restores."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "daesemi" or name.startswith("daesemi."))]
    undo = []
    for modname, funcs in TARGETS.items():
        home = sys.modules[f"daesemi.{modname}"]
        for fname in funcs:
            original = getattr(home, fname)
            after = tracer.record_evaluator if fname == "build_evaluator" else None
            wrapped = tracer.wrap(f"{modname}.{fname}", original, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
    for modname, (clsname, meths) in METHODS.items():
        cls = getattr(sys.modules[f"daesemi.{modname}"], clsname)
        for meth in meths:
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.wrap(f"{modname}.{clsname}.{meth}", original))
    for fname in LINALG:
        original = getattr(np.linalg, fname)
        undo.append((np.linalg, fname, original))
        setattr(np.linalg, fname, tracer.wrap(f"linalg.{fname}", original))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)
