"""Span tracer that instruments pathcorr from outside the package.

``Tracer.install`` wraps, in place:

- every public function listed in a pathcorr module's ``__all__``, rebound
  in every pathcorr namespace that holds the same function object, so
  calls between modules are seen too;
- ``__post_init__`` of the four validated matrix types (validations);
- the numpy/scipy linear-algebra entry points (LAPACK calls).

Each span is one list ``[id, name, layer, kind, start, end, parent, task,
raised, flops, nbytes]``, flops rounded to an integer.  Spans stay in memory until ``summarize`` and
``dump`` read them; ``uninstall`` restores every original binding.

Flop counts are computed from argument shapes with the standard dense
counts (for example n^3/3 for a Cholesky factorisation); they cover the
wrapped LAPACK entry points only, not ``@`` products.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import types

import numpy as np

# Layers are the pathcorr modules that do work; ``errors`` defines none.
LAYERS = ("cli", "fileio", "matrices", "pathsum", "transforms", "chains", "gaussinfo", "sampling")
# Layers that call LAPACK, for the factorisation and flop counts.
LAPACK_LAYERS = ("matrices", "pathsum", "transforms", "gaussinfo", "sampling")
MATRIX_TYPES = (
    "CovarianceMatrix",
    "PrecisionMatrix",
    "MarginalCorrelationMatrix",
    "PartialCorrelationGraph",
)
# fileio functions whose ``path`` argument names the file read or written.
FILE_READS = ("load_matrix", "load_csv_matrix")
FILE_WRITES = ("save_matrix", "save_csv_table")

# Span fields.
ID, NAME, LAYER, KIND, START, END, PARENT, TASK, RAISED, FLOPS, NBYTES = range(11)


def _arg(args, kwargs, pos, key):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key)


def _order(args, kwargs) -> int:
    return int(np.shape(_arg(args, kwargs, 0, "a"))[-1])


def _cols(b) -> int:
    shape = np.shape(b)
    return int(shape[1]) if len(shape) > 1 else 1


def _chol(args, kwargs):
    return _order(args, kwargs) ** 3 / 3.0


def _eigvals(args, kwargs):
    n = _order(args, kwargs)
    extra = 4.0 * n**3 / 3.0 if _arg(args, kwargs, 1, "b") is not None else 0.0
    return 4.0 * n**3 / 3.0 + extra


def _scipy_eigh(args, kwargs):
    n = _order(args, kwargs)
    base = 4.0 * n**3 / 3.0 if kwargs.get("eigvals_only", False) else 9.0 * n**3
    # Generalised problem: Cholesky of b plus the reduction to standard form.
    extra = 4.0 * n**3 / 3.0 if _arg(args, kwargs, 1, "b") is not None else 0.0
    return base + extra


def _numpy_eigh(args, kwargs):
    return 9.0 * _order(args, kwargs) ** 3


def _svd(args, kwargs):
    m, n = np.shape(_arg(args, kwargs, 0, "a"))[-2:]
    big, small = max(m, n), min(m, n)
    if kwargs.get("compute_uv", True):
        return 6.0 * big * small**2 + 20.0 * small**3
    return 4.0 * big * small**2 - 4.0 * small**3 / 3.0


def _inverse(args, kwargs):
    return 2.0 * _order(args, kwargs) ** 3


def _lu(args, kwargs):
    return 2.0 * _order(args, kwargs) ** 3 / 3.0


def _solve(args, kwargs):
    n = _order(args, kwargs)
    return 2.0 * n**3 / 3.0 + 2.0 * n**2 * _cols(_arg(args, kwargs, 1, "b"))


def _factored_solve(args, kwargs):
    factor = _arg(args, kwargs, 0, "c_and_lower")
    if isinstance(factor, tuple):
        factor = factor[0]
    n = int(np.shape(factor)[0])
    return 2.0 * n**2 * _cols(_arg(args, kwargs, 1, "b"))


def _triangular_solve(args, kwargs):
    n = _order(args, kwargs)
    return float(n**2 * _cols(_arg(args, kwargs, 1, "b")))


def _condition_estimate(args, kwargs):
    return 4.0 * _order(args, kwargs) ** 2


# (module, attribute, is a factorisation, flop count).  Factorisations are
# Cholesky, eigen, SVD, LU and inverse routines; solves count only flops.
# Routines pathcorr does not call today are listed too, so that a change
# moving to them (say, potri for the oracle) is still counted.
LAPACK_ENTRY_POINTS = (
    ("numpy.linalg", "cholesky", True, _chol),
    ("numpy.linalg", "eigvalsh", True, _eigvals),
    ("numpy.linalg", "eigh", True, _numpy_eigh),
    ("numpy.linalg", "svd", True, _svd),
    ("numpy.linalg", "inv", True, _inverse),
    ("numpy.linalg", "det", True, _lu),
    ("numpy.linalg", "slogdet", True, _lu),
    ("numpy.linalg", "solve", False, _solve),
    ("scipy.linalg", "cho_factor", True, _chol),
    ("scipy.linalg", "cholesky", True, _chol),
    ("scipy.linalg", "eigh", True, _scipy_eigh),
    ("scipy.linalg", "eigvalsh", True, _eigvals),
    ("scipy.linalg", "svd", True, _svd),
    ("scipy.linalg", "inv", True, _inverse),
    ("scipy.linalg", "det", True, _lu),
    ("scipy.linalg", "lu_factor", True, _lu),
    ("scipy.linalg", "cho_solve", False, _factored_solve),
    ("scipy.linalg", "lu_solve", False, _factored_solve),
    ("scipy.linalg", "solve", False, _solve),
    ("scipy.linalg", "solve_triangular", False, _triangular_solve),
    ("scipy.linalg.lapack", "dpotrf", True, _chol),
    ("scipy.linalg.lapack", "dpotri", True, _lu),
    ("scipy.linalg.lapack", "dpotrs", False, _factored_solve),
    ("scipy.linalg.lapack", "dpocon", False, _condition_estimate),
)
EIGVALSH = ("numpy.linalg.eigvalsh", "scipy.linalg.eigvalsh")


class Tracer:
    """Records spans around calls into pathcorr while installed."""

    def __init__(self):
        self.spans: list = []
        self.task = None
        self._stack: list = []
        self._in_lapack = False
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, kind: str):
        tracer = self
        signature = inspect.signature(fn) if kind in ("read", "write") else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), name, layer, kind, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None, tracer.task, False, 0.0, 0]
            tracer.spans.append(span)
            tracer._stack.append(span[ID])
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
                if signature is not None and not span[RAISED]:
                    span[NBYTES] = os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])

        return traced

    def _wrap_lapack(self, fn, name: str, factorisation: bool, flops):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Only calls made from inside a pathcorr span count, and only the
            # outermost one when a linear-algebra routine calls another.
            if tracer._in_lapack or not tracer._stack:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), name, "lapack", "factorisation" if factorisation else "solve",
                    time.perf_counter(), None, tracer._stack[-1], tracer.task, False,
                    round(flops(args, kwargs)), 0]
            tracer.spans.append(span)
            tracer._in_lapack = True
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                tracer._in_lapack = False
                span[END] = time.perf_counter()

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapped, namespaces) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapped)

    def install(self) -> None:
        importlib.import_module("pathcorr.cli")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "pathcorr" or name.startswith("pathcorr.")]
        for layer in LAYERS:
            module = sys.modules[f"pathcorr.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                kind = "read" if attr in FILE_READS and layer == "fileio" else (
                    "write" if attr in FILE_WRITES and layer == "fileio" else "public")
                self._rebind(fn, self._wrap(fn, f"{layer}.{attr}", layer, kind), namespaces)
        matrices = sys.modules["pathcorr.matrices"]
        for type_name in MATRIX_TYPES:
            cls = getattr(matrices, type_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self._wrap(
                original, f"matrices.{type_name}.__post_init__", "matrices", "validation")
        for module_name, attr, factorisation, flops in LAPACK_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap_lapack(fn, f"{module_name}.{attr}", factorisation, flops)
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrapped)
            self._rebind(fn, wrapped, namespaces)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summarize(self, tasks, n_tasks: int, suffix: str = "") -> dict:
        """Per-layer metrics over the spans of ``tasks``, per task or per call."""
        tasks = set(tasks)
        spans = [s for s in self.spans if s[TASK] in tasks]
        layer_of = {s[ID]: s[LAYER] for s in spans}
        child_time: dict = {}
        for s in spans:
            if s[KIND] not in ("factorisation", "solve") and s[PARENT] is not None:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
        out: dict = {}

        def add(name, value, unit):
            out[name + suffix] = {"value": value, "unit": unit}

        per_call: dict = {}
        # Counts stay integers until the one division by n_tasks, so the
        # per-task values repeat exactly whatever the number of passes.
        totals = {layer: {"self": 0.0, "calls": 0, "errors": 0, "fact": 0, "flops": 0}
                  for layer in LAYERS}
        counts = {"validations": 0, "eigvalsh": 0, "read": 0, "written": 0, "cli_main_self": 0.0}
        for s in spans:
            duration = s[END] - s[START]
            if s[KIND] in ("factorisation", "solve"):
                layer = layer_of[s[PARENT]]
                totals[layer]["flops"] += s[FLOPS]
                if s[KIND] == "factorisation":
                    totals[layer]["fact"] += 1
                if s[NAME] in EIGVALSH and layer == "matrices":
                    counts["eigvalsh"] += 1
                continue
            own = duration - child_time.get(s[ID], 0.0)
            totals[s[LAYER]]["self"] += own
            per_call.setdefault(s[NAME], []).append(duration)
            if s[KIND] == "validation":
                counts["validations"] += 1
                continue
            totals[s[LAYER]]["calls"] += 1
            totals[s[LAYER]]["errors"] += int(s[RAISED])
            if s[KIND] == "read":
                counts["read"] += s[NBYTES]
            elif s[KIND] == "write":
                counts["written"] += s[NBYTES]
            if s[NAME] == "cli.main":
                counts["cli_main_self"] += own
        for layer in LAYERS:
            t = totals[layer]
            add(f"{layer}.self_ms", 1e3 * t["self"] / n_tasks, "ms")
            add(f"{layer}.calls", t["calls"] / n_tasks, "count")
            add(f"{layer}.errors", t["errors"] / n_tasks, "count")
        for layer in LAPACK_LAYERS:
            add(f"{layer}.factorizations", totals[layer]["fact"] / n_tasks, "count")
            add(f"{layer}.gflop", totals[layer]["flops"] / (n_tasks * 10**9), "GFLOP")
        add("matrices.validations", counts["validations"] / n_tasks, "count")
        add("matrices.eigvalsh_calls", counts["eigvalsh"] / n_tasks, "count")
        add("pathsum.star_path_sum_closed.calls",
            len(per_call.get("pathsum.star_path_sum_closed", ())) / n_tasks, "count")
        add("chains.chain_sums.calls", len(per_call.get("chains.chain_sums", ())) / n_tasks, "count")
        add("fileio.bytes_read", counts["read"] / n_tasks, "B")
        add("fileio.bytes_written", counts["written"] / n_tasks, "B")
        if "cli.main" in per_call:
            add("cli.main.self_ms", 1e3 * counts["cli_main_self"] / n_tasks, "ms")
        for name, durations in sorted(per_call.items()):
            add(f"{name}.ms", 1e3 * sum(durations) / len(durations), "ms")
        return out

    def dump(self, path) -> None:
        """Write every span, once, as JSON: a field list and one row per span."""
        fields = ["id", "name", "layer", "kind", "start", "end", "parent", "task",
                  "raised", "flops", "bytes"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
