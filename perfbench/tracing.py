"""Span tracer that wraps entropyne's public API from outside the package.

A span is recorded when a call crosses from one layer into another: a layer
is one entropyne module, named after the module that defines the function or
class, plus ``eigensolve`` for scipy.linalg's eigensolvers.  A call from a
layer into itself (``grids.fmt`` inside ``DeltaGrid.to_csv_text``) records
nothing, so its time stays in the caller's self time.

Functions are wrapped under every name that reaches them: in each traced
module that imported the name with ``from ... import``, in any extra
namespace given (the benchmark's own module), and in the defining module
unless that module calls the function itself.  Such internal calls never
cross a layer, and a wrapper on them would add one Python call per cell to
``DeltaGrid.to_csv_text``'s use of ``fmt``.  The cost of that rule: a call
from another module written as ``module.function`` to such a function is not
recorded.  Public methods and properties are wrapped on their class.  A name
a later version removes is simply not found, so it records no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np

LAYERS = ("cli", "grids", "_kernels", "qubit", "amplifier", "gaussian",
          "entropy", "hermitian", "fock")
PACKAGE = "entropyne"
EIGENSOLVE = "eigensolve"
EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals", "eig_banded",
                "eigvals_banded", "eigh_tridiagonal", "eigvalsh_tridiagonal")


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "result", "rows")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.result = None
        self.rows = 0


class Tracer:
    """Installs span-recording wrappers; spans stay in memory until `dump`."""

    def __init__(self, extra_namespaces=()):
        self.modules = {}
        for layer in LAYERS:
            try:
                self.modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
        self.extra = list(extra_namespaces)
        self.spans = []        # spans of the operation in progress
        self.recorded = []     # (op index, spans) of every traced operation
        self._stack = [None]   # innermost open span; None outside any span
        self._patches = []     # (owner, attribute, original)

    # -- installing ---------------------------------------------------------
    def _layer_of(self, obj):
        module = getattr(obj, "__module__", "") or ""
        head, _, tail = module.partition(".")
        return tail if head == PACKAGE and tail in self.modules else None

    def _wrap(self, fn, name, layer, rows_of=None):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            span = Span(name, layer, parent)
            if rows_of is not None:
                span.rows = rows_of(args, kwargs)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if layer == "_kernels":
                span.result = result
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            return
        wrappers = {}  # id(original function) -> wrapper
        classes = {}
        for owner in self._owners():
            own_calls = _names_called_inside(owner)
            for attr, obj in list(vars(owner).items()):
                layer = None if attr.startswith("_") else self._layer_of(obj)
                if layer is None:
                    continue
                if inspect.isclass(obj):
                    classes[id(obj)] = obj
                elif inspect.isfunction(obj):
                    if obj.__module__ == owner.__name__ and attr in own_calls:
                        continue
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__qualname__}", layer)
                    self._set(owner, attr, wrappers[id(obj)])
        for cls in classes.values():
            self._wrap_class(cls)
        self._wrap_eigensolvers()

    def _owners(self):
        return list(self.modules.values()) + self.extra

    def _wrap_class(self, cls):
        layer = self._layer_of(cls)
        for attr, member in list(cls.__dict__.items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if isinstance(member, property) and member.fget is not None:
                self._set(cls, attr, property(self._wrap(member.fget, name, layer),
                                              member.fset, member.fdel, member.__doc__))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name, layer))

    def _wrap_eigensolvers(self):
        import scipy.linalg

        def rows(args, kwargs):
            first = args[0] if args else next(iter(kwargs.values()), None)
            return int(np.shape(first)[0]) if first is not None and np.ndim(first) else 0

        for attr in EIGENSOLVERS:
            original = getattr(scipy.linalg, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"scipy.linalg.{attr}", EIGENSOLVE, rows)
            self._set(scipy.linalg, attr, wrapper)
            for owner in self._owners():
                for name, obj in list(vars(owner).items()):
                    if obj is original:
                        self._set(owner, name, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------
    def begin_op(self):
        self.spans = []

    def end_op(self, index):
        """Close operation `index` and return its layer figures."""
        spans = self.spans
        self.spans = []
        figures = layer_metrics(spans)
        for s in spans:
            s.result = None  # kernel outputs are only needed for the cell counts
        self.recorded.append((index, spans))
        return figures

    def dump(self, path, meta):
        """Write every recorded span as [op, name, start, end, parent row]."""
        rows = []
        for index, spans in self.recorded:
            base = len(rows)
            position = {id(s): base + k for k, s in enumerate(spans)}
            for s in spans:
                parent = position.get(id(s.parent), -1)
                rows.append([index, s.name, s.start, s.end, parent])
        with open(path, "w") as fh:
            json.dump({**meta, "columns": ["op", "name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _names_called_inside(module):
    """Global and attribute names used by the code defined in `module`."""
    codes = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            member = getattr(member, "fget", member)
            if inspect.isfunction(member):
                codes.append(member.__code__)
    names = set()
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return names


def layer_metrics(spans):
    """Per-operation layer figures from the spans of one operation."""
    self_time = {}
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + (s.end - s.start)
    counts = {}
    for s in spans:
        own = (s.end - s.start) - child_time.get(id(s), 0.0)
        self_time[s.layer] = self_time.get(s.layer, 0.0) + own
        counts[s.layer] = counts.get(s.layer, 0) + 1

    cells = nan_cells = 0
    eig_time = 0.0
    eig_rows = 0
    for s in spans:
        if s.layer == "_kernels" and isinstance(s.result, np.ndarray):
            cells += int(s.result.size)
            nan_cells += int(np.count_nonzero(np.isnan(s.result)))
        elif s.layer == EIGENSOLVE:
            eig_time += s.end - s.start
            eig_rows += s.rows

    minimizations = [s for s in spans if s.name == "amplifier.delta_argmin_temperature"]
    evals = 0
    for s in spans:
        if s.name == "gaussian.gaussian_delta":
            p = s.parent
            while p is not None and p.name != "amplifier.delta_argmin_temperature":
                p = p.parent
            evals += p is not None
    return {
        "cli.self_s": self_time.get("cli", 0.0),
        "grids.self_s": self_time.get("grids", 0.0),
        "kernels.self_s": self_time.get("_kernels", 0.0),
        "kernels.cells": cells,
        "kernels.nan_cells": nan_cells,
        "qubit.self_s": self_time.get("qubit", 0.0),
        "amplifier.self_s": self_time.get("amplifier", 0.0),
        "amplifier.delta_evals": evals / len(minimizations) if minimizations else 0,
        "gaussian.self_s": self_time.get("gaussian", 0.0),
        "gaussian.calls": counts.get("gaussian", 0),
        "entropy.self_s": self_time.get("entropy", 0.0),
        "hermitian.self_s": self_time.get("hermitian", 0.0),
        "fock.self_s": self_time.get("fock", 0.0),
        "fock.eigensolve_s": eig_time,
        "fock.eigensolves": counts.get(EIGENSOLVE, 0),
        "fock.eig_rows": eig_rows,
    }
