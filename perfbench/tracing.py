"""Spans around walfcal's public functions, for the benchmark's traced run.

Tracer.install() replaces each function in LAYERS with a timing wrapper
wherever the walfcal, walfcal.cli and walfcal.calib namespaces hold it, so
calls between walfcal's own modules are traced as well.  Nothing in walfcal
changes; uninstall() puts the originals back.  Spans stay in memory as
[name, start, end, parent index, op id, counts, error] and are written out
once, at the end of the run.  A layer whose function no longer exists is
reported as absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

NAMESPACES = ("walfcal", "walfcal.cli", "walfcal.calib")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _rows(array) -> int:
    """Element count of an array (rows of a distance vector, cells of a matrix)."""
    return int(np.size(array))


def _basis_cells(rows: int, args, kwargs) -> dict:
    return {"rows": rows, "cells": rows * len(_arg(args, kwargs, 0, "c").basis)}


# span name -> (defining module, attribute, counts taken from (args, kwargs, result))
LAYERS = {
    "cli.main": ("walfcal.cli", "main", None),
    "cli.run_calibration": ("walfcal.cli", "run_calibration", None),
    "cli.load_config": ("walfcal.cli", "load_config", None),
    "cli.load_measurements": ("walfcal.cli", "load_measurements",
                              lambda a, k, out: {"rows": len(out)}),
    "cli.load_coefficients": ("walfcal.cli", "load_coefficients", None),
    "basis.build_basis": ("walfcal.basis", "build_basis", None),
    "basis.design_matrix": ("walfcal.basis", "design_matrix",
                            lambda a, k, out: {"rows": out.shape[0], "cells": out.matrix.size}),
    "basis.effective_rank": ("walfcal.basis", "effective_rank", None),
    "calib.calibrate": ("walfcal.calib", "calibrate",
                        lambda a, k, out: {"rows": len(out.distances_km)}),
    "calib.minimum_norm_lstsq": ("walfcal.calib", "minimum_norm_lstsq",
                                 lambda a, k, out: {"cells": _rows(_arg(a, k, 0, "matrix"))}),
    "calib.predict_calibrated": ("walfcal.calib", "predict_calibrated",
                                 lambda a, k, out: _basis_cells(_rows(out), a, k)),
    "calib.disaggregate": ("walfcal.calib", "disaggregate",
                            lambda a, k, out: _basis_cells(out.distances_km.size, a, k)),
    "models.predict_basic": ("walfcal.models", "predict_basic",
                             lambda a, k, out: {"rows": _rows(out)}),
    "metrics.MetricsReport.from_series": ("walfcal.metrics", "MetricsReport.from_series", None),
}

# Layers that evaluate the component basis: (span name, argument holding the
# model, argument holding the distances).  They feed basis.useful_ratio.
BASIS_EVALUATIONS = {
    "basis.design_matrix": ((0, "basis"), (1, "distances_km")),
    "calib.predict_calibrated": ((0, "c"), (1, "d_km")),
    "calib.disaggregate": ((0, "c"), (1, "distances_km")),
}

# What the CLI does beyond its wrapped children: argument handling, the grid,
# formatting and writing the reports.
EMIT_SPANS = ("cli.main", "cli.run_calibration")


class Tracer:
    """Span recorder for one process; op is the id stamped on new spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.absent: list[str] = []
        self.evaluated: list[tuple] = []  # (op, model, distances) per basis evaluation
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span that no wrapper could time (such as an import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, None, None])

    def _wrap(self, name, fn, count):
        from walfcal.errors import DomainError

        tracer = self
        evaluation = BASIS_EVALUATIONS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer.op, None, None]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except DomainError:
                span[2] = time.perf_counter()
                span[6] = "domain"
                raise
            except BaseException:
                span[2] = time.perf_counter()
                span[6] = "other"
                raise
            finally:
                tracer._stack.pop()
            span[2] = time.perf_counter()
            if count is not None:
                span[5] = count(args, kwargs, out)
            if evaluation is not None:
                (mi, mname), (di, dname) = evaluation
                model = _arg(args, kwargs, mi, mname)
                distances = _arg(args, kwargs, di, dname)
                tracer.evaluated.append((tracer.op, model.kind.value, distances))
            return out

        return traced

    def install(self) -> None:
        self.absent = []
        namespaces = [importlib.import_module(n) for n in NAMESPACES]
        for name, (module, attr, count) in LAYERS.items():
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None)
            if original is None:
                self.absent.append(name)
            elif isinstance(owner, type):
                raw = owner.__dict__[last]
                setattr(owner, last, classmethod(self._wrap(name, raw.__func__, count)))
                self._restore.append((owner, last, raw))
            else:
                wrapped = self._wrap(name, original, count)
                holders = [ns for ns in namespaces if getattr(ns, last, None) is original]
                if not holders:
                    self.absent.append(name)
                for ns in holders:
                    setattr(ns, last, wrapped)
                    self._restore.append((ns, last, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def basis_rows(self, ops=None) -> tuple[int, int]:
        """(rows evaluated, distinct (op, model, distance) rows) over basis evaluations."""
        by_model = defaultdict(list)
        for op, model, d in self.evaluated:
            if ops is None or op in ops:
                by_model[(op, model)].append(np.ravel(np.asarray(d, dtype=float)))
        evaluated = sum(a.size for arrays in by_model.values() for a in arrays)
        distinct = sum(np.unique(np.concatenate(arrays)).size for arrays in by_model.values())
        return evaluated, distinct

    def dump(self, ops=None) -> dict:
        """Spans and basis counts, limited to the given op ids when ops is set."""
        spans, index = [], {}
        for i, span in enumerate(self.spans):
            if ops is None or span[4] in ops:
                index[i] = len(spans)
                spans.append([*span[:3], index.get(span[3], -1), *span[4:]])
        evaluated, distinct = self.basis_rows(ops)
        return {"spans": spans, "absent": self.absent,
                "basis_rows_evaluated": evaluated, "basis_rows_distinct": distinct}


def layer_stats(spans) -> dict:
    """Per span name: calls, self seconds, summed counts and domain errors."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, op, counts, error) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["self_s"] += (end - start) - child[i]
        for key, value in (counts or {}).items():
            s[key] += value
        if error == "domain":
            s["domain_errors"] += 1
    return stats
