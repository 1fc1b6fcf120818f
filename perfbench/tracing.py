"""Spans and counters for the traced run.

The tracer replaces public mgonal functions with timing wrappers at every
module attribute that holds them (for example both `mgonal.polygonal.
extend_set` and `mgonal.escalator.extend_set`, where `build_tree` looks it
up).  The program's source is not touched.  Each call becomes a span
(name, start, end, parent); counters are worked out from the call's
arguments or result.  Spans stay in memory until `write`.

A layer's self time is its spans' time less the time of their child spans.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction


def _fold_counts(form, bound, *_, **__):
    return {"polygonal.folds": len(form.coeffs),
            "polygonal.folded_bits": len(form.coeffs) * (bound + 1)}


def _extend_counts(rep, *_, **__):
    return {"polygonal.folds": 1, "polygonal.folded_bits": rep.bound + 1}


def _box_cells(X, h, *_, **__):
    """The search box representation_count sizes before it enumerates."""
    H = Fraction(h) * X.N * X.N
    cells = 0
    if H.denominator == 1 and H >= 0 and X.gram:
        cells = math.prod(2 * math.isqrt(int(H) // a) // X.N + 2 for a in X.gram)
    return {"lattice.counts": 1, "lattice.box_cells": cells}


def _oracle_counts(p, source, h, t, *_, **__):
    rank = source.n if hasattr(source, "n") else len(source)
    return {"oracle.calls": 1,
            "oracle.residues": rank * (p**t + p ** (t + 1) + p ** (t + 2))}


def _once(counter):
    return lambda *_, **__: {counter: 1}


# name -> (layer, counters from the arguments, counters from the result)
WRAPPED = {
    "represented_set": ("polygonal", _fold_counts, None),
    "extend_set": ("polygonal", _extend_counts, None),
    "build_tree": ("escalator.build", None, lambda tree: {"escalator.nodes": len(tree.nodes)}),
    "serialize_tree": ("escalator.serialize", None, None),
    "deserialize_tree": ("escalator.parse", None, None),
    "representation_count": ("lattice", _box_cells, None),
    "yang_density_odd": ("formula", _once("formula.calls"), None),
    "yang_density_two": ("formula", _once("formula.calls"), None),
    "density_p_dividing_N": ("formula", _once("formula.calls"), None),
    "siegel_count_density": ("oracle", _oracle_counts, None),
    "verify_guy": ("constructions", _once("constructions.verifies"), None),
}
COUNTERS = (
    "polygonal.folds", "polygonal.folded_bits", "escalator.nodes",
    "lattice.counts", "lattice.box_cells", "formula.calls",
    "oracle.calls", "oracle.residues", "constructions.verifies",
)
UNITS = {
    "polygonal.folds": "count", "polygonal.folded_bits": "bits", "polygonal.s": "s",
    "escalator.nodes": "count", "escalator.build_self_s": "s",
    "escalator.serialize_s": "s", "escalator.parse_s": "s",
    "lattice.counts": "count", "lattice.box_cells": "cells", "lattice.s": "s",
    "formula.calls": "count", "formula.s": "s",
    "oracle.calls": "count", "oracle.residues": "residues", "oracle.s": "s",
    "constructions.verifies": "count", "constructions.s": "s", "constructions.self_s": "s",
    "cli.main_s": "s", "trace.spans": "count", "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.patches: list[tuple[object, str, object]] = []

    def install(self, package: str = "mgonal") -> None:
        """Wrap every WRAPPED function at each module attribute holding it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for name, (layer, from_args, from_result) in WRAPPED.items():
            originals = {getattr(m, name) for m in modules if hasattr(m, name)}
            if len(originals) != 1:
                raise RuntimeError(f"expected one function {package}.*.{name}, found {originals}")
            wrapper = self._wrap(originals.pop(), layer, from_args, from_result)
            for module in modules:
                if hasattr(module, name):
                    self.patches.append((module, name, getattr(module, name)))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self.patches):
            setattr(module, name, original)
        self.patches.clear()

    def _open(self, layer: str) -> int:
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _count(self, extra: dict[str, int]) -> None:
        for key, value in extra.items():
            self.counters[key] += value

    def _wrap(self, fn, layer, from_args, from_result):
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if from_args:
                self._count(from_args(*args, **kwargs))
            if from_result:
                self._count(from_result(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, layer: str):
        idx = self._open(layer)
        try:
            yield
        finally:
            self._close(idx)

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per layer."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for layer, start, end, parent in self.spans:
            total[layer] += end - start
            own[layer] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return total, own

    def metrics(self) -> dict[str, float]:
        total, own = self.layer_times()
        out: dict[str, float] = dict(self.counters)
        out.update({
            "polygonal.s": total["polygonal"],
            "escalator.build_self_s": own["escalator.build"],
            "escalator.serialize_s": total["escalator.serialize"],
            "escalator.parse_s": total["escalator.parse"],
            "lattice.s": total["lattice"],
            "formula.s": total["formula"],
            "oracle.s": total["oracle"],
            "constructions.s": total["constructions"],
            "constructions.self_s": own["constructions"],
            "cli.main_s": own["cli"],
            "trace.spans": len(self.spans),
        })
        return out

    def write(self, path) -> None:
        """Spans as JSON: times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["layer", "start_s", "end_s", "parent"],
            "spans": [[layer, start - t0, end - t0, parent]
                      for layer, start, end, parent in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
