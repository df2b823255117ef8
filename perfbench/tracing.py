"""Span tracing of taitkit's public functions, installed from outside.

``Tracer.install`` replaces each public function of the traced modules, at
every ``taitkit`` module that holds a reference to it, with a wrapper that
records a span: layer, start, end, parent span and the benchmark item that
was running.  ``SymmetricIntForm.determinant`` is wrapped on its class.
Spans stay in memory until ``write_spans``; ``restore`` puts every original
binding back.

Functions map to layers through ``layers.json``: several functions may share
a layer (``signature`` and ``definiteness`` are one layer).  A layer's self
time is the time of its spans minus the time of their child spans; its calls
are its outermost spans, so a layer that calls itself counts once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

TRACED_MODULES = ("diagram", "goeritz", "flype", "orbit", "codecs", "cli")
LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


def load_layers(path: Path = LAYERS_FILE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["layers"]


def function_layers(layers: dict) -> dict[str, str]:
    """``module.function`` (or ``module.Class.method``) -> layer name."""
    return {fn: layer for layer, spec in layers.items() for fn in spec["functions"]}


class Tracer:
    def __init__(self, layers: dict):
        self.layer_of = function_layers(layers)
        self.layer_names = list(layers)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self.form_dim_max = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _targets(self) -> tuple[dict[int, tuple[str, object]], list[type]]:
        """id(original) -> (qualified name, original) for every traced
        function and method, and the classes whose methods are traced."""
        targets = {}
        classes = []
        for short in TRACED_MODULES:
            module = importlib.import_module(f"taitkit.{short}")
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                targets[id(obj)] = (f"{short}.{name}", obj)
        for qual in self.layer_of:
            parts = qual.split(".")
            if len(parts) == 3:
                cls = getattr(importlib.import_module(f"taitkit.{parts[0]}"), parts[1])
                obj = vars(cls)[parts[2]]
                targets[id(obj)] = (qual, obj)
                classes.append(cls)
        missing = set(self.layer_of) - {q for q, _ in targets.values()}
        if missing:
            raise LookupError(f"layers.json names functions taitkit lacks: {sorted(missing)}")
        unmapped = sorted(q for q, _ in targets.values() if q not in self.layer_of)
        if unmapped:
            raise LookupError(f"public functions without a layer in layers.json: {unmapped}")
        return targets, classes

    def install(self) -> None:
        targets, classes = self._targets()
        wrappers = {key: self._wrap(qual, fn) for key, (qual, fn) in targets.items()}
        holders = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "taitkit" or name.startswith("taitkit."))]
        try:
            for holder in holders + classes:
                for attr, value in list(vars(holder).items()):
                    if id(value) in wrappers and value is targets[id(value)][1]:
                        self._saved.append((holder, attr, value))
                        setattr(holder, attr, wrappers[id(value)])
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._saved:
            holder, attr, value = self._saved.pop()
            setattr(holder, attr, value)

    def _wrap(self, qual: str, fn):
        layer = self.layer_of[qual]
        spans, stack, counts = self.spans, self.stack, self.counts
        observe = {
            "goeritz.goeritz_matrix": self._observe_form,
            "flype.find_flype_sites": self._observe_sites,
            "orbit.flype_orbit": self._observe_orbit,
        }.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counts[f"{qual}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.item)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _observe_form(self, form) -> None:
        self.form_dim_max = max(self.form_dim_max, form.dim)

    def _observe_sites(self, sites) -> None:
        self.counts["flype.sites"] += len(sites)

    def _observe_orbit(self, report) -> None:
        self.counts["orbit.members"] += len(report.members)
        self.counts["orbit.edges"] += len(report.edges)
        self.counts["orbit.self_loops"] += sum(1 for a, b, _ in report.edges if a == b)

    # -- results -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Write the spans as ``[layer, start, end, parent, item]`` rows."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layer_names, "spans": self.spans}, fh)


def layer_times(spans: list[tuple], item: int | None = None) -> dict[str, dict[str, float]]:
    """Per layer: ``self_s``, ``calls`` (outermost spans) and ``inclusive_s``
    (time of the outermost spans); only spans of ``item`` when given."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "inclusive_s": 0.0})
    for i, (layer, start, end, parent, span_item) in enumerate(spans):
        if item is not None and span_item != item:
            continue
        entry = out[layer]
        entry["self_s"] += (end - start) - child_time[i]
        if _outermost(spans, i):
            entry["calls"] += 1
            entry["inclusive_s"] += end - start
    return out


def _outermost(spans: list[tuple], i: int) -> bool:
    layer = spans[i][0]
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == layer:
            return False
        parent = spans[parent][3]
    return True


def root_time(spans: list[tuple]) -> float:
    """Time covered by spans without a parent."""
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)
