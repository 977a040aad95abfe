"""Span tracer and self-time reducer for the traced benchmark run.

The package binds its cross-module calls with ``from .model import ...``, so
a wrapper placed only on the defining module would miss most calls.
``Tracer.install`` therefore replaces every module attribute that *is* the
original function, in every package module, and ``uninstall`` puts the
originals back.  Spans are kept in memory as
``[name, start, end, parent, run]`` and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

PACKAGE_MODULES = ("diamondqc", "diamondqc.model", "diamondqc.correlations",
                   "diamondqc.oracles", "diamondqc.sweep", "diamondqc.cli")

TRACED = (
    "model.thermal_state_exact",
    "model.boltzmann_elements",
    "model.bloch_decompose",
    "model.bell_diagonal_coeffs",
    "model.validate_constructions",
    "correlations.concurrence_wootters",
    "correlations.gmqd",
    "correlations.discord_parts",
    "oracles.minimize_conditional_entropy",
    "oracles.gmqd_variational",
    "oracles.gqd_1norm_variational",
    "sweep.evaluate_row",
    "sweep.find_threshold",
    "sweep.run_validate",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for name in TRACED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"diamondqc.{module}"), attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def reduce_spans(spans: list[list]) -> dict:
    """Per traced function: calls, total time and self time.

    Self time is a span's duration minus the durations of its direct
    children.  The traced code is single-threaded, so children never overlap
    and that difference is exactly the uncovered part of the interval.
    """
    child = [0.0] * len(spans)
    under_query = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            under_query[i] = under_query[parent] or spans[parent][0] == "sweep.find_threshold"
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
    evals = 0
    for i, (name, start, end, _, _) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
        if name == "model.thermal_state_exact" and under_query[i]:
            evals += 1
    metrics = {}
    for name, s in stats.items():
        for key, value in s.items():
            metrics[f"{name}.{key}"] = value
    queries = stats["sweep.find_threshold"]["calls"]
    metrics["sweep.find_threshold.evals_per_query"] = evals / queries if queries else 0.0
    return metrics
