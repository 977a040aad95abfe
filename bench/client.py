"""Child process of the benchmark; runs with ``src`` on ``PYTHONPATH``.

    python3 bench/client.py queries INPUT.json
        Closed loop of ``find_threshold`` calls through the library, untraced.
    python3 bench/client.py trace INPUT.json
        In-process run of the workload's operations, each once untraced and
        once traced; prints per-layer metrics and writes the spans.

INPUT.json is written by ``run.py``.  The result is one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from time import perf_counter

from diamondqc import ChainParams, NoBracket, ThresholdQuery

from spans import Tracer, reduce_spans


def run_query(query: dict) -> dict:
    fixed = ChainParams(**{k: float(v) for k, v in query["fixed"].items()})
    q = ThresholdQuery(scan=query["scan"], lo=float(query["lo"]), hi=float(query["hi"]),
                       measure=query["measure"])
    # find_threshold is looked up at call time so the tracer's wrapper is used.
    find_threshold = importlib.import_module("diamondqc.sweep").find_threshold
    try:
        result = find_threshold(q, fixed)
    except NoBracket:
        return {"kind": "no_bracket"}
    except Exception as exc:  # recorded and counted as a failed query
        return {"kind": "error", "error": repr(exc)}
    if result.found:
        return {"kind": "found", "location": result.location}
    return {"kind": "no_threshold"}


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = importlib.import_module("diamondqc.cli").main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def queries(cfg: dict) -> dict:
    """Closed loop from ``offset`` until the budget is spent.  Each result
    carries its perf_counter start and end, which share a clock with the
    parent process."""
    results = []
    t0 = perf_counter()
    for i in range(cfg["offset"], len(cfg["queries"])):
        if results and perf_counter() - t0 >= cfg["budget_s"]:
            break
        start = perf_counter()
        outcome = run_query(cfg["queries"][i])
        outcome.update(i=i, start=start, end=perf_counter())
        results.append(outcome)
    return {"results": results}


def trace(cfg: dict) -> dict:
    """Alternate untraced and traced runs of each operation until the budget
    is spent; trace_overhead is the ratio of their summed wall times."""
    run_op = run_query if cfg["kind"] == "query" else run_cli
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    outcomes = []
    t0 = perf_counter()
    for k, op in enumerate(cfg["ops"]):
        if outcomes and perf_counter() - t0 >= cfg["budget_s"]:
            break
        untraced_op, traced_op = op if cfg["kind"] == "cli" else (op, op)
        # Alternate which run goes first, so warm-up favours neither side.
        runs = [(False, untraced_op), (True, traced_op)]
        if k % 2:
            runs.reverse()
        for is_traced, arg in runs:
            if is_traced:
                tracer.run = k
                tracer.install()
            try:
                start = perf_counter()
                outcome = run_op(arg)
                elapsed = perf_counter() - start
            finally:
                tracer.uninstall()
            if is_traced:
                traced_s += elapsed
                outcomes.append(outcome)
            else:
                untraced_s += elapsed
    tracer.write(cfg["spans_path"])
    metrics = reduce_spans(tracer.spans)
    metrics["trace_overhead"] = traced_s / untraced_s
    return {"metrics": metrics, "outcomes": outcomes}


def main(argv: list[str]) -> int:
    mode, path = argv
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    result = queries(cfg) if mode == "queries" else trace(cfg)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
