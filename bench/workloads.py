"""Seeded input generators for the benchmark workloads.

The seed only feeds a ``numpy.random.Generator`` here; the program under test
sees nothing but the CLI arguments or ``find_threshold`` queries built from
it.  Parameters are rounded to four significant digits and carried as the
exact strings passed on the command line, so a recorded run can be replayed
by hand with the same bytes.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("field_scan_all", "grid_cheap", "thresholds", "validate")

# More inputs than one run can consume; a run takes a prefix of the list.
SWEEP_SPECS = 48
THRESHOLD_QUERIES = 2000

# (scan, measure, lo, hi).  Two queries in eight are discord queries, so the
# slow tail of the latency distribution is a quarter of the queries by
# construction and throughput does not depend on how many slow queries a seed
# happens to draw.  gmqd along T never dies (NoThreshold), and concurrence on
# a bracket past saturation is dead at both ends (NoBracket); both outcomes
# are valid and are checked like located thresholds.
QUERY_CYCLE = (
    ("T", "concurrence", "0.05", "3"),
    ("H", "concurrence", "0", "6"),
    ("H", "gmqd", "0", "6"),
    ("H", "qd", "0", "6"),
    ("T", "gmqd", "0.05", "3"),
    ("H", "concurrence", "4.5", "6"),
    ("T", "concurrence", "0.05", "3"),
    ("H", "qd", "0", "6"),
)


def _num(x: float) -> str:
    return f"{x:.4g}"


def _axis(lo: float, hi: float, steps: int) -> str:
    return f"{_num(lo)}:{_num(hi)}:{steps}"


def _field_scan_spec(rng) -> dict:
    # The paper's main figure: every measure over an H x T grid that starts
    # on the H = 0 plane (Bell-diagonal branch) and at low temperature.
    j2 = rng.uniform(0.6, 1.4)
    return {
        "j": _num(rng.uniform(0.2, 1.2)),
        "j2": _num(j2),
        "jm": _num(rng.uniform(0.0, 0.6)),
        "field": _axis(0.0, rng.uniform(2.5, 4.0), 17),
        "temp": _axis(rng.uniform(0.02, 0.08), rng.uniform(0.8, 1.6), 6),
        "measures": "concurrence,qd,gmqd,gqd1",
    }


def _grid_cheap_spec(rng) -> dict:
    # No discord search.  The field axis is 0 plus two nonzero values, so
    # both the Bell-diagonal and the not-Bell-diagonal branch run.
    return {
        "j": _axis(rng.uniform(-2.0, -0.5), rng.uniform(0.5, 2.0), 21),
        "j2": _num(rng.uniform(0.5, 1.5)),
        "jm": _num(rng.uniform(0.0, 1.0)),
        "field": _axis(0.0, rng.uniform(0.5, 3.0), 3),
        "temp": _axis(rng.uniform(0.02, 0.1), rng.uniform(1.0, 3.0), 10),
        "measures": "concurrence,gmqd,gqd1",
    }


def sweep_argv(spec: dict) -> list[str]:
    """The ``diamondqc`` arguments of one sweep invocation (workers excluded)."""
    argv = ["sweep"]
    for key in ("j", "j2", "jm", "field", "temp", "measures"):
        argv.append(f"--{key}={spec[key]}")
    return argv


def _threshold_query(rng, i: int) -> dict:
    scan, measure, lo, hi = QUERY_CYCLE[i % len(QUERY_CYCLE)]
    # J < J2 keeps the entangled dimer ground state at H = 0, so the measure
    # is alive at the low end of each bracket and dies past saturation.
    j2 = rng.uniform(0.6, 1.4)
    fixed = {
        "j": _num(rng.uniform(0.0, 0.8) * j2),
        "j2": _num(j2),
        "jm": _num(rng.uniform(0.0, 0.5)),
        "h": "0",
        "t": "1",
    }
    if scan == "T":
        fixed["h"] = _num(rng.uniform(0.0, 0.3))
    else:
        fixed["t"] = _num(rng.uniform(0.02, 0.08))
    return {"scan": scan, "lo": lo, "hi": hi, "measure": measure, "fixed": fixed}


def generate(workload: str, seed: int) -> dict:
    """All inputs of one run of ``workload``; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    if workload == "field_scan_all":
        return {"specs": [_field_scan_spec(rng) for _ in range(SWEEP_SPECS)]}
    if workload == "grid_cheap":
        return {"specs": [_grid_cheap_spec(rng) for _ in range(SWEEP_SPECS)]}
    if workload == "thresholds":
        return {"queries": [_threshold_query(rng, i) for i in range(THRESHOLD_QUERIES)]}
    if workload == "validate":
        # Seedless by design: the default invariant grid.
        return {"argv": ["validate"]}
    raise ValueError(f"unknown workload {workload!r}")
