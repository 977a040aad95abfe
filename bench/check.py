"""Output checks.  Every row, query or run that fails one counts toward
``error_rate`` (failed / attempted).

The checks recompute what they need through the package's public API, so
the harness must put ``src`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import numpy as np

from diamondqc import (
    ChainParams,
    boltzmann_elements,
    concurrence_closed_form,
    concurrence_wootters,
    discord_parts,
    gmqd,
    thermal_state_exact,
)

CSV_HEADER = "T,H,J,J2,Jm,concurrence,qd,classical_corr,mutual_info,gmqd,gqd1,theta,flags"
TEMP_FLOOR = 1e-3  # the CLI's default --temp-floor
EPS_DEAD = 1e-9  # ThresholdQuery defaults
TOL = 1e-4
# bell_diagonal_coeffs' default tolerance on the local Bloch vectors.  For
# the cluster state those are (0, 0, (u - v)/Z); the exact and closed-form
# constructions agree to 1e-12, so only a magnetization that close to the
# tolerance may go either way.
BELL_TOL = 1e-10
BELL_EDGE = 1e-12
MAX_NOTES = 5


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _axis_values(text: str) -> np.ndarray:
    if ":" in text:
        start, stop, steps = text.split(":")
        if int(steps) == 1:
            return np.array([float(start)])
        return np.linspace(float(start), float(stop), int(steps))
    return np.array([float(text)])


def expected_points(spec: dict):
    """(ChainParams, floored) in the CLI's grid order: T slowest, then H, J, J2, Jm."""
    axes = [_axis_values(spec[k]) for k in ("temp", "field", "j", "j2", "jm")]
    for t in axes[0]:
        floored = t <= 0.0
        for h in axes[1]:
            for j in axes[2]:
                for j2 in axes[3]:
                    for jm in axes[4]:
                        yield ChainParams(j=float(j), j2=float(j2), jm=float(jm), h=float(h),
                                          t=TEMP_FLOOR if floored else float(t)), floored


def _num(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _row_problem(fields: list[str], p: ChainParams, floored: bool, measures: set) -> str | None:
    if len(fields) != 13:
        return f"{len(fields)} fields"
    if fields[:5] != [_fmt(x) for x in (p.t, p.h, p.j, p.j2, p.jm)]:
        return f"grid point {fields[:5]} out of order"
    els = boltzmann_elements(p)
    # gqd1 is NA, flagged not_bell_diagonal, exactly when H != 0 and the
    # state is therefore not Bell diagonal.  At low T a small field can leave
    # the magnetization below the package's tolerance; the state is then
    # Bell diagonal to that tolerance and gqd1 is defined.
    magnetization = abs(els.u - els.v) / els.z
    bell = p.h == 0.0 or magnetization < BELL_TOL
    if p.h != 0.0 and abs(magnetization - BELL_TOL) <= BELL_EDGE:
        bell = fields[10] != "NA"
    present = {
        "concurrence": "concurrence" in measures,
        "qd": "qd" in measures,
        "classical_corr": "qd" in measures,
        "mutual_info": "qd" in measures,
        "gmqd": "gmqd" in measures,
        "gqd1": "gqd1" in measures and bell,
        "theta": True,
    }
    values = {}
    for name, text in zip(present, fields[5:12]):
        if not present[name]:
            if text != "NA":
                return f"{name} should be NA, got {text}"
            continue
        try:
            values[name] = _num(text)
        except ValueError:
            return f"{name} not a number: {text!r}"
    flags = [f for f in fields[12].split(";") if f]
    want = (["temp_floored"] if floored else []) + (
        ["not_bell_diagonal"] if "gqd1" in measures and not bell else [])
    if flags != want:
        return f"flags {flags}, expected {want}"
    if "concurrence" in values:
        c = values["concurrence"]
        if not 0.0 <= c <= 1.0:
            return f"concurrence {c} outside [0, 1]"
        closed = concurrence_closed_form(els)
        if abs(c - closed) > 1e-10:
            return f"concurrence {c} vs closed form {closed}"
    if "qd" in values:
        qd, cc, mi = values["qd"], values["classical_corr"], values["mutual_info"]
        if qd < -1e-9:
            return f"qd {qd} negative"
        if abs(mi - cc - qd) > 1e-9:
            return f"I - C - D = {mi - cc - qd}"
    if "gmqd" in values and values["gmqd"] < 0.0:
        return f"gmqd {values['gmqd']} negative"
    return None


def check_sweep(text: str, spec: dict) -> tuple[int, int, list[str]]:
    """Check one CSV sweep output against its spec.

    Returns (attempted, failed, notes): one attempt per expected row; a row
    that is missing, misplaced or fails a value check is one failure.
    """
    points = list(expected_points(spec))
    measures = set(spec["measures"].split(","))
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        return len(points), len(points), ["missing or wrong CSV header"]
    rows = lines[1:]
    failed = 0
    notes = []
    for i, (p, floored) in enumerate(points):
        problem = "missing row" if i >= len(rows) else _row_problem(
            rows[i].split(","), p, floored, measures)
        if problem:
            failed += 1
            if len(notes) < MAX_NOTES:
                notes.append(f"row {i + 1}: {problem}")
    extra = len(rows) - len(points)
    if extra > 0:
        failed += extra
        notes.append(f"{extra} unexpected extra rows")
    return len(points) + max(extra, 0), failed, notes


def self_test(text: str, spec: dict) -> tuple[bool, str]:
    """Corrupt one value and swap two rows of a real output; the checker must
    count both as failures."""
    _, base, _ = check_sweep(text, spec)
    lines = text.split("\n")
    k = len(lines) // 2
    fields = lines[k].split(",")
    try:
        c = float(fields[5])
    except (IndexError, ValueError):
        return False, f"no concurrence value in output line {k + 1} to corrupt"
    fields[5] = _fmt(c + 1e-6 if c < 0.5 else c - 1e-6)
    corrupted = lines.copy()
    corrupted[k] = ",".join(fields)
    swapped = lines.copy()
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    _, f_corrupt, _ = check_sweep("\n".join(corrupted), spec)
    _, f_swap, _ = check_sweep("\n".join(swapped), spec)
    ok = f_corrupt > base and f_swap > base
    return ok, (f"clean {base} failed, one corrupted value {f_corrupt} failed, "
                f"two swapped rows {f_swap} failed")


def measure_value(params: ChainParams, measure: str) -> float:
    rho = thermal_state_exact(params)
    if measure == "concurrence":
        return concurrence_wootters(rho)
    if measure == "qd":
        return discord_parts(rho).quantum_discord
    if measure == "gmqd":
        return gmqd(rho)
    raise ValueError(f"the benchmark makes no {measure!r} queries")


def check_query(query: dict, outcome: dict) -> str | None:
    """None when a threshold outcome is consistent with the measure itself.

    A located threshold must have the measure alive on one side and dead on
    the other; NoThreshold (alive at both bracket ends) and NoBracket (dead
    at both) are valid outcomes when the ends agree.
    """
    fixed = ChainParams(**{k: float(v) for k, v in query["fixed"].items()})
    key = "t" if query["scan"] == "T" else "h"
    lo, hi = float(query["lo"]), float(query["hi"])

    def alive(x: float) -> bool:
        return measure_value(fixed.replace(**{key: x}), query["measure"]) > EPS_DEAD

    kind = outcome["kind"]
    if kind == "found":
        x = outcome["location"]
        if not lo <= x <= hi:
            return f"threshold {x} outside bracket [{lo}, {hi}]"
        if alive(max(lo, x - TOL)) == alive(min(hi, x + TOL)):
            return f"measure has the same state on both sides of {x}"
        return None
    if kind == "no_threshold":
        return None if alive(lo) and alive(hi) else "NoThreshold but a bracket end is dead"
    if kind == "no_bracket":
        return None if not alive(lo) and not alive(hi) else "NoBracket but a bracket end is alive"
    return f"query raised {outcome.get('error')}"


def check_validate(returncode: int, stdout: str) -> str | None:
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    if returncode != 0 or last != "result: PASS":
        return f"validate exited {returncode}, last line {last!r}"
    return None
