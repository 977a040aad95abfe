import concurrent.futures
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import pytest

import diamondqc.sweep as sweep_module
from diamondqc import (
    AxisRange,
    ChainParams,
    DiamondQCError,
    GridTooLarge,
    NoBracket,
    SweepSpec,
    ThresholdQuery,
    ThresholdResult,
    find_threshold,
    run_sweep,
    run_validate,
    sweep_points,
)
from diamondqc.cli import CSV_HEADER, main, parse_axis
from diamondqc.correlations import concurrence_wootters, discord_parts, gmqd, gqd_1norm_bell
from diamondqc.errors import TemperatureTooLow
from diamondqc.model import bell_diagonal_coeffs
from conftest import point

DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).parent.parent / "src"
# Golden sweeps generated at commit f569772, before the evaluator refactor:
# both gqd1 branches, temp_floored rows, and (JSONL) the verbatim v flag.
GOLDEN_GRID = ["--j=-1:1:3", "--j2", "1", "--jm", "0.3", "--field=0:2:3",
               "--temp=0:1:3"]
GOLDEN_SWEEPS = [
    ("golden_sweep_all.csv", []),
    ("golden_sweep_cheap.jsonl", ["--measures", "concurrence,gmqd,gqd1",
                                  "--format", "jsonl", "--use-verbatim-v"]),
]


def scalar_threshold(query, fixed):
    """Reference bisection: one thermal state and one measure per step."""
    key = "t" if query.scan == "T" else "h"

    def value(x):
        # looked up at call time, so a patch on the sweep module applies here too
        rho = sweep_module.thermal_state_exact(fixed.replace(**{key: x}))
        if query.measure == "concurrence":
            return concurrence_wootters(rho)
        if query.measure == "qd":
            return discord_parts(rho).quantum_discord
        if query.measure == "gmqd":
            return gmqd(rho)
        return gqd_1norm_bell(bell_diagonal_coeffs(rho))

    alive_lo = value(query.lo) > query.eps_dead
    alive_hi = value(query.hi) > query.eps_dead
    if alive_lo and alive_hi:
        return ThresholdResult(found=False, location=None,
                               reason="measure exceeds eps_dead across the whole bracket")
    if not alive_lo and not alive_hi:
        raise NoBracket(
            f"{query.measure} is below eps_dead={query.eps_dead} at both bracket ends")
    lo, hi = query.lo, query.hi
    while hi - lo > query.tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if (value(mid) > query.eps_dead) == alive_lo:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(found=True, location=0.5 * (lo + hi))


def threshold_outcome(finder, query, fixed):
    """The result, or the type and message of the domain error raised."""
    try:
        return finder(query, fixed)
    except DiamondQCError as exc:
        return type(exc), str(exc)


class TestAxes:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            AxisRange(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            AxisRange(0.0, 1.0, 0)

    def test_parse_axis_forms(self):
        assert parse_axis("1.5", "--j").values().tolist() == [1.5]
        rng = parse_axis("0:2:5", "--j")
        assert rng.values().tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_grid_cap(self):
        with pytest.raises(GridTooLarge):
            SweepSpec(t=AxisRange(0.1, 1, 100), h=AxisRange(-1, 1, 100),
                      j=AxisRange.fixed(1), j2=AxisRange.fixed(1),
                      jm=AxisRange.fixed(0), grid_cap=100)


class TestSweep:
    def _spec(self, **kw):
        base = dict(t=AxisRange.fixed(0.5), h=AxisRange.fixed(0.0),
                    j=AxisRange.fixed(1.0), j2=AxisRange.fixed(1.0),
                    jm=AxisRange.fixed(0.0))
        base.update(kw)
        return SweepSpec(**base)

    def test_lexicographic_order_and_count(self):
        spec = self._spec(t=AxisRange(0.2, 0.4, 2), h=AxisRange(-1.0, 1.0, 3))
        pts = [p for p, _ in sweep_points(spec)]
        assert len(pts) == spec.total_points == 6
        assert [(p.t, p.h) for p in pts] == [
            (0.2, -1.0), (0.2, 0.0), (0.2, 1.0),
            (0.4, -1.0), (0.4, 0.0), (0.4, 1.0)]

    def test_rows_skip_unrequested_measures(self):
        spec = self._spec(measures=("concurrence",))
        ((row,),) = list(run_sweep(spec))
        assert row.concurrence is not None
        assert row.qd is None and row.gmqd is None and row.gqd1 is None

    def test_temperature_flooring(self):
        spec = self._spec(t=AxisRange(0.0, 0.0, 1))
        ((row,),) = list(run_sweep(spec, temp_floor=1e-3))
        assert row.params.t == 1e-3
        assert "temp_floored" in row.flags

    def test_two_plateau_structure_with_jm(self):
        # J = J2 with moderate Jm: entangled plateaus at C = 1 and C = 1/2
        spec = self._spec(t=AxisRange.fixed(1e-3), h=AxisRange(0.0, 3.0, 31),
                          j=AxisRange.fixed(2.0), j2=AxisRange.fixed(2.0),
                          jm=AxisRange.fixed(1.5), measures=("concurrence",))
        cs = [row.concurrence for chunk in run_sweep(spec) for row in chunk]
        assert any(abs(c - 1.0) < 1e-3 for c in cs)
        assert any(abs(c - 0.5) < 1e-3 for c in cs)
        assert any(c < 1e-9 for c in cs)  # beyond the second transition

    def test_pool_keeps_a_bounded_window_of_points(self, monkeypatch):
        consumed = 0
        all_points = sweep_module.sweep_points

        def counting_points(*args):
            nonlocal consumed
            for item in all_points(*args):
                consumed += 1
                yield item

        monkeypatch.setattr(sweep_module, "sweep_points", counting_points)
        spec = self._spec(h=AxisRange(0.0, 1.0, 1000), measures=("concurrence",))
        rows = run_sweep(spec, workers=2)
        try:
            next(rows)
            # the initial window plus the one chunk submitted as it was drained
            window = sweep_module._CHUNK * (sweep_module._CHUNKS_PER_WORKER * 2 + 1)
            assert consumed <= window < spec.total_points
        finally:
            rows.close()

    @pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
    def test_worker_count_rejected_at_the_call(self, monkeypatch, workers):
        built = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *args, **kwargs: built.append("pool"))
        monkeypatch.setattr(sweep_module, "sweep_points", lambda *args: built.append("points"))
        # raised by the call itself: the iterator is never advanced
        with pytest.raises(ValueError, match="workers"):
            run_sweep(self._spec(), workers=workers)
        assert built == []

    def test_closing_the_sweep_cancels_queued_chunks(self, monkeypatch):
        submitted = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(super().submit(*args, **kwargs))
                return submitted[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # all measures: each chunk takes long enough that most of the window
        # is still queued when the consumer stops after the first row
        rows = run_sweep(self._spec(h=AxisRange(0.0, 1.0, 1000)), workers=2)
        next(rows)
        rows.close()
        assert len(submitted) == sweep_module._CHUNKS_PER_WORKER * 2 + 1
        assert all(future.done() for future in submitted)
        assert any(future.cancelled() for future in submitted)


class TestThreshold:
    def test_entanglement_death_temperature(self):
        # exact death at T* = 1/ln(2 + sqrt(5)) where |y| = sqrt(u v)
        q = ThresholdQuery(scan="T", lo=0.1, hi=5.0, measure="concurrence")
        res = find_threshold(q, point(j=1.0, j2=1.0))
        t_star = 1.0 / math.log(2.0 + math.sqrt(5.0))
        assert res.found
        assert res.location == pytest.approx(t_star, abs=2e-4)

    def test_saturation_field_at_cold_temperature(self):
        # ground-state crossing at |H| = j + j2; past it C ~ exp(-(H - 2)/T),
        # so the dead level is crossed T ln(1/eps_dead) = 0.0021 above it
        q = ThresholdQuery(scan="H", lo=0.5, hi=3.0, measure="concurrence")
        t = 1e-4
        res = find_threshold(q, point(j=1.0, j2=1.0, t=t))
        offset = t * math.log(1.0 / q.eps_dead)
        assert res.location - offset == pytest.approx(2.0, abs=5e-3)

    def test_critical_field_with_jm_at_cold_temperature(self):
        # crossing at 2 j2 - 2 j + jm; past it C ~ 2 exp(-(H - 0.5)/2T), so
        # the dead level is crossed 2T ln(2/eps_dead) = 0.0043 above it
        q = ThresholdQuery(scan="H", lo=0.1, hi=2.0, measure="concurrence")
        t = 1e-4
        res = find_threshold(q, ChainParams(2.0, 1.0, 2.5, 0.0, t))
        offset = 2.0 * t * math.log(2.0 / q.eps_dead)
        assert res.location - offset == pytest.approx(0.5, abs=5e-3)

    def test_discord_never_dies(self):
        q = ThresholdQuery(scan="T", lo=0.1, hi=10.0, measure="qd")
        res = find_threshold(q, point(j=1.0, j2=1.0))
        assert not res.found and res.location is None

    def test_revival_boundary_scans_dead_to_alive(self):
        # trace-norm discord for j > j2 is dead at T -> 0 and revives with
        # temperature; the bracket crosses in the dead-to-alive direction
        q = ThresholdQuery(scan="T", lo=0.01, hi=0.5, measure="gqd1")
        res = find_threshold(q, point(j=1.5, j2=1.0))
        assert res.found
        assert 0.01 < res.location < 0.05

    def test_no_bracket_when_both_ends_dead(self):
        q = ThresholdQuery(scan="H", lo=2.5, hi=3.0, measure="concurrence")
        with pytest.raises(NoBracket):
            find_threshold(q, point(j=1.0, j2=1.0, t=1e-4))

    def test_tolerance_halving_is_consistent(self):
        base = ThresholdQuery(scan="T", lo=0.1, hi=5.0, measure="concurrence")
        fine = ThresholdQuery(scan="T", lo=0.1, hi=5.0, measure="concurrence", tol=5e-5)
        loc_base = find_threshold(base, point(j=1.0, j2=1.0)).location
        loc_fine = find_threshold(fine, point(j=1.0, j2=1.0)).location
        assert abs(loc_base - loc_fine) <= 1e-4

    def test_tolerance_below_float_spacing_still_stops(self):
        # bisection ends once lo and hi are adjacent floats; the dead level
        # C = eps_dead lies about 2e-9 below the death temperature
        q = ThresholdQuery(scan="T", lo=0.1, hi=5.0, measure="concurrence", tol=1e-300)
        res = find_threshold(q, point(j=1.0, j2=1.0))
        assert res.found
        assert res.location == pytest.approx(1.0 / math.log(2.0 + math.sqrt(5.0)), abs=1e-8)

    @pytest.mark.parametrize("query,fixed", [
        (ThresholdQuery(scan="H", lo=0.0, hi=6.0, measure="qd"), point(j=0.5, t=0.05)),
        (ThresholdQuery(scan="T", lo=0.1, hi=10.0, measure="qd"), point(j=1.0, j2=1.0)),
        (ThresholdQuery(scan="H", lo=5.0, hi=6.0, measure="qd"), point(j=0.5, t=0.05)),
        # 2.5 tol wide: the first batch is a subtree of 3 midpoints, not 7
        (ThresholdQuery(scan="H", lo=2.536, hi=2.53625, measure="qd"), point(j=0.5, t=0.05)),
        (ThresholdQuery(scan="H", lo=0.0, hi=6.0, measure="qd", tol=1e-300),
         point(j=0.5, t=0.05)),
        (ThresholdQuery(scan="T", lo=0.1, hi=5.0, measure="concurrence"), point(j=1.0, j2=1.0)),
        (ThresholdQuery(scan="H", lo=0.0, hi=6.0, measure="gmqd"), point(j=0.5, t=0.05)),
        (ThresholdQuery(scan="T", lo=0.01, hi=0.5, measure="gqd1"), point(j=1.5, j2=1.0)),
    ], ids=["qd-h-found", "qd-t-no-threshold", "qd-no-bracket", "qd-partial-subtree",
            "qd-adjacent-floats", "concurrence", "gmqd", "gqd1"])
    def test_batched_walk_matches_scalar_bisection(self, query, fixed):
        expected = threshold_outcome(scalar_threshold, query, fixed)
        assert threshold_outcome(find_threshold, query, fixed) == expected

    @pytest.mark.parametrize("where", ["off-walk", "on-walk", "bracket-end"])
    def test_batch_error_escapes_only_where_the_walk_goes(self, monkeypatch, where):
        q = ThresholdQuery(scan="H", lo=0.0, hi=6.0, measure="qd")
        fixed = point(j=0.5, t=0.05)
        state = sweep_module.thermal_state_exact
        asked = []

        def recording(params):
            asked.append(params.h)
            return state(params)

        monkeypatch.setattr(sweep_module, "thermal_state_exact", recording)
        clean = scalar_threshold(q, fixed)
        walked = set(asked)
        # the second level of the first batch: the walk takes one of them
        second = [0.5 * (q.lo + 3.0), 0.5 * (3.0 + q.hi)]
        bad = {"off-walk": next(h for h in second if h not in walked),
               "on-walk": next(h for h in second if h in walked),
               "bracket-end": q.hi}[where]

        def failing(params):
            asked.append(params.h)
            if params.h == bad:
                raise TemperatureTooLow(f"injected at h={params.h}")
            return state(params)

        monkeypatch.setattr(sweep_module, "thermal_state_exact", failing)
        expected = threshold_outcome(scalar_threshold, q, fixed)
        asked.clear()
        assert threshold_outcome(find_threshold, q, fixed) == expected
        assert bad in asked
        if where == "off-walk":
            assert expected == clean
        else:
            assert expected == (TemperatureTooLow, f"injected at h={bad}")

    def test_thresholds_match_golden(self):
        # the first 24 seed-1 queries of the benchmark's thresholds workload,
        # with their outcomes from the one-midpoint-per-step bisection
        cases = json.loads((DATA / "golden_thresholds.json").read_text())
        assert sum(case["measure"] == "qd" for case in cases) == 6
        for case in cases:
            fixed = ChainParams(**{k: float(v) for k, v in case["fixed"].items()})
            q = ThresholdQuery(scan=case["scan"], lo=float(case["lo"]),
                               hi=float(case["hi"]), measure=case["measure"])
            outcome = case["outcome"]
            if outcome["kind"] == "no_bracket":
                with pytest.raises(NoBracket) as exc:
                    find_threshold(q, fixed)
                assert str(exc.value) == outcome["error"]
                continue
            res = find_threshold(q, fixed)
            if outcome["kind"] == "found":
                assert res.found and res.location.hex() == outcome["location"]
            else:
                assert not res.found and res.reason == outcome["reason"]

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ThresholdQuery(scan="J", lo=0.0, hi=1.0, measure="concurrence")
        with pytest.raises(ValueError):
            ThresholdQuery(scan="T", lo=1.0, hi=0.5, measure="concurrence")
        with pytest.raises(ValueError):
            ThresholdQuery(scan="H", lo=0.0, hi=math.inf, measure="concurrence")
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ThresholdQuery(scan="H", lo=0.0, hi=1.0, measure="concurrence", tol=tol)
        for eps_dead in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ThresholdQuery(scan="H", lo=0.0, hi=1.0, measure="concurrence",
                               eps_dead=eps_dead)
        ThresholdQuery(scan="H", lo=0.0, hi=1.0, measure="concurrence", eps_dead=0.0)


class TestValidateHarness:
    def test_small_run_passes_with_documented_deviations(self):
        summary = run_validate(points=12, oracle_points=4, onenorm_points=2)
        assert summary.exit_code == 0
        assert any("verbatim v" in d for d in summary.deviations)
        text = summary.render()
        assert "result: PASS" in text

    def test_verbatim_selection_reports_warning_not_failure(self):
        summary = run_validate(points=8, oracle_points=2, onenorm_points=1,
                               use_verbatim_v=True)
        assert summary.exit_code == 0
        assert any("expected" in d for d in summary.deviations)

    def test_grid_cap_one_trivially_passes(self):
        summary = run_validate(points=0, oracle_points=1, onenorm_points=1)
        assert summary.exit_code == 0
        assert summary.points_used == 1

    @pytest.mark.parametrize("points,used", [(12, 13), (3, 4), (0, 1)])
    def test_builds_only_the_lattice_points_it_keeps(self, monkeypatch, points, used):
        asked = []
        lattice = sweep_module.validation_lattice

        def recording_lattice(n):
            asked.append(n)
            return lattice(min(n, 12))  # a regression fails on `asked`, not on memory

        monkeypatch.setattr(sweep_module, "validation_lattice", recording_lattice)
        summary = run_validate(points=points, oracle_points=1, onenorm_points=1)
        assert asked == [points]
        assert summary.points_used == used

    @pytest.mark.parametrize("points", [sweep_module.DEFAULT_GRID_CAP, 10**9])
    def test_validate_rejects_points_at_the_grid_cap(self, capsys, monkeypatch, points):
        asked = []
        monkeypatch.setattr(sweep_module, "validation_lattice",
                            lambda n: asked.append(n) or [])
        assert main(["validate", "--points", str(points)]) == 2
        assert "--points" in capsys.readouterr().err
        assert asked == []

    def test_check_names_and_order(self):
        summary = run_validate(points=8, oracle_points=2, onenorm_points=1)
        assert [c.name for c in summary.checks] == [
            "closed-form (corrected v) vs exact construction",
            "verbatim v agrees at j = 0",
            "concurrence: spin-flip spectrum vs closed form",
            "Pauli reconstruction of the exact state",
            "field-free Bell structure (c1 = c2)",
            "Heisenberg-spin swap symmetry",
            "j sign symmetry of the field-free state",
            "geometric discord: closed form vs variational",
            "conditional entropy: axial θ search vs 2-D oracle",
            "additivity I = C + D",
            "discord non-negativity",
            "shortcut conditional entropy >= searched minimum",
            "trace-norm discord: Bell-diagonal median vs variational",
        ]


class TestCli:
    def test_point_table(self, capsys):
        assert main(["point", "--j", "1", "--j2", "1", "--jm", "0",
                     "--field", "0", "--temp", "0.5"]) == 0
        out = capsys.readouterr().out
        for name in ("concurrence", "quantum discord", "classical correlation",
                     "mutual information", "geometric discord"):
            assert name in out

    def test_point_zero_temperature_errors(self, capsys):
        assert main(["point", "--temp", "0"]) == 3
        assert "temp-floor" in capsys.readouterr().err

    def test_point_zero_temperature_with_floor(self, capsys):
        assert main(["point", "--temp", "0", "--temp-floor", "1e-3",
                     "--j", "1", "--j2", "1"]) == 0
        assert "temp_floored" in capsys.readouterr().out

    def test_point_no_exchange_all_measures_vanish(self, capsys):
        assert main(["point", "--j", "1", "--j2", "0", "--field", "0.3",
                     "--temp", "0.5", "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        row = dict(zip(CSV_HEADER.split(","), out[1].split(",")))
        for key in ("concurrence", "qd", "gmqd"):
            assert abs(float(row[key])) < 1e-8
        # diagonal but u != v at nonzero field: not Bell diagonal, so NA
        assert row["gqd1"] == "NA"

    def test_sweep_csv_schema_and_na(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--j", "1", "--j2", "1", "--jm", "0",
                     "--field", "0:1:3", "--temp", "0.5",
                     "--measures", "concurrence,gqd1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[1].split(",")[10] != "NA"       # H = 0 row has gqd1
        assert lines[2].split(",")[10] == "NA"       # H = 0.5 row does not
        assert "not_bell_diagonal" in lines[2]

    def test_sweep_deterministic_output(self, tmp_path):
        args = ["sweep", "--j", "0.5:1.5:3", "--j2", "1", "--jm", "0",
                "--field", "0", "--temp", "0.3:0.9:3",
                "--measures", "concurrence,gmqd"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_workers_match_serial(self, tmp_path):
        args = ["sweep", "--j", "1", "--j2", "1", "--jm", "0",
                "--field", "0:1:4", "--temp", "0.5",
                "--measures", "concurrence"]
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--out", str(parallel), "--workers", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_grid_cap_exceeded(self, capsys):
        assert main(["sweep", "--field", "0:1:101", "--temp", "0.1:1:101",
                     "--grid-cap", "100"]) == 3
        assert "grid" in capsys.readouterr().err.lower()

    def test_sweep_jsonl(self, capsys):
        assert main(["sweep", "--j", "1", "--j2", "1", "--jm", "0",
                     "--field", "0", "--temp", "0.5", "--format", "jsonl",
                     "--measures", "concurrence"]) == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert set(row) == set(CSV_HEADER.split(","))
        assert row["gqd1"] is None

    @pytest.mark.parametrize("args", [
        ["--j", "1", "--j2", "1", "--jm", "0", "--field", "0.2", "--temp", "0.5"],
        # floored and not Bell diagonal: both flags, in the same order
        ["--temp", "0", "--temp-floor", "1e-3", "--field", "0.3", "--j", "1", "--j2", "1"],
        # zero field: the Bell-diagonal gqd1 branch
        ["--j", "0.7", "--j2", "1", "--jm", "0.3", "--field", "0", "--temp", "0.5"],
    ], ids=["field", "floored-field", "zero-field"])
    def test_single_point_sweep_matches_point(self, capsys, args):
        assert main(["point", *args, "--format", "csv"]) == 0
        point_lines = capsys.readouterr().out.splitlines()
        assert main(["sweep", *args]) == 0
        sweep_lines = capsys.readouterr().out.splitlines()
        assert point_lines == sweep_lines

    def test_threshold_cli(self, capsys):
        assert main(["threshold", "--scan", "T", "--bracket", "0.1:5",
                     "--measure", "concurrence", "--j", "1", "--j2", "1",
                     "--jm", "0", "--field", "0", "--temp", "1"]) == 0
        out = capsys.readouterr().out
        assert "threshold concurrence vs T" in out
        assert float(out.split(":")[-1]) == pytest.approx(0.6927, abs=1e-3)

    def test_threshold_cli_no_threshold(self, capsys):
        assert main(["threshold", "--scan", "T", "--bracket", "0.1:10",
                     "--measure", "qd", "--j", "1", "--j2", "1",
                     "--jm", "0", "--field", "0", "--temp", "1"]) == 0
        assert "NoThreshold" in capsys.readouterr().out

    @pytest.mark.parametrize("temp", ["0", "-2", "7"])
    def test_threshold_scan_t_ignores_temp(self, capsys, temp):
        args = ["threshold", "--scan", "T", "--bracket", "0.05:3", "--j", "1", "--j2", "1"]
        assert main([*args, "--temp", "1"]) == 0
        expected = capsys.readouterr()
        assert main([*args, f"--temp={temp}"]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("temp", ["0", "-2"])
    def test_threshold_scan_h_rejects_nonpositive_temp(self, capsys, temp):
        # threshold has no --temp-floor, so the message must not name it
        assert main(["threshold", "--scan", "H", "--bracket", "0:3", "--j", "1",
                     "--j2", "1", f"--temp={temp}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: requested T <= 0; --temp must be > 0 "
                                "unless T is scanned (--scan T)\n")

    def test_validate_stdout_matches_golden(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == (DATA / "golden_validate.txt").read_bytes()

    def test_validate_cli_cap_one(self, capsys):
        assert main(["validate", "--points", "0"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_validate_cli_verbatim_variant_warns(self, capsys):
        assert main(["validate", "--points", "5", "--use-verbatim-v"]) == 0
        out = capsys.readouterr().out
        assert "documented deviations" in out
        assert "expected" in out

    def test_point_jsonl(self, capsys):
        assert main(["point", "--j", "1", "--j2", "1", "--jm", "0",
                     "--field", "0.4", "--temp", "0.5", "--format", "jsonl"]) == 0
        row = json.loads(capsys.readouterr().out.strip())
        assert row["gqd1"] is None
        assert "not_bell_diagonal" in row["flags"]

    def test_wide_sweep_has_no_nan(self, tmp_path):
        out = tmp_path / "wide.csv"
        assert main(["sweep", "--j=-2:2:3", "--j2", "1", "--jm", "0:3:2",
                     "--field=-4:4:3", "--temp", "0.05:5:3",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "nan" not in text.lower()
        assert len(text.splitlines()) == 1 + 3 * 2 * 3 * 3

    @pytest.mark.parametrize("argv,code,message,stdout_lines", [
        (["sweep", "--field", "not-a-number"], 2, "usage error", 0),
        (["sweep", "--no-such-flag"], 2, "unrecognized arguments", 0),
        (["point", "--temp", "nan"], 2, "usage error", 0),
        (["point", "--field", "inf"], 2, "usage error", 0),
        (["sweep", "--temp", "nan"], 2, "usage error", 0),
        (["sweep", "--temp=1:0:3"], 2, "usage error", 0),
        (["sweep", "--temp=-1:1:3", "--temp-floor", "0"], 3, "temp-floor", 0),
        (["sweep", "--temp=-1:1:3", "--temp-floor", "nan"], 3, "temp-floor", 0),
        (["point", "--temp", "0", "--temp-floor", "inf"], 3, "temp-floor", 0),
        (["threshold", "--scan", "H", "--bracket", "0:nan"], 2, "usage error", 0),
        (["threshold", "--scan", "H", "--bracket", "0:inf"], 2, "usage error", 0),
        (["threshold", "--scan", "H", "--bracket", "3:1"], 2, "usage error", 0),
        (["threshold", "--scan", "H", "--bracket", "0:1:2"], 2, "usage error", 0),
        (["threshold", "--scan", "H", "--bracket", "a:b"], 2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--tol", "0"], 2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--tol=-1"], 2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--tol", "nan"], 2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--j", "1", "--eps-dead=-1"],
         2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--eps-dead", "nan"],
         2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--eps-dead", "inf"],
         2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--temp", "abc"],
         2, "usage error", 0),
        (["threshold", "--scan", "T", "--bracket", "0.1:5", "--temp=0:1:3"],
         2, "usage error", 0),
        (["sweep", "--workers", "0"], 2, "--workers", 0),
        (["sweep", "--workers=-1"], 2, "--workers", 0),
        (["sweep", "--workers", str((os.cpu_count() or 1) + 1)], 2, "--workers", 0),
        (["validate", "--grid-cap", "0"], 2, "--grid-cap", 0),
        (["sweep", "--measures", "foo"], 2, "--measures", 0),
        (["validate", "--points=-1"], 2, "--points", 0),
        (["sweep", "--field=-1e308:1e308:3", "--measures", "concurrence"], 2,
         "usage error", 0),
        # too cold for finite Boltzmann weights: found while rows are evaluated,
        # after the header (and the floored T = 0 row) went to stdout
        (["sweep", "--temp=1e-320", "--measures", "concurrence"], 3, "not finite", 1),
        (["sweep", "--temp=0:1e-320:2", "--measures", "concurrence"], 3, "not finite", 2),
    ], ids=["bad-number", "unknown-flag", "point-temp-nan", "point-field-inf",
            "sweep-temp-nan", "sweep-reversed-range", "sweep-floor-zero",
            "sweep-floor-nan", "point-floor-inf", "bracket-nan",
            "bracket-inf", "bracket-unordered", "bracket-three-parts", "bracket-text",
            "tol-zero", "tol-negative", "tol-nan", "eps-dead-negative", "eps-dead-nan",
            "eps-dead-inf", "scanned-temp-text", "scanned-temp-range", "workers-zero", "workers-negative", "workers-above-cpu-count",
            "validate-grid-cap-zero", "sweep-unknown-measure", "validate-points-negative",
            "sweep-range-overflow", "sweep-temp-too-cold", "sweep-temp-range-too-cold"])
    def test_usage_error_exit_code(self, capsys, tmp_path, argv, code, message,
                                   stdout_lines):
        def exit_code(args):
            try:
                return main(args)
            except SystemExit as exc:  # argparse's own usage errors
                return exc.code

        assert exit_code(argv) == code
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == stdout_lines
        assert captured.out.endswith("\n") or not captured.out
        assert message in captured.err
        if argv[0] in ("point", "sweep"):
            out = tmp_path / "out"
            assert exit_code(argv + ["--out", str(out)]) == code
            assert not out.exists()

    def test_failed_chunk_keeps_its_prefix_at_any_worker_count(self, capsys):
        # the floored T = 0 row evaluates, the T = 1e-320 row after it in the
        # same chunk does not: both paths print the row before the error
        outputs = []
        for workers in ("1", "2"):
            assert main(["sweep", "--temp=0:1e-320:2", "--measures", "concurrence",
                         "--workers", workers]) == 3
            captured = capsys.readouterr()
            assert "not finite" in captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert len(lines) == 2 and lines[0] == CSV_HEADER
        assert lines[1].startswith("0.001,") and lines[1].endswith("temp_floored")

    def test_sweep_writes_the_header_then_one_write_per_chunk(self, monkeypatch):
        # a reader timing rows by their arrival sees the header before any
        # work, then each chunk's rows together, written after it is evaluated
        events = []

        class Stream:
            def write(self, text):
                events.append(("write", text.count("\n")))

            def flush(self):
                pass

        evaluate = sweep_module._evaluate_chunk

        def logged(*args):
            events.append(("evaluate", len(args[0])))
            return evaluate(*args)

        monkeypatch.setattr(sys, "stdout", Stream())
        monkeypatch.setattr(sweep_module, "_evaluate_chunk", logged)
        assert main(["sweep", "--field=0:1:40", "--measures", "concurrence"]) == 0
        assert events == [("write", 1),
                          ("evaluate", 16), ("write", 16),
                          ("evaluate", 16), ("write", 16),
                          ("evaluate", 8), ("write", 8)]

    @pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
    @pytest.mark.parametrize("command", [["point"], ["sweep", "--measures", "concurrence"]],
                             ids=["point", "sweep"])
    def test_unopenable_out_is_a_usage_error(self, capsys, tmp_path, command, target):
        # --out is tested apart from test_usage_error_exit_code, which appends its own
        kept = tmp_path / "kept"
        kept.mkdir()
        out = kept if target == "existing-directory" else tmp_path / "missing" / "x.csv"
        assert main(command + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err
        assert list(tmp_path.iterdir()) == [kept]
        assert kept.is_dir()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_failed_command_leaves_a_non_regular_out_in_place(self, capsys, tmp_path):
        # a named pipe stands in for --out /dev/null or /dev/stdout: the
        # numeric error still exits 3, and the pipe is not unlinked
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        assert main(["sweep", "--temp=1e-320", "--measures", "concurrence",
                     "--out", str(fifo)]) == 3
        reader.join(timeout=30)
        assert "not finite" in capsys.readouterr().err
        assert fifo.is_fifo()
        assert received == [CSV_HEADER + "\n"]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name,extra", GOLDEN_SWEEPS, ids=[n for n, _ in GOLDEN_SWEEPS])
def test_sweep_bytes_match_golden(tmp_path, name, extra, workers):
    out = tmp_path / name
    assert main(["sweep", *GOLDEN_GRID, *extra, "--workers", workers,
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_closed_stdout_pipe_exits_quietly():
    # `diamondqc sweep ... | head -1`: the output is larger than a pipe
    # buffer, so the sweep is still writing when the reader goes away
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "diamondqc.cli", "sweep", "--field=0:1:2000",
         "--measures", "concurrence"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().decode().strip() == CSV_HEADER
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""
