"""Batch command-line front end.

Subcommands: ``point`` (one report), ``sweep`` (plot-ready tables),
``threshold`` (bisection on the dead-region boundary), ``validate`` (the
invariant grid).  Output is CSV (fixed column order, 12 significant digits)
or JSON lines; identical invocations produce byte-identical output,
independent of the worker count.

Exit codes: 0 success, 2 usage error, 3 numeric-domain error, 4 validation
failure, 141 output pipe closed early.  Every input is checked before the
first write, so a usage or numeric-domain error leaves no partial output; an
error that only shows while rows are evaluated removes the ``--out`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys

from .errors import DiamondQCError, TemperatureTooLow
from .model import ChainParams
from .sweep import (
    AxisRange,
    DEFAULT_GRID_CAP,
    DEFAULT_TEMP_FLOOR,
    MEASURES,
    SweepRow,
    SweepSpec,
    ThresholdQuery,
    evaluate_row,
    find_threshold,
    run_sweep,
    run_validate,
)

CSV_HEADER = "T,H,J,J2,Jm,concurrence,qd,classical_corr,mutual_info,gmqd,gqd1,theta,flags"


def _fmt(x) -> str:
    if x is None:
        return "NA"
    return format(float(x), ".12g")


def parse_axis(text: str, flag: str) -> AxisRange:
    """A bare number pins the axis; start:stop:steps sweeps it."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(
            f"{flag} expects VALUE or START:STOP:STEPS, got {text!r}")
    try:
        if len(parts) == 1:
            return AxisRange.fixed(float(text))
        return AxisRange(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{flag}: {exc}") from exc


def _add_param_flags(parser, sweepable: bool):
    kind = "value or START:STOP:STEPS" if sweepable else "value"
    parser.add_argument("--j", default="0", help=f"Ising-Heisenberg coupling ({kind})")
    parser.add_argument("--j2", default="1", help=f"Heisenberg dimer coupling ({kind})")
    parser.add_argument("--jm", default="0", help=f"next-nearest Ising coupling ({kind})")
    parser.add_argument("--field", default="0", help=f"magnetic field H ({kind})")
    parser.add_argument("--temp", default="1", help=f"temperature T ({kind})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamondqc",
        description="Quantum correlations of the spin-1/2 Ising-Heisenberg "
                    "diamond-chain cluster.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="report every measure at one parameter point")
    _add_param_flags(p_point, sweepable=False)
    p_point.add_argument("--format", choices=("table", "csv", "jsonl"), default="table")
    p_point.add_argument("--out", default=None, help="output path (default stdout)")
    p_point.add_argument("--temp-floor", type=float, default=None,
                         help="substitute this temperature for a requested T <= 0")
    p_point.add_argument("--use-verbatim-v", action="store_true",
                         help="use the verbatim closed-form v weight in diagnostics")

    p_sweep = sub.add_parser("sweep", help="evaluate measures over a parameter grid")
    _add_param_flags(p_sweep, sweepable=True)
    p_sweep.add_argument("--measures", default=",".join(MEASURES),
                         help="comma list from: " + ",".join(MEASURES))
    p_sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--temp-floor", type=float, default=DEFAULT_TEMP_FLOOR,
                         help="temperature substituted for swept T <= 0 "
                              f"(default {DEFAULT_TEMP_FLOOR})")
    p_sweep.add_argument("--grid-cap", type=int, default=DEFAULT_GRID_CAP)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="process pool size, 1 to the CPU count; rows are always "
                              "emitted in grid order")
    p_sweep.add_argument("--use-verbatim-v", action="store_true",
                         help="use the verbatim closed-form v weight in diagnostics")

    p_thr = sub.add_parser("threshold", help="bisect the dead-region boundary of a measure")
    _add_param_flags(p_thr, sweepable=False)
    p_thr.add_argument("--scan", choices=("T", "H"), required=True)
    p_thr.add_argument("--bracket", required=True, help="LO:HI")
    p_thr.add_argument("--measure", choices=MEASURES, default="concurrence")
    p_thr.add_argument("--eps-dead", type=float, default=1e-9)
    p_thr.add_argument("--tol", type=float, default=1e-4)

    p_val = sub.add_parser("validate", help="run the full invariant grid")
    p_val.add_argument("--points", type=int, default=200)
    p_val.add_argument("--use-verbatim-v", action="store_true")

    return parser


def _point_params(args) -> tuple[ChainParams, bool]:
    values = {}
    for key, flag in (("j", "--j"), ("j2", "--j2"), ("jm", "--jm"),
                      ("h", "--field"), ("t", "--temp")):
        axis = parse_axis(getattr(args, flag.lstrip("-").replace("-", "_")), flag)
        if axis.steps != 1:
            raise argparse.ArgumentTypeError(f"{flag} must be a single value here")
        values[key] = axis.start
    if values["t"] <= 0.0:
        floor = getattr(args, "temp_floor", None)
        if floor is None:
            if args.command == "threshold":
                raise TemperatureTooLow(
                    "requested T <= 0; --temp must be > 0 unless T is scanned (--scan T)")
            raise TemperatureTooLow(
                "requested T <= 0; pass --temp-floor to substitute a small "
                "temperature for the zero-temperature limit")
        values["t"] = floor
        return ChainParams(**values), True
    return ChainParams(**values), False


def _row_dict(row: SweepRow) -> dict:
    """The row's fields, keyed and ordered as the CSV columns."""
    p = row.params
    return {"T": p.t, "H": p.h, "J": p.j, "J2": p.j2, "Jm": p.jm,
            "concurrence": row.concurrence, "qd": row.qd,
            "classical_corr": row.classical_corr, "mutual_info": row.mutual_info,
            "gmqd": row.gmqd, "gqd1": row.gqd1, "theta": row.theta,
            "flags": ";".join(row.flags)}


def _csv_line(row: SweepRow) -> str:
    d = _row_dict(row)
    return ",".join([_fmt(v) for k, v in d.items() if k != "flags"] + [d["flags"]])


def _jsonl_line(row: SweepRow) -> str:
    return json.dumps(_row_dict(row), separators=(",", ":"))


@contextlib.contextmanager
def _output(path):
    """Stdout, or the file at ``path``.  When the command fails, a regular
    file written there is removed again so that an error leaves no partial
    file; a device, pipe or symlink named by ``path`` is left in place."""
    if path is None:
        yield sys.stdout
        return
    try:
        try:
            regular = stat.S_ISREG(os.lstat(path).st_mode)
        except FileNotFoundError:
            regular = True  # open() creates a regular file
        stream = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:  # a missing directory, a directory, no permission
        raise argparse.ArgumentTypeError(f"--out: {exc}") from exc
    with stream:
        try:
            yield stream
        except BaseException:
            # the command's own error is what reaches main, not a cleanup error
            with contextlib.suppress(OSError):
                stream.close()
            if regular:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def cmd_point(args) -> int:
    params, floored = _point_params(args)
    row = evaluate_row(params, MEASURES, floored, args.use_verbatim_v)
    with _output(args.out) as stream:
        if args.format == "table":
            p = row.params
            stream.write(f"point: T={_fmt(p.t)} H={_fmt(p.h)} J={_fmt(p.j)} "
                         f"J2={_fmt(p.j2)} Jm={_fmt(p.jm)}\n")
            rows = [
                ("concurrence", row.concurrence),
                ("quantum discord", row.qd),
                ("classical correlation", row.classical_corr),
                ("mutual information", row.mutual_info),
                ("geometric discord (HS)", row.gmqd),
                ("geometric discord (1-norm)", row.gqd1),
                ("theta (shortcut)", row.theta),
            ]
            for name, value in rows:
                stream.write(f"  {name:<28}{_fmt(value)}\n")
            if row.bell_coeffs is not None:
                c = row.bell_coeffs
                stream.write(f"  bell coefficients           "
                             f"({_fmt(c.c1)}, {_fmt(c.c2)}, {_fmt(c.c3)})\n")
            if row.flags:
                stream.write(f"  flags                       {';'.join(row.flags)}\n")
        elif args.format == "csv":
            stream.write(CSV_HEADER + "\n")
            stream.write(_csv_line(row) + "\n")
        else:
            stream.write(_jsonl_line(row) + "\n")
    return 0


def _sweep_spec(args) -> SweepSpec:
    measures = tuple(m.strip() for m in args.measures.split(",") if m.strip())
    try:
        return SweepSpec(
            t=parse_axis(args.temp, "--temp"),
            h=parse_axis(args.field, "--field"),
            j=parse_axis(args.j, "--j"),
            j2=parse_axis(args.j2, "--j2"),
            jm=parse_axis(args.jm, "--jm"),
            measures=measures,
            grid_cap=args.grid_cap,
        )
    except ValueError as exc:  # an unknown measure; parse_axis raises its own usage error
        raise argparse.ArgumentTypeError(f"--measures: {exc}") from exc


def cmd_sweep(args) -> int:
    spec = _sweep_spec(args)
    try:
        rows = run_sweep(spec, args.temp_floor, args.workers, args.use_verbatim_v)
    except ValueError as exc:  # the worker count, checked before any pool is built
        raise argparse.ArgumentTypeError(f"--workers: {exc}") from exc
    to_line = _csv_line if args.format == "csv" else _jsonl_line
    with _output(args.out) as stream:
        if args.format == "csv":
            stream.write(CSV_HEADER + "\n")
        try:
            # one write per chunk: a reader sees each chunk's rows arrive together
            for chunk in rows:
                stream.write("".join(to_line(row) + "\n" for row in chunk))
        except KeyboardInterrupt:
            # completed ordered prefix has already been written; fail loudly
            stream.flush()
            print("interrupted: flushed completed prefix", file=sys.stderr)
            return 130
    return 0


def cmd_threshold(args) -> int:
    # find_threshold replaces the scanned parameter, so a T scan lifts a
    # --temp <= 0 as a floor would; --temp still has to parse as one value
    args.temp_floor = 1.0 if args.scan == "T" else None
    fixed, _ = _point_params(args)
    try:
        lo, hi = (float(x) for x in args.bracket.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--bracket expects LO:HI, got {args.bracket!r}") from exc
    try:
        query = ThresholdQuery(scan=args.scan, lo=lo, hi=hi, measure=args.measure,
                               eps_dead=args.eps_dead, tol=args.tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    result = find_threshold(query, fixed)
    if result.found:
        print(f"threshold {args.measure} vs {args.scan}: {_fmt(result.location)}")
    else:
        print(f"NoThreshold: {result.reason}")
    return 0


def cmd_validate(args) -> int:
    if not 0 <= args.points < DEFAULT_GRID_CAP:
        raise argparse.ArgumentTypeError(
            f"--points must lie in 0..{DEFAULT_GRID_CAP - 1}, got {args.points}")
    summary = run_validate(points=args.points, use_verbatim_v=args.use_verbatim_v)
    print(summary.render())
    return summary.exit_code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"point": cmd_point, "sweep": cmd_sweep,
                "threshold": cmd_threshold, "validate": cmd_validate}
    try:
        floor = getattr(args, "temp_floor", None)
        if floor is not None and not (math.isfinite(floor) and floor > 0.0):
            raise TemperatureTooLow(f"--temp-floor must be finite and > 0, got {floor}")
        return handlers[args.command](args)
    except BrokenPipeError:
        # the reader of stdout went away (e.g. `| head`): stop quietly, and point
        # stdout at devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DiamondQCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
