#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the diamondqc package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src`` next to this directory, nothing needs to be installed.  With
``--trace 0`` the program is driven from outside (fresh ``diamondqc``
processes, or a library client process) and the end-to-end metrics are
printed; with ``--trace 1`` a separate in-process run wraps the package's
public functions and prints the per-layer metrics.  Every output is checked;
the last line of stdout is the JSON result.  Run records (inputs, raw
samples, environment, spans) go to ``.bench_out/`` in the checkout.  See
README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
CLIENT = os.path.join(HERE, "client.py")
PROBE = os.path.join(HERE, "probe.py")
CLI = "import sys; from diamondqc.cli import main; sys.exit(main())"

CHILD_TIMEOUT_S = 120
SETUP_PROBES = 7
# Share of --seconds spent on the one-worker loop; the rest goes to the
# two-worker loop.
W1_SHARE = 0.6
# Fewest operations per loop, so even validate (about 5 s a run) gets a median.
MIN_OPS_W1 = 3
MIN_OPS_W2 = 1

CPUS = sorted(os.sched_getaffinity(0))
# One-worker children and the probe they are scaled by share this CPU; the
# harness itself stays off it when there is another.
W1_CPU = CPUS[-1]
# probe.reference_work's thread CPU time at reference speed: about its
# median on a 2-vCPU Intel Xeon VM (2.0 GHz, numpy 2.4.6, Python 3.11).
REFERENCE_PROBE_S = 1.0e-3
PROBE_WINDOW_S = 0.3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ops_per_s_w2": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
OP_NAMES = {"field_scan_all": "row", "grid_cheap": "row", "thresholds": "query",
            "validate": "validate run"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Proc:
    returncode: int
    start: float
    end: float
    stdout: bytes
    stamps: list  # perf_counter time at which each stdout line arrived
    maxrss_mb: float
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_child(cmd: list[str], cpus) -> Proc:
    """Run one child on ``cpus`` to completion, timestamping stdout lines as
    they arrive and taking the child's own peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        chunks, stamps = [], []
        try:
            # The child is still starting the interpreter; threads and
            # processes it creates later inherit this.
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(proc.pid, cpus)
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                stamps.extend([perf_counter()] * chunk.count(b"\n"))
                chunks.append(chunk)
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Proc(proc.returncode, start, end, b"".join(chunks), stamps,
                usage.ru_maxrss / 1024.0, stderr)


def run_children(jobs: list[tuple[list[str], set]]) -> list[Proc]:
    """Run (cmd, cpus) children concurrently, one reader thread each."""
    results = [None] * len(jobs)

    def target(k):
        results[k] = run_child(*jobs[k])

    threads = [threading.Thread(target=target, args=(k,)) for k in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if any(r is None for r in results):
        raise RuntimeError("a benchmark child could not be run")
    return results


class SpeedProbes:
    """One probe.py process per CPU for the whole run (see probe.py)."""

    def __init__(self):
        self.paths = {c: os.path.join(OUT, f"probe-{os.getpid()}-cpu{c}.txt") for c in CPUS}
        self.procs = {}
        for c, path in self.paths.items():
            with open(path, "w", encoding="utf-8") as fh:
                self.procs[c] = subprocess.Popen([sys.executable, PROBE, str(c)],
                                                 stdin=subprocess.PIPE, stdout=fh, cwd=ROOT)

    def close(self):
        for proc in self.procs.values():
            proc.stdin.close()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def remove_files(self):
        for path in self.paths.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def samples(self, cpu) -> tuple[list[float], list[float], list[float]]:
        """Start and end times and CPU seconds of every complete probe sample."""
        starts, ends, durs = [], [], []
        with open(self.paths[cpu], encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 3 and line.endswith("\n"):
                    starts.append(float(parts[0]))
                    ends.append(float(parts[1]))
                    durs.append(float(parts[2]))
        return starts, ends, durs

    def slowdowns(self, intervals: list[tuple[float, float]], cpus) -> list[float]:
        """Per interval: mean over ``cpus`` of the median probe time within
        PROBE_WINDOW_S of the interval, relative to REFERENCE_PROBE_S."""
        per_cpu = []
        for cpu in cpus:
            _, times, durs = self.samples(cpu)
            if not times:
                raise RuntimeError(f"speed probe on CPU {cpu} produced no samples")
            factors = []
            for t0, t1 in intervals:
                lo = bisect.bisect_left(times, t0 - PROBE_WINDOW_S)
                hi = bisect.bisect_right(times, t1 + PROBE_WINDOW_S)
                if lo >= hi:  # no sample close by: take the nearest one
                    lo = min(lo, len(times) - 1)
                    hi = lo + 1
                factors.append(statistics.median(durs[lo:hi]) / REFERENCE_PROBE_S)
            per_cpu.append(factors)
        return [sum(f) / len(f) for f in zip(*per_cpu)]

    def cpu_taken(self, intervals: list[tuple[float, float]], cpu) -> list[float]:
        """CPU seconds the probe on ``cpu`` used inside each interval, pro rata
        to the overlap: time a short operation lost to the probe sharing its
        CPU."""
        starts, ends, durs = self.samples(cpu)
        taken = []
        for t0, t1 in intervals:
            k = bisect.bisect_left(ends, t0)
            total = 0.0
            while k < len(ends) and starts[k] < t1:
                overlap = min(t1, ends[k]) - max(t0, starts[k])
                if overlap > 0.0:
                    total += durs[k] * overlap / (ends[k] - starts[k])
                k += 1
            taken.append(total)
        return taken

    def at_reference(self, proc: Proc, cpus) -> float:
        """A child's wall time scaled to reference CPU speed."""
        return proc.wall_s / self.slowdowns([(proc.start, proc.end)], cpus)[0]


def closed_loop(budget_s: float, min_ops: int, op):
    """Call ``op(k)`` back to back; start another only while the mean duration
    so far still fits in the budget, and always run at least ``min_ops``."""
    results = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        k = len(results)
        if k >= min_ops and elapsed + elapsed / k > budget_s:
            return results
        results.append(op(k))


def quantile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, notes=()):
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(list(notes)[: max(0, 10 - len(self.notes))])

    def one(self, problem: str | None):
        self.add(1, 1 if problem else 0, [problem] if problem else [])


# ---------------------------------------------------------------- untraced

def measure_setup(probes: SpeedProbes, tally: Tally, record: dict) -> float:
    """Wall time of a fresh interpreter importing diamondqc.cli, the fixed
    cost of every CLI run; one unmeasured run first compiles bytecode."""
    cmd = [sys.executable, "-c", "import diamondqc.cli"]
    procs = []
    for _ in range(SETUP_PROBES + 1):
        proc = run_child(cmd, {W1_CPU})
        tally.one(None if proc.returncode == 0 else f"import failed: {proc.stderr[-300:]}")
        procs.append(proc)
    walls = [probes.at_reference(p, {W1_CPU}) for p in procs[1:]]
    record["samples"]["setup_s"] = walls
    record["raw"]["setup_s"] = [p.wall_s for p in procs[1:]]
    return statistics.median(walls)


def row_intervals(stamps: list[float]) -> list[tuple[float, float]]:
    """(start, end) of each row after the header, from line arrival times.

    Lines that arrive in one read share the time since the previous read
    evenly, so a late read shows as several rows of average length rather
    than one slow row and several instant ones.  Rows that arrive together
    with the header have no start and are left out.
    """
    intervals = []
    i = next((k for k, t in enumerate(stamps) if t != stamps[0]), len(stamps))
    prev = stamps[0] if stamps else 0.0
    while i < len(stamps):
        j = i
        while j < len(stamps) and stamps[j] == stamps[i]:
            j += 1
        step = (stamps[i] - prev) / (j - i)
        intervals += [(prev + step * m, prev + step * (m + 1)) for m in range(j - i)]
        prev, i = stamps[i], j
    return intervals


def scaled_latencies_ms(probes: SpeedProbes, intervals: list[tuple[float, float]],
                        cpu) -> list[float]:
    """Latencies of operations run on ``cpu``, less the time the probe took
    from them, at reference speed."""
    return [1e3 * (b - a - taken) / slow for (a, b), taken, slow in
            zip(intervals, probes.cpu_taken(intervals, cpu), probes.slowdowns(intervals, {cpu}))]


def sweep_untraced(specs: list[dict], seconds: float, probes: SpeedProbes, tally: Tally,
                   record: dict) -> tuple[dict, bool]:
    import check
    from workloads import sweep_argv

    def w1(k):
        # -u: each row reaches the pipe when it is written, so row latency
        # can be read off the arrival times.
        proc = run_child([sys.executable, "-u", "-c", CLI, *sweep_argv(specs[k]),
                          "--workers=1"], {W1_CPU})
        if proc.returncode != 0:
            tally.add(1, 1, [f"sweep exited {proc.returncode}: {proc.stderr[-300:]}"])
        else:
            tally.add(*check.check_sweep(proc.stdout.decode(), specs[k]))
        return proc

    w1_runs = closed_loop(W1_SHARE * seconds, MIN_OPS_W1, w1)

    def w2(k):
        i = k % len(w1_runs)
        proc = run_child([sys.executable, "-c", CLI, *sweep_argv(specs[i]), "--workers=2"],
                         set(CPUS))
        ref = w1_runs[i].stdout.split(b"\n")
        got = proc.stdout.split(b"\n")
        differing = sum(a != b for a, b in zip(ref, got)) + abs(len(ref) - len(got))
        rows = max(len(ref) - 2, 1)
        tally.add(rows, min(differing, rows),
                  [f"--workers 2 output differs from --workers 1 on spec {i}"] if differing else [])
        return proc, i

    w2_runs = closed_loop((1.0 - W1_SHARE) * seconds, MIN_OPS_W2, w2)

    ok, detail = check.self_test(w1_runs[0].stdout.decode(), specs[0])
    record["checker_self_test"] = {"ok": ok, "detail": detail}
    if not ok:
        tally.add(0, 0, [f"checker self-test failed: {detail}"])

    def rows(proc):
        return max(proc.stdout.count(b"\n") - 1, 1)

    gaps = [gap for p in w1_runs for gap in row_intervals(p.stamps)]
    latencies = scaled_latencies_ms(probes, gaps, W1_CPU)
    w1_rates = [rows(p) / probes.at_reference(p, {W1_CPU}) for p in w1_runs]
    w2_rates = [rows(p) / probes.at_reference(p, CPUS) for p, _ in w2_runs]
    record["inputs_run"] = {"workers_1": [sweep_argv(specs[k]) for k in range(len(w1_runs))],
                            "workers_2": [sweep_argv(specs[i]) for _, i in w2_runs]}
    record["samples"].update(rows_per_s_w1=w1_rates, rows_per_s_w2=w2_rates,
                             row_latencies_ms=latencies)
    record["raw"].update(rows_per_s_w1=[rows(p) / p.wall_s for p in w1_runs],
                         rows_per_s_w2=[rows(p) / p.wall_s for p, _ in w2_runs],
                         row_latencies_ms=[1e3 * (b - a) for a, b in gaps])
    return {
        "ops_per_s": statistics.median(w1_rates),
        "ops_per_s_w2": statistics.median(w2_rates),
        "op_p50_ms": quantile(latencies, 50),
        "op_p90_ms": quantile(latencies, 90),
        "peak_rss_mb": max(p.maxrss_mb for p in w1_runs),
    }, ok


def client_cmd(mode: str, cfg: dict, name: str) -> list[str]:
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return [sys.executable, CLIENT, mode, path]


def client_result(proc: Proc, tally: Tally) -> dict | None:
    if proc.returncode != 0:
        tally.add(1, 1, [f"client exited {proc.returncode}: {proc.stderr[-300:]}"])
        return None
    return json.loads(proc.stdout.decode().strip().rsplit("\n", 1)[-1])


def check_queries(queries: list[dict], results: list[dict], tally: Tally, verdicts: dict):
    """Check each outcome once per query; a repeat of a query must agree exactly."""
    import check

    for r in results:
        i = r["i"]
        outcome = {k: r[k] for k in ("kind", "location", "error") if k in r}
        if i in verdicts:
            first, problem = verdicts[i]
            tally.one(problem or (None if outcome == first else f"query {i} not deterministic"))
            continue
        problem = check.check_query(queries[i], outcome)
        verdicts[i] = (outcome, problem)
        tally.one(problem and f"query {i}: {problem}")


def thresholds_untraced(queries: list[dict], seconds: float, probes: SpeedProbes, tally: Tally,
                        record: dict) -> dict:
    base = {"queries": queries, "offset": 0}
    w1_proc = run_child(client_cmd("queries", {**base, "budget_s": W1_SHARE * seconds},
                                   "queries-w1.json"), {W1_CPU})
    # Two concurrent single-process clients, one per CPU, each a closed loop
    # from its own half of the query list: the two-worker load for a
    # workload with no --workers.
    half = len(queries) // 2
    w2_cpus = [CPUS[k % len(CPUS)] for k in range(2)]
    w2_procs = run_children([(client_cmd(
        "queries", {**base, "budget_s": (1.0 - W1_SHARE) * seconds, "offset": k * half},
        f"queries-w2-{k}.json"), {w2_cpus[k]}) for k in range(2)])
    w1 = client_result(w1_proc, tally)
    w2 = [client_result(p, tally) for p in w2_procs]
    if w1 is None or None in w2:
        return {}
    verdicts = {}
    for res in [w1] + w2:
        check_queries(queries, res["results"], tally, verdicts)

    def latencies_ms(results, cpu):
        return scaled_latencies_ms(probes, [(r["start"], r["end"]) for r in results], cpu)

    latencies = latencies_ms(w1["results"], W1_CPU)
    w2_latencies = [latencies_ms(res["results"], cpu) for res, cpu in zip(w2, w2_cpus)]
    record["inputs_run"] = {"workers_1": [queries[r["i"]] for r in w1["results"]],
                            "workers_2": [[r["i"] for r in res["results"]] for res in w2]}
    record["outcomes"] = {kind: sum(v[0]["kind"] == kind for v in verdicts.values())
                          for kind in ("found", "no_threshold", "no_bracket", "error")}
    record["samples"].update(query_latencies_ms=latencies)
    record["raw"].update(query_latencies_ms=[1e3 * (r["end"] - r["start"])
                                             for r in w1["results"]])
    return {
        "ops_per_s": 1e3 * len(latencies) / sum(latencies),
        "ops_per_s_w2": sum(1e3 * len(lat) / sum(lat) for lat in w2_latencies),
        "op_p50_ms": quantile(latencies, 50),
        "op_p90_ms": quantile(latencies, 90),
        "peak_rss_mb": w1_proc.maxrss_mb,
    }


def validate_untraced(argv: list[str], seconds: float, probes: SpeedProbes, tally: Tally,
                      record: dict) -> dict:
    import check

    cmd = [sys.executable, "-c", CLI, *argv]

    def checked(proc):
        tally.one(check.check_validate(proc.returncode, proc.stdout.decode()))
        return proc

    w1_runs = closed_loop(W1_SHARE * seconds, MIN_OPS_W1,
                          lambda k: checked(run_child(cmd, {W1_CPU})))
    # Two concurrent validate processes, one per CPU: the two-worker load.
    w2_cpus = [CPUS[k % len(CPUS)] for k in range(2)]
    w2_pairs = closed_loop((1.0 - W1_SHARE) * seconds, MIN_OPS_W2, lambda k: [
        checked(p) for p in run_children([(cmd, {cpu}) for cpu in w2_cpus])])
    walls = [probes.at_reference(p, {W1_CPU}) for p in w1_runs]
    w2_walls = [[probes.at_reference(p, {cpu}) for p, cpu in zip(pair, w2_cpus)]
                for pair in w2_pairs]
    record["samples"].update(wall_s_w1=walls, wall_s_w2=w2_walls)
    record["raw"].update(wall_s_w1=[p.wall_s for p in w1_runs],
                         wall_s_w2=[[p.wall_s for p in pair] for pair in w2_pairs])
    return {
        "ops_per_s": 1.0 / statistics.median(walls),
        "ops_per_s_w2": statistics.median(sum(1.0 / w for w in pair) for pair in w2_walls),
        # Too few runs for a tail with ten samples beyond it: with three
        # runs this interpolates between the two slowest.
        "op_p50_ms": 1e3 * statistics.median(walls),
        "op_p90_ms": 1e3 * quantile(walls, 90),
        "peak_rss_mb": max(p.maxrss_mb for p in w1_runs),
    }


# ------------------------------------------------------------------ traced

def traced(workload: str, inputs: dict, seconds: float, seed: int, tally: Tally,
           record: dict) -> dict:
    """One in-process traced run through client.py; its outputs are checked too."""
    import check
    from workloads import sweep_argv

    name = f"{workload}-seed{seed}"
    cfg = {"budget_s": seconds, "spans_path": os.path.join(OUT, f"spans-{name}.jsonl")}
    if workload == "thresholds":
        cfg.update(kind="query", ops=inputs["queries"])
    elif workload == "validate":
        cfg.update(kind="cli", ops=[[inputs["argv"], inputs["argv"]]])
    else:
        paths = [[os.path.join(OUT, f"trace-{name}-{k}-{tag}.csv") for tag in ("untraced", "traced")]
                 for k in range(len(inputs["specs"]))]
        cfg.update(kind="cli", ops=[[sweep_argv(spec) + ["--workers=1", f"--out={path}"]
                                     for path in pair]
                                    for spec, pair in zip(inputs["specs"], paths)])
    result = client_result(run_child(client_cmd("trace", cfg, f"trace-{name}.json"), {W1_CPU}),
                           tally)
    if result is None:
        return {}
    outcomes = result["outcomes"]
    record["inputs_run"] = cfg["ops"][: len(outcomes)]
    record["spans_path"] = os.path.relpath(cfg["spans_path"], ROOT)
    if workload == "thresholds":
        check_queries(inputs["queries"], [dict(o, i=k) for k, o in enumerate(outcomes)],
                      tally, {})
    elif workload == "validate":
        for o in outcomes:
            tally.one(check.check_validate(o["rc"], o["stdout"]))
    else:
        for k, o in enumerate(outcomes):
            untraced_path, traced_path = paths[k]
            with open(traced_path, encoding="utf-8") as fh:
                text = fh.read()
            with open(untraced_path, encoding="utf-8") as fh:
                same = fh.read() == text
            tally.add(*check.check_sweep(text, inputs["specs"][k]))
            tally.one(None if o["rc"] == 0 and same else
                      f"traced sweep {k}: exit {o['rc']}, same as untraced: {same}")
    return result["metrics"]


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".evals_per_query"):
        return "count"
    return "s" if name.endswith("_s") else "ratio"


# ------------------------------------------------------------------ record

def environment() -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "diamondqc")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            digest.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fh.read())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest(), "nproc": len(CPUS),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": numpy.__version__}


def untraced(workload: str, inputs: dict, seconds: float, tally: Tally,
             record: dict) -> tuple[dict, bool]:
    """End-to-end metrics, with the speed probes running throughout."""
    record["samples"], record["raw"] = {}, {}
    probes = SpeedProbes()
    ok = True
    try:
        setup_s = measure_setup(probes, tally, record)
        if workload in ("field_scan_all", "grid_cheap"):
            metrics, ok = sweep_untraced(inputs["specs"], seconds, probes, tally, record)
        elif workload == "thresholds":
            metrics = thresholds_untraced(inputs["queries"], seconds, probes, tally, record)
        else:
            metrics = validate_untraced(inputs["argv"], seconds, probes, tally, record)
    finally:
        probes.close()
    record["probe_ms"] = {f"cpu{c}": 1e3 * statistics.median(probes.samples(c)[2] or [0.0])
                          for c in CPUS}
    probes.remove_files()
    if metrics:
        metrics["setup_s"] = setup_s
    return metrics, ok


def main(argv=None) -> int:
    from workloads import WORKLOADS, generate

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load = os.getloadavg()
    if not os.path.isfile(os.path.join(SRC, "diamondqc", "cli.py")):
        print(f"error: no diamondqc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS) - {W1_CPU})

    env = environment()
    env["loadavg_start"] = load
    inputs = generate(args.workload, args.seed)
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}
    try:
        if args.trace:
            metrics = traced(args.workload, inputs, args.seconds, args.seed, tally, record)
            ok, units = True, {k: per_layer_unit(k) for k in metrics}
        else:
            metrics, ok = untraced(args.workload, inputs, args.seconds, tally, record)
            units = END_TO_END_UNITS
    except Exception:  # a run that breaks is reported as incorrect, with its traceback
        tally.add(1, 1, [traceback.format_exc(limit=4)])
        metrics, ok, units = {}, False, {}
    ok = ok and tally.failed == 0 and bool(metrics)
    record.update(attempted=tally.attempted, failed=tally.failed, failure_notes=tally.notes,
                  metrics=metrics)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    summary = {k: v for k, v in record.items() if k not in ("metrics", "samples", "raw")}
    print(json.dumps(summary))
    print(f"workload {args.workload}, one op = one {OP_NAMES[args.workload]}; "
          f"full record in .bench_out/{name}")
    for key in sorted(metrics):
        print(f"  {key:<52} {metrics[key]:.6g} {units[key]}")
    attempted = max(tally.attempted, 1)
    print(f"  error_rate {tally.failed / attempted:.6g} ({tally.failed} of {attempted} failed)")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
