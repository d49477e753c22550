"""unisamp benchmark: seeded sessions of `python -m unisamp.cli` calls.

    python3 perfbench/run.py --workload residue-large --seed 1 --seconds 25 --trace 0

Run from the repository root. Each workload is a fixed list of CLI calls
built from the seed (see workloads.py). The calls run one at a time as
child processes with PYTHONPATH=src and BLAS pinned to one thread, so
interpreter start and the numpy/scipy import count. A run repeats whole
sessions (the full list) to fill about --seconds, then checks every
output against the references in refs.py.

The speed of a shared host drifts by up to 1.5x over seconds to
minutes, and not evenly for all kinds of work, so every time the
end-to-end metrics report is scaled to a reference speed. Between calls,
at least every CAL_EVERY_S, the benchmark times a calibration child
(CALIBRATION below) that does the three kinds of work the CLI calls do:
interpreter start with the numpy import, a pure-Python loop and a dense
LAPACK call, all from code the program does not own. A call's wall time
w becomes w * REF_CAL_S / c, with c the median of the CAL_REACH
calibrations on each side of it. The raw wall times are in the details
line.

The last stdout line is the result JSON. With --trace 0 it holds the
end-to-end metrics; with --trace 1 the calls are also run through
traced_cli.py and the result holds per-layer self times and counts.
The line before it records the environment and run details, which are
also written, with every call's record, under .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BLAS_THREADS = 1
CALL_TIMEOUT_S = 60.0
# Calibration: the child, the time it takes at the reference speed (its
# median on the 2-vCPU x86_64 VM the benchmark was made on), the longest
# stretch of calls between two calibrations, and how many calibrations
# on each side of a call its scale factor uses.
CALIBRATION = """
import numpy
acc = 0
for i in range(400000):
    acc = (acc * 31 + i) % 1000003
numpy.linalg.svd(numpy.random.default_rng(0).standard_normal((300, 300)))
"""
CAL_ARGV = [sys.executable, "-c", CALIBRATION]
REF_CAL_S = 0.32
CAL_EVERY_S = 3.0
CAL_REACH = 2
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_MIN_BEYOND = 10
# Session length on the reference machine (2 CPUs). A run holds
# round(--seconds / this) sessions, at least one, so the number of
# samples behind each median never depends on how busy the machine is.
NOMINAL_SESSION_S = {"residue-large": 25.0, "analysis-dense": 25.0, "small-many": 25.0}
DIGIT_LIMIT_ERROR = "Exceeds the limit"

END_TO_END = {
    "setup_s": "s",
    "session_s": "s",
    "cli_p50_s": "s",
    "cli_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.emit_bytes": "bytes",
    "index_core.build_s": "s",
    "index_core.histogram_s": "s",
    "index_core.histogram_calls": "count",
    "index_core.bracelet_s": "s",
    "universality.verdict_s": "s",
    "universality.criteria_s": "s",
    "universality.construct_s": "s",
    "universality.calls": "count",
    "universality.pieces": "count",
    "counting.count_s": "s",
    "counting.entropy_s": "s",
    "counting.count_digits": "count",
    "fourier.interp_s": "s",
    "fourier.interp_peak_mb": "MB",
    "fourier.rank_s": "s",
    "fourier.dft_bytes": "bytes",
    "fourier.oracle_s": "s",
    "fourier.oracle_column_sets": "count",
    "fourier.condition_s": "s",
    "uncertainty.experiment_s": "s",
    "uncertainty.trials": "count",
    "uncertainty.verify_s": "s",
    "uncertainty.sumset_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Launcher:
    """Runs children one at a time through spawn.py, which reports each
    child's wall time and its own max RSS."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, out_path: Path, err_path: Path) -> dict:
        req = {"argv": argv, "out": str(out_path), "err": str(err_path), "env": child_env(),
               "cwd": str(ROOT), "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child launcher exited")
        return json.loads(line)

    def calibrate(self) -> float:
        """Wall time of one calibration child."""
        WORK.mkdir(parents=True, exist_ok=True)
        rec = self.run(CAL_ARGV, WORK / "cal.out", WORK / "cal.err")
        if rec["code"] != 0:
            raise RuntimeError("calibration child failed: " + (WORK / "cal.err").read_text()[-500:])
        return rec["wall"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scale(cals: list, i: int) -> float:
    """Factor that takes call i's time to the reference speed. cals holds
    (calls run before it, wall time) for each calibration, in order."""
    before = [c for pos, c in cals if pos <= i][-CAL_REACH:]
    after = [c for pos, c in cals if pos > i][:CAL_REACH]
    return REF_CAL_S / statistics.median(before + after)


def run_session(launcher: Launcher, calls: list, outdir: Path, traced: bool) -> dict:
    """Run every call in order, with calibrations between them; check
    outputs afterwards so checking never lands inside the timed section."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    records, cals = [], []
    for i, call in enumerate(calls):
        trace_path = outdir / f"{i:03d}.trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_path), *call.argv]
        else:
            argv = [sys.executable, "-m", "unisamp.cli", *call.argv]
        if not cals or sum(r["wall"] for r in records[cals[-1][0]:]) >= CAL_EVERY_S:
            cals.append((i, launcher.calibrate()))
        rec = launcher.run(argv, outdir / f"{i:03d}.out", outdir / f"{i:03d}.err")
        rec["trace"] = trace_path if traced else None
        records.append(rec)
    cals.append((len(calls), launcher.calibrate()))
    for i, rec in enumerate(records):
        rec["ref"] = rec["wall"] * scale(cals, i)
    wall = sum(r["wall"] for r in records)
    ref = sum(r["ref"] for r in records)
    for i, (call, rec) in enumerate(zip(calls, records)):
        out = (outdir / f"{i:03d}.out").read_bytes()
        err = (outdir / f"{i:03d}.err").read_text(errors="replace")
        rec.update(label=call.label, out_bytes=len(out))
        rec["failure"] = judge(call, rec, out.decode(errors="replace"), err)
        rec["known_defect"] = (
            call.known_defect
            if rec["failure"] and call.known_defect and rec["code"] == 2 and DIGIT_LIMIT_ERROR in err
            else None
        )
    return {"wall": wall, "ref": ref, "cals": [c for _, c in cals], "records": records,
            "traced": traced}


def judge(call, rec: dict, out: str, err: str):
    """None when the call passed, else why it failed."""
    if rec["timed_out"]:
        return f"timed out after {CALL_TIMEOUT_S:.0f} s"
    if rec["code"] != call.code:
        return f"exit code {rec['code']}, expected {call.code}: {err.strip()[-200:]}"
    return call.check(out, err)


def setup(launcher: Launcher, name: str, seed: int, workdir: Path, tiny: bool = False) -> list:
    """Inputs, references and a warm-up call. Returns the workload's calls."""
    inputs = workdir / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    calls = workloads.build(name, seed, inputs, tiny)
    warm = launcher.run([sys.executable, "-m", "unisamp.cli", "count", "-p", "2", "-M", "1", "-d", "1"],
                     workdir / "warmup.out", workdir / "warmup.err")
    if warm["code"] != 0 or (workdir / "warmup.out").read_text() != "2\n":
        raise RuntimeError("warm-up call `unisamp count -p 2 -M 1 -d 1` failed: "
                           + (workdir / "warmup.err").read_text()[-500:])
    return calls


def tail(values: list):
    """Highest whole percentile (nearest rank, at least the 50th) with
    at least TAIL_MIN_BEYOND samples above it: (value, percentile, beyond)."""
    ordered = sorted(values)
    pct = 99
    while pct > 50 and len(ordered) - math.ceil(pct * len(ordered) / 100) < TAIL_MIN_BEYOND:
        pct -= 1
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], pct, len(ordered) - rank


def self_times(trace: dict) -> dict:
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = {}
    for (layer, start, end, _), child in zip(spans, covered):
        out[layer] = out.get(layer, 0.0) + (end - start - child)
    return out


def layer_metrics(session: dict) -> dict:
    """Per-layer self times and counters summed over one traced session."""
    totals = {k: 0 for k in PER_LAYER}
    totals["fourier.interp_peak_mb"] = 0.0
    for rec in session["records"]:
        totals["cli.emit_bytes"] += rec["out_bytes"]
        try:
            trace = json.loads(rec["trace"].read_text())
        except (OSError, json.JSONDecodeError):
            continue
        for layer, secs in self_times(trace).items():
            totals[f"{layer}_s"] += secs
        for key, value in trace["counters"].items():
            if key == "fourier.interp_peak_mb":
                totals[key] = max(totals[key], value)
            else:
                totals[key] += value
    return totals


def measure_import(launcher: Launcher) -> float:
    """Median fresh `import unisamp.cli` minus median bare interpreter start."""
    bare, full = [], []
    tmp = WORK / "import"
    tmp.mkdir(parents=True, exist_ok=True)
    for _ in range(IMPORT_REPEATS):
        for code, dest in (("pass", bare), ("import unisamp.cli", full)):
            rec = launcher.run([sys.executable, "-c", code], tmp / "out", tmp / "err")
            dest.append(rec["wall"])
    return statistics.median(full) - statistics.median(bare)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "unisamp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(load_start, cpus: list) -> dict:
    import numpy
    import scipy

    commit = None  # a plain source tree (no .git) is named by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(cpus),
        "pinned_cpu": max(cpus),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "machine": platform.machine(),
        "concurrency": "one CLI child at a time from a single benchmark process, "
                       "all pinned to one CPU",
    }


def measure(launcher: Launcher, args, workdir: Path):
    """Set up SETUP_REPEATS times, then run whole sessions for about
    args.seconds; with tracing, pairs of untraced and traced sessions."""
    setup_walls, cals = [], [(0, launcher.calibrate())]
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        calls = setup(launcher, args.workload, args.seed, workdir)
        setup_walls.append(time.perf_counter() - t0)
        cals.append((i + 1, launcher.calibrate()))
    setup_times = [wall * scale(cals, i) for i, wall in enumerate(setup_walls)]
    import_s = measure_import(launcher) if args.trace else None
    rounds = max(1, round(args.seconds / NOMINAL_SESSION_S[args.workload]))
    if args.trace:
        rounds = max(1, rounds // 2)
    sessions = []
    for _ in range(rounds):
        for traced in ([False, True] if args.trace else [False]):
            sessions.append(run_session(launcher, calls, workdir / f"s{len(sessions)}", traced))
    return calls, setup_times, setup_walls, import_s, sessions


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "unisamp" / "cli.py").is_file():
        print(f"error: no unisamp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    load_start = list(os.getloadavg())
    # The two vCPUs of a shared host slow down partly independently, so
    # the benchmark, its launcher, the calibrations and every child share
    # one CPU.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(cpus)})
    sys.set_int_max_str_digits(0)
    workdir = WORK / f"{args.workload}-{args.seed}"
    try:
        with Launcher() as launcher:
            calls, setup_times, setup_walls, import_s, sessions = measure(launcher, args, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = [s for s in sessions if not s["traced"]]
    records = [r for s in sessions for r in s["records"]]
    failed = [r for r in records if r["failure"]]
    times = [r["ref"] for s in plain for r in s["records"]]
    tail_value, tail_pct, tail_beyond = tail(times)
    extra: dict = {}
    if args.trace:
        traced = [s for s in sessions if s["traced"]]
        per_session = [layer_metrics(s) for s in traced]
        extra["layers_each"] = per_session
        values = {k: statistics.median(m[k] for m in per_session) for k in PER_LAYER}
        values["cli.import_s"] = import_s
        values["trace.overhead_s"] = (statistics.median(s["ref"] for s in traced)
                                      - statistics.median(s["ref"] for s in plain))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "session_s": statistics.median(s["ref"] for s in plain),
            "cli_p50_s": statistics.median(times),
            "cli_tail_s": tail_value,
            "peak_rss_mb": max(r["rss_mb"] for r in records),
            "ok_ratio": (len(records) - len(failed)) / len(records),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(load_start, cpus),
        "setup_s_each": setup_times,
        "setup_wall_s_each": setup_walls,
        "sessions": len(plain),
        "traced_sessions": len(sessions) - len(plain),
        "calls_per_session": len(calls),
        "session_s_each": [s["ref"] for s in plain],
        "session_wall_s_each": [s["wall"] for s in plain],
        "cal_s_median": statistics.median(c for s in sessions for c in s["cals"]),
        "calibrations": sum(len(s["cals"]) for s in sessions),
        "cli_tail_percentile": tail_pct,
        "cli_tail_samples_beyond": tail_beyond,
        "failures": [{"call": r["label"], "why": r["failure"], "known_defect": r["known_defect"]}
                     for r in failed],
        **extra,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    calls_out = [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items()} for r in records]
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "metrics": metrics, "calls": calls_out}, indent=1))
    print(json.dumps(details))
    print(json.dumps({
        "correct": all(r["known_defect"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
