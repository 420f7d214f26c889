"""polarmin benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Workloads are ground_state_3d, polarize_greedy_2d and cli_session_3d (see
bench/README.md for why each was chosen).  Each repetition runs in a fresh,
single-threaded worker process (bench/worker.py), one after another, so the
load is one closed-loop client.  Repetitions continue while the next one is
expected to end within ``--seconds``, with at least two per run.

``--trace 0`` reports the end-to-end metrics as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (medians over traced repetitions) and the tracing
overhead.  Metric names and units come from BENCHMARK.json.  Every line but
the last is for people; the last line is one JSON object with the keys
correct, attempted, failed (output checks, including the checker self-test)
and metrics.  Any repetition that cannot run ends the benchmark with exit
code 1 and no result line.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKDIR = ROOT / ".bench_work"
WORKLOADS = ("ground_state_3d", "polarize_greedy_2d", "cli_session_3d")
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
MIN_REPS = 2
MAX_RUN_S = 150.0
REP_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_revision": _git_revision(),
            "pinned_threads": PINNED_THREADS,
            "loadavg_at_start": os.getloadavg()}


def run_rep(workload: str, seed: int, traced: bool) -> dict:
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    env = {**os.environ, **PINNED_THREADS, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    try:
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--trace", str(int(traced)),
             "--workdir", workdir, "--spawned", repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition exceeded "
                         f"{REP_TIMEOUT_S:g} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    return rep


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool, spec: dict) -> dict:
    modes = (False, True) if trace else (False,)
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, seed, modes[len(reps) % len(modes)]))
        elapsed = time.perf_counter() - start
        next_end = elapsed * (len(reps) + 1) / len(reps)
        if len(reps) >= MIN_REPS and (next_end > seconds
                                      or next_end > MAX_RUN_S):
            break

    plain = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_ref_s"] for r in traced)
            / statistics.median(r["wall_ref_s"] for r in plain) - 1.0)
        declared = spec["per_layer"]
    else:
        values = {name: statistics.median(r[name] for r in plain)
                  for name in ("wall_ref_s", "setup_s", "peak_rss_mb")}
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"{workload}: measured metrics {sorted(values)} do "
                         f"not match BENCHMARK.json")
    checks = [c for r in reps for c in r["checks"]]
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "repetitions": len(reps),
        "attempted": len(checks),
        "failed_checks": sorted({name for name, ok in checks if not ok}),
        "failed": sum(not ok for _, ok in checks),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "raw": [{k: r[k] for k in ("traced", "setup_s", "wall_s", "wall_ref_s",
                                   "calibration_s", "peak_rss_mb")}
                for r in reps],
    }


def report(result: dict) -> None:
    mode = "traced and untraced" if result["trace"] else "untraced"
    print(f"{result['workload']}: seed {result['seed']}, "
          f"{result['repetitions']} {mode} repetitions")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} checks failed"
          + (f": {', '.join(result['failed_checks'])})"
             if result["failed"] else ")"))


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if not (ROOT / "src" / "polarmin" / "__init__.py").is_file():
            raise BenchError(f"no polarmin sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = environment()
        compileall.compile_dir(ROOT / "src" / "polarmin", quiet=1)
        compileall.compile_dir(BENCH, quiet=1)
        WORKDIR.mkdir(exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), spec))
            report(results[-1])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    print(json.dumps({"record": {"env": env, "runs": results}}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
