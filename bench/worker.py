"""One repetition of a benchmark workload in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --spawned UNIX_TIME

Imports polarmin from the checkout's ``src``, builds the seeded inputs, runs
the task once (traced or not), checks the result, runs the checker
self-test on corrupted copies of a result that passed, and prints one JSON
line.  ``setup_s`` runs from ``--spawned`` (the parent's clock just before
it started this process) to the end of input building, so it covers
interpreter start, imports and setup.  ``peak_rss_mb`` is read right after
the task, before checking.

The speed of the shared 2-core VM this benchmark was written on drifts by
tens of percent over minutes, which no number of repetitions averages out.
The task is therefore bracketed by a calibration kernel (fixed numpy FFT,
fancy-indexing and pure-Python work that polarmin never runs), and
``wall_ref_s`` rescales the task's wall time to a machine on which that
kernel takes ``REFERENCE_CALIBRATION_S``.  The raw wall time and the
calibration time are reported beside it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TASK_SPAN = "bench.task"
# Median calibration time on a 2-core Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6), so wall_ref_s reads close to seconds there.
REFERENCE_CALIBRATION_S = 0.35


def calibrate() -> float:
    """Seconds taken by a fixed kernel that exercises what polarmin's hot
    paths use: 3D FFTs, fancy indexing on a 65^2 field, interpreter loops."""
    import numpy as np
    rng = np.random.default_rng(0)
    cube = rng.random((48, 48, 48))
    u = rng.random(65 * 65)
    partner = rng.permutation(u.size)
    sel = rng.random(u.size) > 0.5
    np.fft.irfftn(np.fft.rfftn(cube), cube.shape)  # plan caches warm
    start = time.perf_counter()
    for _ in range(16):
        np.fft.irfftn(np.fft.rfftn(cube), cube.shape)
    for _ in range(4000):
        out = u.copy()
        out[sel] = np.maximum(u[sel], u[partner[sel]])
    total = 0
    for k in range(150000):
        total += k
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import polarmin
    source = pathlib.Path(polarmin.__file__).resolve().parent
    if source != ROOT / "src" / "polarmin":
        raise SystemExit(f"polarmin imported from {source}, "
                         f"not from {ROOT / 'src'}")
    import workloads

    setup, task, check, corrupt = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, args.workdir)
    setup_s = time.time() - args.spawned

    layers = None
    before = calibrate()
    if args.trace:
        import tracer as tracing
        recorder = tracing.Tracer()
        tracing.install(recorder)
        start = time.perf_counter()
        result = recorder.run(TASK_SPAN, task, inputs)
        wall_s = time.perf_counter() - start
        layers = tracing.layer_metrics(recorder, TASK_SPAN)
    else:
        start = time.perf_counter()
        result = task(inputs)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    calibration_s = (before + calibrate()) / 2.0

    checks = [[name, bool(ok)] for name, ok in check(result)]
    if all(ok for _, ok in checks):
        for name, bad in corrupt(result):
            detected = not all(ok for _, ok in check(bad))
            checks.append([f"selftest.{name}_detected", detected])

    print(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s,
        "wall_ref_s": wall_s * REFERENCE_CALIBRATION_S / calibration_s,
        "calibration_s": calibration_s, "peak_rss_mb": peak_rss_mb,
        "checks": checks, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
