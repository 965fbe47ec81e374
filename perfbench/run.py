"""Benchmark entry point.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 50 --trace 0

Runs passes of one workload (see :mod:`workloads`) for ``--seconds``
seconds, checks every job with the output oracle, and prints one JSON
object as its last line: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``.  Run it from the root of a
checkout; it builds nothing and reads and writes only inside the
checkout (work files go to ``.perfbench_work/``, removed on exit).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 15


def _bootstrap() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {SRC}; run from the "
                 f"root of a checkout")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def _make_workload(name: str, seed: int, workdir: str):
    import blocks
    import workloads
    from repro.apps import APP_CLASSES

    blocks.install(set(APP_CLASSES.values()))
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.make_inputs()
    wl.warm_up()
    return wl


def _measure_setup(args, workdir: str) -> float:
    """Median wall time of fresh interpreters that start, import, build
    the workload's inputs and warm up, then exit."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"setup-probe-{i}")
        os.makedirs(probe_dir)
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # and the measured time snaps to that grid.
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             probe_dir, "--workload", args.workload,
             "--seed", str(args.seed)],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(n: int) -> int:
    """Highest whole percentile that ``n`` samples support: with linear
    interpolation it still leaves two samples above it (never below the
    median)."""
    return max(50, 100 * (n - 3) // (n - 1)) if n > 3 else 50


def _run_passes(wl, seconds: float, min_passes: int, out: list) -> None:
    """Run at least ``min_passes`` passes, then more while the next one
    (estimated as long as the last) still ends within ``seconds``."""
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(wl.run_pass())
        now = time.perf_counter()
        # Jobs leave reference cycles (threads, coordinators); collect
        # them between passes so peak memory does not depend on when
        # the collector happens to run.
        gc.collect()
        print(f"pass {len(out)}: {now - t:.2f} s, peak RSS {_peak_rss_mb():.0f} MB")
        if len(out) >= min_passes and now + (now - t) - t0 > seconds:
            return


def _end_to_end(passes, setup_s: float) -> dict:
    # A run whose jobs failed may lack samples; it still reports (as
    # incorrect) rather than crash.
    blocked = [b for p in passes for b in p.blocked_s] or [0.0]
    restarts = [r for p in passes for r in p.restart_s] or [0.0]
    written = sum(p.bytes_written for p in passes)
    payload = sum(p.payload_bytes for p in passes) or 1
    pct = tail_percentile(len(blocked))
    print(f"ckpt_blocked_s.tail is p{pct} of {len(blocked)} rounds; "
          f"restart_s is the median of {len(restarts)} restarts; "
          f"wall_s is the median of {len(passes)} passes")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "ckpt_blocked_s.p50": (float(np.percentile(blocked, 50)), "s"),
        "ckpt_blocked_s.tail": (float(np.percentile(blocked, pct)), "s"),
        "restart_s": (statistics.median(restarts), "s"),
        "store_bytes_per_state_byte": (written / payload, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        tempfile.tempdir = args.setup_probe
        _make_workload(args.workload, args.seed, args.setup_probe)
        return 0

    # A terminated run still removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    # Anything the program puts in a temporary directory stays in the
    # checkout too.
    tempfile.tempdir = workdir
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def _run(args, workdir: str) -> int:
    setup_s = _measure_setup(args, workdir)
    wl = _make_workload(args.workload, args.seed, workdir)
    wl.references()
    passes: list = []
    if args.trace:
        import layers

        metrics = layers.traced_run(wl, args.seconds, passes, _run_passes)
    else:
        _run_passes(wl, args.seconds, 2, passes)
        metrics = _end_to_end(passes, setup_s)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [m for p in passes for m in p.problems]
    for msg in problems[:20]:
        print(f"oracle: {msg}", file=sys.stderr)
    side: dict = {}
    for p in passes:
        for name, values in p.side.items():
            side.setdefault(name, []).extend(values)
    for name, values in side.items():
        if values:
            print(f"{name}: median {statistics.median(values):.4f} of "
                  f"{len(values)}")
    drift = wl.vtimes.max_drift()
    print(f"largest virtual-runtime drift across passes: {drift!r} s")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
