"""Hot-path bench: translation fast lane, handle inserts, parallel harness.

Writes ``benchmarks/results/BENCH_hotpath.json`` (the baseline that
``python -m repro bench-smoke`` regresses against).

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--jobs N]

Knobs mirror the figure benches: ``REPRO_BENCH_SCALE`` and
``REPRO_BENCH_RANKS`` size the Figure 2 sweep.
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.harness.bench import default_baseline_path, run_hotpath_bench


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=4,
                    help="workers for the parallel figure2 sweep")
    ap.add_argument("--n", type=int, default=200_000,
                    help="lookups per vid-microbenchmark timing")
    ap.add_argument("--out", default=default_baseline_path())
    args = ap.parse_args()

    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.12"))
    ranks = os.environ.get("REPRO_BENCH_RANKS", "8")
    ranks_cap = int(ranks) if ranks and int(ranks) > 0 else None

    result = run_hotpath_bench(
        out_path=args.out, n=args.n, scale=scale, ranks_cap=ranks_cap,
        jobs=args.jobs,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    vid = result["vid"]
    fig = result["figure2"]
    print(
        f"\nvid fast lane : {vid['fast_lookups_per_sec'] / 1e6:.2f} M/s "
        f"({vid['speedup_vs_legacy']:.1f}x legacy design, "
        f"{vid['speedup_vs_slow']:.1f}x uncached path)"
    )
    ins = result["insert"]
    print(
        f"handle insert : MPICH {ins['mpich_insert_us']:.2f} us vs "
        f"Open MPI {ins['openmpi_insert_us']:.2f} us "
        f"({ins['mpich_over_openmpi']:.1f}x)"
    )
    print(
        f"figure2 sweep : {fig['serial_seconds']:.1f}s serial -> "
        f"{fig['parallel_seconds']:.1f}s with --jobs {fig['jobs']} "
        f"({fig['speedup']:.1f}x), identical={fig['identical']}"
    )
    print(f"baseline      : {args.out}")
    return 0 if fig["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
