"""Checkpoint-pipeline bench: format-5 chunked dedup + compression.

Writes ``benchmarks/results/BENCH_ckpt.json`` (the baseline that
``python -m repro ckpt-smoke`` regresses against) and prints the
acceptance numbers: warm incremental saves must write >= 100x fewer
payload bytes than a cold format-5 save, the rank-observed warm-save
wall-clock in the async configuration (the snapshot; the drain overlaps
compute) must be <= 2x a format-4 save, and a synchronous warm save
must stay <= 6x a format-4 save.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_ckpt.py [--payload-mb M]
        [--compress-level 1,3,6,9]
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.harness.bench import default_ckpt_baseline_path, run_ckpt_bench


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--payload-mb", type=float, default=4.0,
                    help="per-rank payload size in MB")
    ap.add_argument("--ranks", type=int, default=4)
    ap.add_argument("--compress-level", default=None, metavar="L1,L2,...",
                    help="comma-separated zlib levels to sweep in "
                         "addition to the default run (e.g. 1,3,6,9)")
    ap.add_argument("--out", default=default_ckpt_baseline_path())
    args = ap.parse_args()

    levels = None
    if args.compress_level:
        levels = [int(v) for v in args.compress_level.split(",") if v]
    result = run_ckpt_bench(
        out_path=args.out, payload_mb=args.payload_mb, nranks=args.ranks,
        compress_levels=levels,
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    b = result["ckpt"]
    print(
        f"\ncold save     : {b['cold']['mb_per_s']:.1f} MB/s "
        f"({b['cold']['bytes_written']:,} bytes, "
        f"{b['cold']['chunks_written']} chunks)"
    )
    print(
        f"warm save     : {b['warm_identical']['mb_per_s']:.1f} MB/s "
        f"({b['warm_identical']['bytes_written']:,} bytes, "
        f"{b['warm_identical']['chunks_reused']} chunks reused)"
    )
    a = b["async_save"]
    print(
        f"async save    : {a['snapshot_seconds']*1000:.1f} ms blocked "
        f"(snapshot), {a['drain_seconds']*1000:.1f} ms drained behind "
        f"compute ({a['compute_iters_during_drain']} iterations "
        f"overlapped)"
    )
    print(
        f"vs format 4   : sync warm {b['warm_vs_format4_wallclock']:.2f}x, "
        f"async blocked {b['blocked_vs_format4_wallclock']:.2f}x wall-clock"
    )
    print(
        f"restore       : {b['restore']['mb_per_s']:.1f} MB/s "
        f"(chunk-verified reassembly)"
    )
    print(
        f"dedup factor  : {b['bytes_dedup_factor']:.1f}x fewer bytes "
        f"(identical state), {b['mutated_dedup_factor']:.1f}x "
        f"(2% mutated)"
    )
    for lvl, s in sorted(
        result.get("compress_level_sweep", {}).items(),
        key=lambda kv: int(kv[0]),
    ):
        print(
            f"level {lvl}       : cold {s['cold']['mb_per_s']:.1f} MB/s, "
            f"{s['cold']['bytes_written']:,} bytes on disk"
        )
    print(f"baseline      : {args.out}")
    # The acceptance bars, as ckpt-smoke enforces them: warm >= 100x
    # fewer bytes than cold, ranks blocked <= 2x a format-4 save, sync
    # warm save <= 6x a format-4 save.
    ok = (b["bytes_dedup_factor"] >= 100.0
          and b["blocked_vs_format4_wallclock"] <= 2.0
          and b["warm_vs_format4_wallclock"] <= 6.0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
