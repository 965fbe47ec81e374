"""Hot-path benchmarks: translation fast lane + parallel harness.

Two measurements back the fast-lane work (see docs/PROTOCOLS.md §8):

* **vid microbenchmark** — raw handle-translation throughput
  (lookups/second) for three code paths: the fast lane (cache hit),
  the full single-table path with the cache bypassed (what every
  translation cost before the fast lane), and the legacy per-type
  string-keyed design (the paper's §4.1 baseline).  The headline ratio
  is fast-vs-legacy, the axis the paper's lookup ablation measures;
  fast-vs-slow is recorded too.
* **figure2 sweep** — wall-clock for the Figure 2 sweep run serially vs
  with ``--jobs N`` workers, asserting the rendered values are
  byte-identical (virtual time is scheduling-independent).
* **handle insert** — µs per dynamic-handle insert in the MPICH two-level
  table and the Open MPI pointer heap, timed in the same run.  Their
  ratio does not depend on the machine's speed.

``python -m repro bench-smoke`` runs a tiny version of the
microbenchmark and fails when the fast lane's same-run speedup over the
legacy design falls more than ``max_regression``× below the checked-in
baseline's (benchmarks/results/BENCH_hotpath.json), making hot-path
regressions a CI failure rather than a surprise.  It also fails when an
MPICH insert costs more than ``MAX_INSERT_RATIO``× an Open MPI insert.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

#: Checked-in baseline, relative to the repository root.
BASELINE_RELPATH = os.path.join(
    "benchmarks", "results", "BENCH_hotpath.json"
)
#: Checkpoint-pipeline baseline (cold/warm/restore), repo-relative.
CKPT_BASELINE_RELPATH = os.path.join(
    "benchmarks", "results", "BENCH_ckpt.json"
)


def _repo_root() -> str:
    return os.path.dirname(
        os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    )


def default_baseline_path() -> str:
    return os.path.join(_repo_root(), BASELINE_RELPATH)


def default_ckpt_baseline_path() -> str:
    return os.path.join(_repo_root(), CKPT_BASELINE_RELPATH)


# ----------------------------------------------------------------------
# vid microbenchmark
# ----------------------------------------------------------------------
def _populated_tables(entries: int = 64):
    """One table per design, each holding ``entries`` request handles."""
    from repro.mana.legacy import LegacyVirtualIdMaps
    from repro.mana.virtid import VirtualIdTable
    from repro.mpi.api import HandleKind

    new = VirtualIdTable(handle_bits=32)
    legacy = LegacyVirtualIdMaps(handle_bits=32)
    new_vhs: List[int] = []
    legacy_vhs: List[int] = []
    for i in range(entries):
        new_vhs.append(
            new.attach(HandleKind.REQUEST, object(), phys=1000 + i)
        )
        legacy_vhs.append(
            legacy.attach(HandleKind.REQUEST, object(), phys=1000 + i)
        )
    return new, new_vhs, legacy, legacy_vhs


def _rate(fn, handles: List[int], n: int, repeats: int) -> float:
    """Best-of-``repeats`` calls/second for ``fn(handle)`` over ``n``
    calls round-robined across ``handles``."""
    seq = [handles[i % len(handles)] for i in range(n)]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for vh in seq:
            fn(vh)
        best = min(best, time.perf_counter() - t0)
    return n / best if best > 0 else float("inf")


def bench_vid_lookup(n: int = 200_000, entries: int = 64,
                     repeats: int = 3) -> Dict:
    """Translation throughput (lookups/sec) for the three designs."""
    from repro.mpi.api import HandleKind

    new, new_vhs, legacy, legacy_vhs = _populated_tables(entries)
    kind = HandleKind.REQUEST

    # Warm the fast lane, then measure pure cache hits.
    for vh in new_vhs:
        new.phys(vh, kind)
    fast = _rate(lambda vh: new.phys(vh, kind), new_vhs, n, repeats)

    # The pre-fast-lane cost of every translation: extract + entry dict
    # + kind check + None-phys check, no cache consulted.
    slow = _rate(
        lambda vh: new._lookup_slow(vh, kind).phys, new_vhs, n, repeats
    )

    # The paper's §4.1 baseline: string key construction + per-type maps
    # + separate metadata maps on every call.
    legacy_rate = _rate(
        lambda vh: legacy.phys(vh, kind), legacy_vhs, n, repeats
    )

    return {
        "n": n,
        "entries": entries,
        "fast_lookups_per_sec": fast,
        "slow_lookups_per_sec": slow,
        "legacy_lookups_per_sec": legacy_rate,
        "speedup_vs_slow": fast / slow,
        "speedup_vs_legacy": fast / legacy_rate,
    }


# ----------------------------------------------------------------------
# handle insert: MPICH two-level table vs Open MPI pointer heap
# ----------------------------------------------------------------------
#: Bound on MPICH µs per insert over Open MPI µs per insert.  Measured
#: 5-9x with lazily built pages and 100-200x when every insert built a
#: 65,536-slot page list and threw it away.
MAX_INSERT_RATIO = 25.0
#: Timings per design; the best one is reported.
INSERT_REPEATS = 3


def bench_handle_insert(n: int = 2_000) -> Dict:
    """Best-of-``INSERT_REPEATS`` µs per dynamic-handle insert, per design.

    Each timing inserts ``n`` requests into a fresh handle space after
    one untimed insert, so the MPICH page the inserts land in exists.
    """
    from repro.impls.mpich import TwoLevelHandleSpace
    from repro.impls.openmpi import PointerHandleSpace
    from repro.mpi.api import HandleKind
    from repro.util.rng import DeterministicRng

    kind = HandleKind.REQUEST
    obj = object()

    def per_insert_us(make_space) -> float:
        best = float("inf")
        for _ in range(INSERT_REPEATS):
            insert = make_space().insert
            insert(kind, obj)
            t0 = time.perf_counter()
            for _ in range(n):
                insert(kind, obj)
            best = min(best, time.perf_counter() - t0)
        return 1e6 * best / n

    mpich = per_insert_us(TwoLevelHandleSpace)
    openmpi = per_insert_us(lambda: PointerHandleSpace(DeterministicRng(0)))
    return {
        "n": n,
        "mpich_insert_us": mpich,
        "openmpi_insert_us": openmpi,
        "mpich_over_openmpi": mpich / openmpi,
    }


# ----------------------------------------------------------------------
# figure2 sweep: serial vs --jobs wall-clock
# ----------------------------------------------------------------------
def bench_figure2_sweep(scale: float = 0.12,
                        ranks_cap: Optional[int] = 8,
                        jobs: int = 4) -> Dict:
    """Wall-clock of the Figure 2 sweep, serial vs ``jobs`` workers.

    Also checks the acceptance property that matters: the parallel run's
    rendered values are identical to the serial run's.
    """
    from repro.harness.experiments import figure2
    from repro.harness.runner import CaseCache

    t0 = time.perf_counter()
    serial = figure2(scale, ranks_cap, CaseCache())
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = figure2(scale, ranks_cap, CaseCache(), jobs=jobs)
    parallel_s = time.perf_counter() - t0

    from repro.harness.parallel import default_jobs

    return {
        "scale": scale,
        "ranks_cap": ranks_cap,
        "jobs": jobs,
        # Cases are CPU-bound, so speedup approaches min(jobs, cpus);
        # recorded so single-core container numbers read correctly.
        "cpus": default_jobs(),
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "identical": serial["data"] == parallel["data"],
    }


# ----------------------------------------------------------------------
# full bench + smoke check
# ----------------------------------------------------------------------
def run_hotpath_bench(out_path: Optional[str] = None,
                      n: int = 200_000,
                      scale: float = 0.12,
                      ranks_cap: Optional[int] = 8,
                      jobs: int = 4) -> Dict:
    """The full hot-path bench; writes JSON when ``out_path`` is given."""
    import platform as _platform

    result = {
        "python": _platform.python_version(),
        "vid": bench_vid_lookup(n=n),
        "insert": bench_handle_insert(),
        "figure2": bench_figure2_sweep(scale, ranks_cap, jobs),
    }
    if out_path:
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
    return result


# ----------------------------------------------------------------------
# checkpoint pipeline bench (format 5: chunked dedup + compression)
# ----------------------------------------------------------------------
def _ckpt_bench_image(rank: int, nranks: int, payload, generation: int):
    from repro.mana.checkpoint import CheckpointImage
    from repro.mana.drain import DrainBuffer
    from repro.mana.virtid import VirtualIdTable

    return CheckpointImage(
        rank=rank,
        nranks=nranks,
        impl="mpich",
        kind="loop",
        generation=generation,
        app={"state": payload},
        loops={"main": generation},
        vid_table=VirtualIdTable(32),
        drain_buffer=DrainBuffer(),
        clock_state={"now": float(generation), "accounts": {}},
        rng_state=None,
        cs_count=0,
        epoch=generation - 1,
    )


def bench_checkpoint(payload_mb: float = 4.0,
                     nranks: int = 4,
                     mutate_fraction: float = 0.02,
                     compress_level: int = 3) -> Dict:
    """Format-5 checkpoint pipeline throughput + dedup factors.

    Measures saves of ``nranks`` images, each carrying a
    ``payload_mb``-MB incompressible numpy payload:

    * **cold** — generation 1, empty chunk store: every chunk written.
    * **warm_identical** — generation 2, app state unchanged: only the
      image headers and the few chunks carrying generation-dependent
      metadata are rewritten.  ``bytes_dedup_factor`` (cold bytes
      written / warm bytes written) is an acceptance number — it must
      be ≥ 100 (in practice it is orders of magnitude higher).
    * **warm_mutated** — generation 3 after overwriting a contiguous
      ``mutate_fraction`` of each rank's payload: content-defined
      boundaries resync after the edit, so bytes written scale with
      the change, not the payload.
    * **async_save** — generation 5 saved the asynchronous way:
      snapshot (pickle) timed separately from the background drain,
      with a compute loop spinning in the "rank" thread while the
      drain runs — ``compute_iters_during_drain`` > 0 is the measured
      overlap.

    Then restores generation 3 (full reassembly + per-chunk sha256
    verification) and, for comparison, saves the same state in the
    monolithic format-4 layout.  The async ranks' blocked time over the
    format-4 save, ``blocked_vs_format4_wallclock``, must be ≤ 2, and
    the sync warm save's, ``warm_vs_format4_wallclock``, ≤ 6.
    """
    import shutil
    import tempfile
    import threading

    import numpy as np

    from repro.mana import checkpoint as ckpt
    from repro.mana.chunkstore import ChunkStore

    per_rank = int(payload_mb * 1_000_000)
    rng = np.random.default_rng(20230715)
    payloads = [
        rng.integers(0, 256, size=per_rank, dtype=np.uint8)
        for _ in range(nranks)
    ]
    logical_total = per_rank * nranks

    tmp = tempfile.mkdtemp(prefix="repro-ckpt-bench-")
    try:
        store = ChunkStore(tmp, compress_level=compress_level)

        def run_ranked(fn):
            """Round wall-clock with every rank working concurrently —
            the production shape (each rank saves from its own thread;
            numpy hashing and compression release the GIL)."""
            results = [None] * nranks
            errors = []

            def _one(r):
                try:
                    results[r] = fn(r)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=_one, args=(r,))
                for r in range(nranks)
            ]
            t0 = time.perf_counter()
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            secs = time.perf_counter() - t0
            if errors:
                raise errors[0]
            return results, secs

        def save_generation(gen: int):
            def _save_rank(r):
                path = ckpt.rank_image_path(tmp, gen, r)
                img = _ckpt_bench_image(r, nranks, payloads[r], gen)
                return ckpt.save_chunked_image(path, img, store)

            stats, secs = run_ranked(_save_rank)
            agg = ckpt.round_dedup(stats)
            agg["seconds"] = secs
            agg["mb_per_s"] = (logical_total / 1e6) / secs if secs > 0 \
                else float("inf")
            return agg

        cold = save_generation(1)
        warm_identical = save_generation(2)
        span = max(1, int(per_rank * mutate_fraction))
        for r in range(nranks):
            start = (r * 7919) % max(1, per_rank - span)
            payloads[r][start:start + span] ^= 0xA5
        warm_mutated = save_generation(3)

        # Async column: snapshot (what the ranks block on) timed apart
        # from the drain (what rides behind compute).  The compute loop
        # below runs in this thread while the drainer thread writes —
        # iterations completed during the drain are the measured
        # overlap.
        def _snapshot_rank(r):
            img = _ckpt_bench_image(r, nranks, payloads[r], 5)
            return (
                ckpt.rank_image_path(tmp, 5, r), img,
                ckpt._pickle_upper_half(img),
            )

        staged, snapshot_s = run_ranked(_snapshot_rank)
        drain_result: Dict = {}

        def _drain():
            t1 = time.perf_counter()
            for path, img, blob in staged:
                ckpt.save_chunked_blob(path, img, blob, store)
            drain_result["seconds"] = time.perf_counter() - t1

        th = threading.Thread(target=_drain, name="bench-drain")
        th.start()
        compute_iters = 0
        scratch = np.zeros(1 << 20, dtype=np.uint64)
        while th.is_alive():
            np.cumsum(scratch, out=scratch)
            compute_iters += 1
        th.join()
        async_save = {
            "snapshot_seconds": snapshot_s,
            "drain_seconds": drain_result.get("seconds", 0.0),
            "compute_iters_during_drain": compute_iters,
            "blocked_fraction_vs_sync": (
                snapshot_s / warm_mutated["seconds"]
                if warm_mutated["seconds"] > 0 else 0.0
            ),
        }

        t0 = time.perf_counter()
        restored = [
            ckpt.load_image(ckpt.rank_image_path(tmp, 3, r))
            for r in range(nranks)
        ]
        restore_s = time.perf_counter() - t0
        for r, img in enumerate(restored):
            if not np.array_equal(img.app["state"], payloads[r]):
                raise AssertionError(
                    f"restored payload mismatch for rank {r}"
                )

        fmt4_dir = os.path.join(tmp, "fmt4")

        def _save_fmt4(r):
            path = ckpt.rank_image_path(fmt4_dir, 1, r)
            return ckpt.save_image(
                path, _ckpt_bench_image(r, nranks, payloads[r], 1)
            )

        fmt4_sizes, fmt4_s = run_ranked(_save_fmt4)
        fmt4_bytes = sum(fmt4_sizes)

        def factor(baseline: Dict, warm: Dict) -> float:
            if warm["bytes_written"] <= 0:
                return float("inf")
            return baseline["bytes_written"] / warm["bytes_written"]

        return {
            "payload_mb": payload_mb,
            "nranks": nranks,
            "mutate_fraction": mutate_fraction,
            "compress_level": compress_level,
            "cold": cold,
            "warm_identical": warm_identical,
            "warm_mutated": warm_mutated,
            "async_save": async_save,
            "restore": {
                "seconds": restore_s,
                "mb_per_s": (logical_total / 1e6) / restore_s
                if restore_s > 0 else float("inf"),
            },
            "format4": {"seconds": fmt4_s, "bytes_written": fmt4_bytes},
            "warm_vs_format4_wallclock": (
                warm_identical["seconds"] / fmt4_s if fmt4_s > 0
                else float("inf")
            ),
            # What the ranks actually block on in the async production
            # configuration (ckpt_async=True): the snapshot.  The drain
            # rides behind compute.
            "blocked_vs_format4_wallclock": (
                async_save["snapshot_seconds"] / fmt4_s if fmt4_s > 0
                else float("inf")
            ),
            "bytes_dedup_factor": factor(cold, warm_identical),
            "mutated_dedup_factor": factor(cold, warm_mutated),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_ckpt_bench(out_path: Optional[str] = None,
                   payload_mb: float = 4.0,
                   nranks: int = 4,
                   compress_levels: Optional[List[int]] = None) -> Dict:
    """The full checkpoint bench; writes JSON when ``out_path`` given.

    ``compress_levels`` adds a sweep: the bench re-runs at each zlib
    level (1 = fastest, 9 = smallest) so the write-bandwidth /
    CPU-time trade can be read off one report.
    """
    import platform as _platform

    result = {
        "python": _platform.python_version(),
        "ckpt": bench_checkpoint(payload_mb=payload_mb, nranks=nranks),
    }
    if compress_levels:
        result["compress_level_sweep"] = {
            str(lvl): bench_checkpoint(
                payload_mb=payload_mb, nranks=nranks, compress_level=lvl
            )
            for lvl in compress_levels
        }
    if out_path:
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
    return result


def ckpt_smoke(baseline_path: Optional[str] = None,
               max_regression: float = 5.0,
               payload_mb: float = 4.0) -> Dict:
    """Small checkpoint bench vs the checked-in baseline.

    Fails when cold-save or restore throughput regresses more than
    ``max_regression``× against BENCH_ckpt.json, or when one of the
    pipeline's acceptance properties no longer holds:

    * warm identical-state save writes ≥ 100x fewer payload bytes than
      the cold save (dedup);
    * the rank-observed warm-save wall-clock in the async configuration
      (the snapshot — the drain overlaps compute) is ≤ 2x a format-4
      save of the same state;
    * the synchronous warm encode stays within 6x of format 4 — the
      guard on the vectorized boundary scan (~20x before it).
    """
    baseline_path = baseline_path or default_ckpt_baseline_path()
    with open(baseline_path) as f:
        baseline = json.load(f)
    now = bench_checkpoint(payload_mb=payload_mb, nranks=2)
    checks = []
    ok = True
    for metric, base, cur in (
        ("cold_save_mb_per_s", baseline["ckpt"]["cold"]["mb_per_s"],
         now["cold"]["mb_per_s"]),
        ("restore_mb_per_s", baseline["ckpt"]["restore"]["mb_per_s"],
         now["restore"]["mb_per_s"]),
    ):
        ratio = base / cur if cur > 0 else float("inf")
        good = ratio <= max_regression
        ok = ok and good
        checks.append({
            "metric": metric,
            "baseline": base,
            "current": cur,
            "slowdown": ratio,
            "ok": good,
        })
    # Acceptance properties — absolute bounds, not baseline-relative.
    for metric, bound, cur, good in (
        ("bytes_dedup_factor", 100.0, now["bytes_dedup_factor"],
         now["bytes_dedup_factor"] >= 100.0),
        ("warm_blocked_vs_format4", 2.0,
         now["blocked_vs_format4_wallclock"],
         now["blocked_vs_format4_wallclock"] <= 2.0),
        ("warm_sync_vs_format4", 6.0,
         now["warm_vs_format4_wallclock"],
         now["warm_vs_format4_wallclock"] <= 6.0),
    ):
        ok = ok and good
        checks.append({
            "metric": metric,
            "baseline": bound,
            "current": cur,
            "slowdown": None,
            "ok": good,
        })
    return {"ok": ok, "max_regression": max_regression, "checks": checks}


def smoke(baseline_path: Optional[str] = None,
          max_regression: float = 5.0,
          n: int = 20_000) -> Dict:
    """Tiny vid bench vs the checked-in baseline, plus the insert ratio.

    Both checks are ratios of two timings taken in the same run, so
    they do not depend on the machine's speed.  ``ok`` is False when
    the fast lane's speedup over the legacy design has fallen more than
    ``max_regression``× below the baseline's (e.g. an invalidation bug
    made every hit a miss, or the hot path grew accidental work), or
    when an MPICH handle insert costs more than ``MAX_INSERT_RATIO``
    Open MPI inserts.
    """
    baseline_path = baseline_path or default_baseline_path()
    with open(baseline_path) as f:
        baseline = json.load(f)
    now = bench_vid_lookup(n=n, repeats=2)
    base = baseline["vid"]["speedup_vs_legacy"]
    cur = now["speedup_vs_legacy"]
    slowdown = base / cur if cur > 0 else float("inf")
    ok = slowdown <= max_regression
    checks = [{
        "metric": "speedup_vs_legacy",
        "baseline": base,
        "current": cur,
        "slowdown": slowdown,
        "ok": ok,
    }]
    # Same-run ratio against an absolute bound (listed as the baseline).
    ratio = bench_handle_insert(n=500)["mpich_over_openmpi"]
    cheap = ratio <= MAX_INSERT_RATIO
    ok = ok and cheap
    checks.append({
        "metric": "mpich_over_openmpi_insert",
        "baseline": MAX_INSERT_RATIO,
        "current": ratio,
        "slowdown": None,
        "ok": cheap,
    })
    return {"ok": ok, "max_regression": max_regression, "checks": checks}
