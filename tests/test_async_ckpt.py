"""Asynchronous format-5 checkpointing: snapshot at the barrier, drain
behind compute (PROTOCOLS.md §11)."""

import glob
import os

import pytest

from repro import JobConfig, Launcher
from repro.faults import FaultPlan
from repro.mana.checkpoint import (
    generation_dir,
    latest_generations,
    latest_restorable_generation,
    rank_image_path,
    read_manifest,
    restorable_generations,
    validate_generation,
)
from tests.miniapps import RingApp

NRANKS = 4
STEPS = 30


def _cfg(ckdir, **kw):
    base = dict(
        nranks=NRANKS, impl="mpich", mana=True, ckpt_dir=ckdir,
        ckpt_interval=0.4, loop_lag_window=2, ckpt_async=True,
    )
    base.update(kw)
    return JobConfig(**base)


def _run(cfg, steps=STEPS):
    job = Launcher(cfg).launch(lambda r: RingApp(steps, compute=0.05))
    res = job.run(timeout=120)
    assert res.status == "completed", res.first_error()
    return job, res


def _image_bytes(ckdir, gen):
    out = {}
    for r in range(NRANKS):
        with open(rank_image_path(ckdir, gen, r), "rb") as f:
            out[r] = f.read()
    return out


class TestAsyncCorrectness:
    def test_results_match_sync(self, tmp_path):
        sync_dir = str(tmp_path / "sync")
        async_dir = str(tmp_path / "async")
        _, sync_res = _run(_cfg(sync_dir, ckpt_async=False))
        _, async_res = _run(_cfg(async_dir))
        assert ([a.acc[0] for a in async_res.apps()]
                == [a.acc[0] for a in sync_res.apps()])
        gens = latest_generations(async_dir)
        assert len(gens) >= 2, gens
        # Every durable async generation is manifest-complete and marked.
        for gen in restorable_generations(async_dir):
            m = read_manifest(async_dir, gen)
            assert m["extra"]["async"] is True
            assert m["dedup"]["payload_bytes"] > 0
            validate_generation(async_dir, gen)

    def test_first_generation_bit_identical_to_sync(self, tmp_path):
        """The snapshot happens at the same barrier state the sync path
        pickles at, so generation 1 (taken before any divergence in
        charged checkpoint durations) must be byte-for-byte the same.
        Both round kinds build its dedup summary, manifest fields and
        ticket result with the same helpers, so those agree too."""
        sync_dir = str(tmp_path / "sync")
        async_dir = str(tmp_path / "async")
        sync_job, _ = _run(_cfg(sync_dir, ckpt_async=False))
        async_job, _ = _run(_cfg(async_dir))
        assert _image_bytes(sync_dir, 1) == _image_bytes(async_dir, 1)

        sync_m = read_manifest(sync_dir, 1)
        async_m = read_manifest(async_dir, 1)
        assert "async" not in sync_m["extra"]
        assert async_m["extra"] == dict(sync_m["extra"], **{"async": True})
        # Everything else, the dedup summary included, is identical.
        assert ({k: v for k, v in sync_m.items() if k != "extra"}
                == {k: v for k, v in async_m.items() if k != "extra"})
        sync_t, async_t = (job.coordinator.interval_tickets[0]
                           for job in (sync_job, async_job))
        assert sync_t.generation == async_t.generation == 1
        assert sync_t.result["dedup"] == async_t.result["dedup"]
        async_only = {"async", "snapshot_time", "drain_overrun", "drain_time"}
        assert async_only <= set(async_t.result)
        assert set(sync_t.result) == set(async_t.result) - async_only

    def test_async_run_is_deterministic(self, tmp_path):
        dirs = [str(tmp_path / d) for d in ("a", "b")]
        results = [_run(_cfg(d))[1] for d in dirs]
        assert results[0].runtime == results[1].runtime
        common = set(latest_generations(dirs[0])) & set(
            latest_generations(dirs[1])
        )
        assert common
        for gen in sorted(common):
            assert _image_bytes(dirs[0], gen) == _image_bytes(dirs[1], gen)

    def test_restart_from_async_images(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        base = Launcher(JobConfig(nranks=NRANKS, impl="mpich",
                                  mana=True)).run(
            lambda r: RingApp(STEPS, compute=0.05), timeout=120
        )
        expect = [a.acc[0] for a in base.apps()]
        cfg = _cfg(ckdir)
        _run(cfg)
        job2 = Launcher(cfg).restart(ckdir)
        job2.coordinator._interval = None
        res2 = job2.run(timeout=120)
        assert res2.status == "completed", res2.first_error()
        assert [a.acc[0] for a in res2.apps()] == expect


class TestAsyncAccounting:
    def test_overlap_reduces_virtual_runtime(self, tmp_path):
        """Ranks are charged the snapshot plus any drain overrun —
        strictly less than the full synchronous save cost here."""
        sync_dir = str(tmp_path / "sync")
        async_dir = str(tmp_path / "async")
        _, sync_res = _run(_cfg(sync_dir, ckpt_async=False))
        _, async_res = _run(_cfg(async_dir))
        assert async_res.runtime < sync_res.runtime

    def test_tickets_carry_async_fields(self, tmp_path):
        job, _ = _run(_cfg(str(tmp_path / "ck")))
        done = [t for t in job.coordinator.interval_tickets
                if t.result and t.error is None]
        assert done
        for t in done:
            assert t.result["async"] is True
            assert t.result["snapshot_time"] > 0.0
            assert t.result["drain_overrun"] >= 0.0
            assert t.result["dedup"]["chunks_total"] > 0
            assert t.result["drain_time"] > 0.0
        # Later rounds arrive after the previous drain's virtual span
        # has been modeled; at this interval at least one sees overrun 0
        # (fully hidden) — and none is charged more than a full drain.
        for t in done:
            assert t.result["drain_overrun"] <= t.result["drain_time"] + 1e-9


class TestAsyncPruning:
    def test_pruned_async_run_keeps_valid_generations(self, tmp_path):
        """Generation pruning + chunk GC run behind in-flight drains;
        pinning must keep every surviving manifest-ed generation fully
        restorable."""
        ckdir = str(tmp_path / "ck")
        _run(_cfg(ckdir, ckpt_keep_generations=2))
        gens = latest_generations(ckdir)
        assert 0 < len(gens) <= 2
        for gen in restorable_generations(ckdir):
            validate_generation(ckdir, gen)
        # No generation remains pinned after the job drains out.
        from repro.mana.checkpoint import pinned_generations
        assert pinned_generations(ckdir) == set()


class TestAsyncDrainFailure:
    def test_drain_fault_fails_generation_not_job(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        plan = FaultPlan().crash_in_checkpoint(
            rank=1, generation=2, site="mid-save"
        )
        cfg = _cfg(ckdir, faults=plan)
        job, res = _run(cfg)
        # The app never saw the fault: the drain absorbed it.
        events = [e for e in job.coordinator.round_events
                  if e.get("event") == "async-drain-failed"]
        assert events and events[0]["generation"] == 2
        # Generation 2 is gone — no partial images, no manifest.
        assert not glob.glob(
            os.path.join(generation_dir(ckdir, 2), "rank_*")
        )
        assert 2 not in restorable_generations(ckdir)
        failed = [t for t in job.coordinator.interval_tickets
                  if t.error is not None]
        assert failed and "injected" in str(failed[0].error)

    def test_restart_falls_back_to_previous_generation(self, tmp_path):
        ckdir = str(tmp_path / "ck")
        base = Launcher(JobConfig(nranks=NRANKS, impl="mpich",
                                  mana=True)).run(
            lambda r: RingApp(STEPS, compute=0.05), timeout=120
        )
        expect = [a.acc[0] for a in base.apps()]
        plan = FaultPlan().crash_in_checkpoint(
            rank=0, generation=2, site="mid-save"
        )
        _run(_cfg(ckdir, faults=plan))
        latest = latest_restorable_generation(ckdir)
        assert latest is not None and latest != 2
        cfg2 = _cfg(ckdir)
        job2 = Launcher(cfg2).restart(ckdir)
        job2.coordinator._interval = None
        res2 = job2.run(timeout=120)
        assert res2.status == "completed", res2.first_error()
        assert [a.acc[0] for a in res2.apps()] == expect
