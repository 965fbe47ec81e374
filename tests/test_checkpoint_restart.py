"""Integration: transparent checkpoint/restart across all implementations.

The contract under test: for any checkpoint kind/mode, the final
application state equals that of an uninterrupted run — no lost messages,
no duplicated work, all MPI objects semantically reconstructed.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro import CheckpointKind, CheckpointMode, JobConfig, Launcher
from repro.apps import HpcgProxy
from repro.mana.records import CommRecord
from repro.util.errors import CheckpointError
from tests.conftest import ALL_IMPLS
from tests.miniapps import PendingIrecvApp, RingApp, SkewedSendersApp

NRANKS = 4


def run_baseline(app_factory, impl, **cfg_kw):
    res = Launcher(
        JobConfig(nranks=NRANKS, impl=impl, mana=True, **cfg_kw)
    ).run(app_factory, timeout=120)
    assert res.status == "completed", res.first_error()
    return res


def run_with_checkpoint(app_factory, impl, at_iter, kind, mode, **cfg_kw):
    job = Launcher(
        JobConfig(nranks=NRANKS, impl=impl, mana=True, **cfg_kw)
    ).launch(app_factory)
    ticket = job.checkpoint_at_iteration("main", at_iter, kind=kind, mode=mode)
    job.start()
    info = ticket.wait(120)
    res = job.wait(120)
    return res, info


@pytest.mark.parametrize("impl", ALL_IMPLS)
@pytest.mark.parametrize("mode", [CheckpointMode.CONTINUE, CheckpointMode.RELAUNCH])
def test_in_session_checkpoint_preserves_results(impl, mode):
    base = run_baseline(lambda r: RingApp(30), impl)
    expect = [a.acc[0] for a in base.apps()]
    res, info = run_with_checkpoint(
        lambda r: RingApp(30), impl, 11, CheckpointKind.IN_SESSION, mode
    )
    assert res.status == "completed", res.first_error()
    assert [a.acc[0] for a in res.apps()] == expect
    assert info["generation"] == 1
    assert info["ckpt_time"] > 0


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_relaunch_rebinds_physical_ids(impl):
    """After a relaunch, the lower half is a NEW library instance; the
    app continues using its old virtual handles untouched."""
    job = Launcher(JobConfig(nranks=NRANKS, impl=impl, mana=True)).launch(
        lambda r: RingApp(24)
    )
    tk = job.checkpoint_at_iteration(
        "main", 8, kind=CheckpointKind.IN_SESSION, mode=CheckpointMode.RELAUNCH
    )
    job.start()
    tk.wait(120)
    res = job.wait(120)
    assert res.status == "completed", res.first_error()
    for mana in job.manas:
        assert mana.epoch == 1  # lower half was replaced exactly once


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_in_flight_messages_drained_and_replayed(impl):
    base = run_baseline(lambda r: SkewedSendersApp(20), impl)
    expect = [a.received for a in base.apps()]
    res, info = run_with_checkpoint(
        lambda r: SkewedSendersApp(20), impl, 7,
        CheckpointKind.IN_SESSION, CheckpointMode.RELAUNCH,
    )
    assert res.status == "completed", res.first_error()
    got = [a.received for a in res.apps()]
    assert got == expect
    for app in res.apps():
        assert app.validate(None) is None  # ordering preserved


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_pending_irecv_survives_relaunch(impl):
    res, _ = run_with_checkpoint(
        lambda r: PendingIrecvApp(24), impl, 9,
        CheckpointKind.IN_SESSION, CheckpointMode.RELAUNCH,
    )
    assert res.status == "completed", res.first_error()
    for app in res.apps():
        assert app.validate(None) is None


@pytest.mark.parametrize("impl", ALL_IMPLS)
def test_preempt_and_cold_restart(impl, tmp_path):
    base = run_baseline(lambda r: RingApp(26), impl)
    expect = [a.acc[0] for a in base.apps()]

    ckdir = str(tmp_path / "ck")
    cfg = JobConfig(nranks=NRANKS, impl=impl, mana=True, ckpt_dir=ckdir)
    job = Launcher(cfg).launch(lambda r: RingApp(26))
    tk = job.checkpoint_at_iteration(
        "main", 6, kind=CheckpointKind.LOOP, mode=CheckpointMode.EXIT
    )
    job.start()
    info = tk.wait(120)
    res = job.wait(120)
    assert res.status == "preempted"
    # Work done so far is bounded by the elected target iteration.
    assert all(len(a.trace) <= info["loop_target"] for a in res.apps())

    job2 = Launcher(cfg).restart(ckdir)
    res2 = job2.run(timeout=120)
    assert res2.status == "completed", res2.first_error()
    assert [a.acc[0] for a in res2.apps()] == expect


def test_multiple_checkpoints_same_run():
    base = run_baseline(lambda r: RingApp(36), "mpich")
    expect = [a.acc[0] for a in base.apps()]
    job = Launcher(JobConfig(nranks=NRANKS, impl="mpich", mana=True)).launch(
        lambda r: RingApp(36)
    )
    t1 = job.checkpoint_at_iteration("main", 6, mode=CheckpointMode.RELAUNCH)
    job.start()
    i1 = t1.wait(120)
    t2 = job.coordinator.checkpoint_at_iteration(
        "main", 20, mode=CheckpointMode.RELAUNCH
    )
    i2 = t2.wait(120)
    res = job.wait(120)
    assert res.status == "completed", res.first_error()
    assert (i1["generation"], i2["generation"]) == (1, 2)
    assert [a.acc[0] for a in res.apps()] == expect
    assert all(m.epoch == 2 for m in job.manas)


def test_restart_then_checkpoint_again(tmp_path):
    """Cold restart followed by another preemption and another restart."""
    base = run_baseline(lambda r: RingApp(30), "mpich")
    expect = [a.acc[0] for a in base.apps()]

    ckdir = str(tmp_path / "ck")
    cfg = JobConfig(nranks=NRANKS, impl="mpich", mana=True, ckpt_dir=ckdir)
    job = Launcher(cfg).launch(lambda r: RingApp(30))
    tk = job.checkpoint_at_iteration("main", 4, kind="loop", mode="exit")
    job.start()
    tk.wait(120)
    assert job.wait(120).status == "preempted"

    job2 = Launcher(cfg).restart(ckdir)
    tk2 = job2.coordinator.checkpoint_at_iteration(
        "main", 18, kind="loop", mode="exit"
    )
    job2.start()
    tk2.wait(120)
    assert job2.wait(120).status == "preempted"

    job3 = Launcher(cfg).restart(ckdir)  # latest generation
    res3 = job3.run(timeout=120)
    assert res3.status == "completed", res3.first_error()
    assert [a.acc[0] for a in res3.apps()] == expect


def test_in_session_image_not_cold_restartable(tmp_path):
    ckdir = str(tmp_path / "ck")
    cfg = JobConfig(nranks=NRANKS, impl="mpich", mana=True, ckpt_dir=ckdir)
    job = Launcher(cfg).launch(lambda r: RingApp(20))
    tk = job.checkpoint_at_iteration("main", 5, kind="in-session")
    job.start()
    tk.wait(120)
    assert job.wait(120).status == "completed"
    from repro.util.errors import RestartError

    with pytest.raises(RestartError, match="cold-restartable"):
        Launcher(cfg).restart(ckdir)


def test_loop_checkpoint_past_end_is_cancelled():
    job = Launcher(JobConfig(nranks=NRANKS, impl="mpich", mana=True)).launch(
        lambda r: RingApp(10)
    )
    # target = 9 + lag(8) = beyond the loop end -> must cancel, not hang
    tk = job.checkpoint_at_iteration("main", 9, kind="loop", mode="exit")
    job.start()
    with pytest.raises(CheckpointError, match="cancelled"):
        tk.wait(120)
    assert job.wait(120).status == "completed"


def test_checkpoint_after_completion_is_cancelled():
    job = Launcher(JobConfig(nranks=NRANKS, impl="mpich", mana=True)).launch(
        lambda r: RingApp(6)
    )
    res = job.start().wait(120)
    assert res.status == "completed"
    ticket = job.request_checkpoint()
    # the job already cancelled pending work at wait(); a fresh request
    # must fail fast at the next wait() rather than hang
    job.coordinator.cancel_pending("test cleanup")
    with pytest.raises(CheckpointError):
        ticket.wait(5)


def test_clock_includes_checkpoint_cost():
    base = run_baseline(lambda r: RingApp(20), "mpich")
    res, info = run_with_checkpoint(
        lambda r: RingApp(20), "mpich", 8,
        CheckpointKind.IN_SESSION, CheckpointMode.CONTINUE,
    )
    assert res.runtime >= base.runtime + info["ckpt_time"] * 0.9


def test_checkpoint_image_sizes_reported():
    res, info = run_with_checkpoint(
        lambda r: RingApp(20), "mpich", 8,
        CheckpointKind.IN_SESSION, CheckpointMode.CONTINUE,
    )
    assert len(info["bytes_per_rank"]) == NRANKS
    assert all(b > 100 for b in info["bytes_per_rank"])


def test_ledgers_pickle_in_world_rank_order():
    a = CommRecord(world_ranks=(0, 1, 2, 3), ggid=7, dup_seq=0)
    b = CommRecord(world_ranks=(0, 1, 2, 3), ggid=7, dup_seq=0)
    for peer in (3, 0, 2, 1):
        a.sent_to[peer] = peer + 1
        a.received_from[(peer + 1) % 4] = peer
    for peer in (1, 2, 0, 3):
        b.sent_to[peer] = peer + 1
        b.received_from[(peer + 1) % 4] = peer
    assert pickle.dumps(a) == pickle.dumps(b)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and list(back.sent_to) == [0, 1, 2, 3]


def test_checkpointed_runtime_is_deterministic(tmp_path):
    # Ledger order and the rounding of the idle total follow message
    # arrival unless normalised; either reaches the image's compressed
    # size and from there the charged virtual time.
    nranks = 8
    spec = replace(HpcgProxy.paper_config("discovery"), nranks=nranks,
                   blocks=6, seed=5)
    runtimes = set()
    for i in range(3):
        cfg = JobConfig(nranks=nranks, seed=5, impl="mpich", mana=True,
                        ckpt_dir=str(tmp_path / f"ck{i}"), loop_lag_window=1)
        job = Launcher(cfg).launch(lambda r: HpcgProxy(spec))
        for it in (1, 3):
            job.checkpoint_at_iteration("main", it, kind=CheckpointKind.LOOP,
                                        mode=CheckpointMode.CONTINUE)
        res = job.run(timeout=120)
        assert res.status == "completed", res.first_error()
        runtimes.add(res.runtime)
    assert len(runtimes) == 1, sorted(runtimes)
