"""Tests of the benchmark itself: tracer arithmetic, oracle, seeds.

Run with ``python -m pytest perfbench -q`` from the repository root
(about a minute: the workload tests run real passes).
"""

from __future__ import annotations

import pickle
import sys
import threading
import types
from dataclasses import replace

import pytest

import blocks
import layers
import oracle
import workloads
from repro.apps import APP_CLASSES
from repro.faults import FaultPlan
from repro.runtime import JobConfig, Launcher
from tracer import Tracer

blocks.install(set(APP_CLASSES.values()))


class ScriptedClock:
    """Per-thread clock that only moves when a test advances it."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "now", 0.0)

    def advance(self, seconds: float) -> None:
        self._local.now = self() + seconds


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans_on_two_threads():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock, cpu_clock=clock)
    both_inside = threading.Barrier(2, timeout=10)

    def leaf(seconds):
        clock.advance(seconds)

    leaf_w = tracer.wrap("leaf", "leaf", leaf)

    def middle(scale):
        clock.advance(1.0 * scale)
        both_inside.wait()        # both threads are inside spans now
        leaf_w(2.0 * scale)
        clock.advance(1.0 * scale)

    middle_w = tracer.wrap("middle", "middle", middle)

    def top(scale):
        clock.advance(0.5 * scale)
        middle_w(scale)
        leaf_w(0.25 * scale)

    top_w = tracer.wrap("top", "top", top)
    threads = [threading.Thread(target=top_w, args=(s,)) for s in (1, 10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()

    recs = tracer.records()
    # Per thread with scale s: top = 0.5s self + middle (2s self + 2s
    # leaf) + 0.25s leaf; the two threads' spans sum.
    k = 1 + 10
    top_r, mid_r, leaf_r = (recs[("", n, n)] for n in ("top", "middle",
                                                        "leaf"))
    assert top_r.calls == 2 and mid_r.calls == 2 and leaf_r.calls == 4
    assert top_r.incl_cpu == top_r.incl_s == pytest.approx(4.75 * k)
    assert top_r.self_cpu == pytest.approx(0.5 * k)
    assert mid_r.incl_cpu == pytest.approx(4.0 * k)
    assert mid_r.self_cpu == pytest.approx(2.0 * k)
    assert leaf_r.self_cpu == leaf_r.incl_cpu == pytest.approx(2.25 * k)
    # Self times partition the root spans exactly.
    total_self = sum(r.self_cpu for r in recs.values())
    assert total_self == pytest.approx(top_r.incl_cpu)


def test_calls_within_one_layer_pass_through():
    clock = ScriptedClock()
    tracer = Tracer(clock=clock, cpu_clock=clock)
    inner = tracer.wrap("L", "inner", lambda: clock.advance(1.0))
    outer = tracer.wrap("L", "outer", lambda: (clock.advance(1.0), inner()))
    outer()
    recs = tracer.records()
    assert ("", "L", "inner") not in recs
    assert recs[("", "L", "outer")].calls == 1
    assert recs[("", "L", "outer")].self_cpu == pytest.approx(2.0)


def test_patch_function_rebinds_from_imports_and_unpatches():
    a = types.ModuleType("repro_fake_a")
    b = types.ModuleType("repro_fake_b")
    a.f = lambda: 1
    b.f = a.f             # what ``from repro_fake_a import f`` leaves in b
    orig = a.f
    sys.modules.update(repro_fake_a=a, repro_fake_b=b)
    try:
        tracer = Tracer()
        tracer.patch_function(a, "f", "fake")
        assert a.f is not orig and b.f is a.f
        assert b.f() == 1
        assert tracer.records()[("", "fake", "f")].calls == 1
        tracer.unpatch()
        assert a.f is orig and b.f is orig
    finally:
        del sys.modules["repro_fake_a"], sys.modules["repro_fake_b"]


def test_required_entry_points_without_calls_are_reported():
    missing = layers.missing_required({}, "ckpt-restart")
    assert "mana.asyncsave:AsyncSaveDrainer._drain_one" in missing
    assert "mana.asyncsave:AsyncSaveDrainer._drain_one" not in (
        layers.missing_required({}, "matrix"))


def test_wrapped_attribute_keeps_meaning_the_undecorated_function():
    charged = []

    def raw(x):
        return x + 1

    def decorated(x):
        charged.append(x)
        return raw(x)

    decorated.__wrapped__ = raw
    tracer = Tracer()
    traced = tracer.wrap("mpi", "op", decorated)
    assert traced.__wrapped__(1) == 2
    assert charged == []            # the internal call stays uncharged
    assert traced(1) == 2 and charged == [1]


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def _small_job(faults=None):
    spec = replace(APP_CLASSES["comd"].paper_config("discovery"),
                   nranks=2, blocks=3, seed=5)
    cfg = JobConfig(nranks=2, seed=5, faults=faults)
    return Launcher(cfg).run(lambda r: APP_CLASSES["comd"](spec))


def test_oracle_passes_a_correct_job_and_fails_a_planted_checksum():
    res = _small_job()
    assert oracle.check_job(res, "job") == []
    sums = oracle.checksums(res)
    assert oracle.check_checksums(sums, list(sums), "job") == []
    planted = list(sums)
    planted[1] += 1e-9
    problems = oracle.check_checksums(sums, planted, "job")
    assert len(problems) == 1 and "rank 1" in problems[0]


def test_oracle_fails_a_failed_job():
    res = _small_job(FaultPlan(seed=5).crash_at_loop(rank=0, iteration=1))
    assert res.status == "failed"
    problems = oracle.check_job(res, "job")
    assert problems and "status 'failed'" in problems[0]


def test_vtime_ledger_flags_a_changed_virtual_runtime():
    ledger = oracle.VtimeLedger()
    assert ledger.check_identical("case", 1.5) == []
    assert ledger.check_identical("case", 1.5) == []
    assert ledger.check_identical("case", 1.5000001)
    assert ledger.max_drift() == pytest.approx(1e-7)


def test_workload_pass_counts_a_planted_wrong_reference(tmp_path):
    wl = workloads.CkptRestartWorkload(11, str(tmp_path))
    wl.make_inputs()
    wl.references()
    wl.reference = [s + 1.0 for s in wl.reference]
    stats = wl.run_pass()
    assert stats.failed >= 1
    assert any("vs uninterrupted" in p and "checksum" in p
               for p in stats.problems)


def test_block_timestamps_stay_out_of_application_state():
    cls = APP_CLASSES["comd"]
    n = len(blocks.EVENTS)
    with_sink = _small_job().apps()
    assert len(blocks.EVENTS) - n == 2 * 3      # ranks x blocks
    sink_block = cls.block
    cls.block = sink_block.__wrapped__
    try:
        without = _small_job().apps()
    finally:
        cls.block = sink_block
    for a, b in zip(with_sink, without):
        assert pickle.dumps(a) == pickle.dumps(b)


# ----------------------------------------------------------------------
# workloads on a seed other than the default, untraced and traced
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_oracle_on_second_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name](11, str(tmp_path))
    wl.make_inputs()
    wl.warm_up()
    wl.references()
    stats = wl.run_pass()
    assert stats.problems == []
    assert stats.failed == 0 and stats.attempted > 0
    assert stats.blocked_s and stats.restart_s


def test_traced_matrix_pass_passes_oracle_and_sees_every_layer(tmp_path):
    wl = workloads.MatrixWorkload(11, str(tmp_path))
    wl.make_inputs()
    wl.references()
    first = wl.run_pass()
    tracer = Tracer()
    layers.instrument(tracer)
    wl.tracer = tracer
    try:
        traced = wl.run_pass()
    finally:
        tracer.unpatch()
        wl.tracer = None
    assert first.problems == [] and traced.problems == []
    records = tracer.records()
    assert layers.missing_required(records, "matrix") == []
    metrics = layers.derive(records, first.wall_s, traced.wall_s,
                            traced.case_wall, wl.vtimes.max_drift())
    # The MPICH handle-insert defect is visible per layer.
    assert (metrics["impls.insert_us.mpich"][0]
            > 10 * metrics["impls.insert_us.openmpi"][0])
