"""The benchmark's workloads.

Each workload builds its inputs from the seed, runs *passes* (one pass is
the unit ``wall_s`` times), and checks every job of a pass with
:mod:`oracle`.  Jobs run one at a time: a closed loop with one client.

* ``matrix`` -- the paper's app x MPI matrix (Figures 2 and 3) without
  checkpoints, timed as ``wall_s``; then its Table 3 leg, the two
  sync checkpoint-restart pairs of ``ckpt-restart``, which supply the
  workload's checkpoint metrics.
* ``ckpt-restart`` -- HPCG with ~1.2 MB of float state per rank: sync
  checkpoints every two blocks under MPICH, preemption, restarts under
  Open MPI run to completion; then its async leg, HPCG carrying its
  static 27-point column indices: async checkpoints, one injected rank
  crash once several generations are durable, and recovery through
  ``Launcher.supervise``.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

import blocks
import oracle
from repro.apps import APP_CLASSES, EXAMPI_COMPATIBLE, HpcgProxy
from repro.faults import FaultPlan
from repro.mana.checkpoint import latest_generations, read_manifest
from repro.mana.coordinator import CheckpointKind, CheckpointMode
from repro.runtime import JobConfig, Launcher
from repro.runtime.launcher import RestartPolicy
from repro.util.rng import _stable_hash

RANKS = 8
#: The five applications of the paper's evaluation.
PAPER_APPS = ("comd", "hpcg", "lammps", "lulesh", "sw4")
#: Figure 3's ExaMPI subset among them (HPCG and SW4 are refused by
#: design: allgatherv, cartesian topologies).
EXAMPI_APPS = tuple(a for a in PAPER_APPS if a in EXAMPI_COMPATIBLE)
#: Checkpoints elect their iteration this many blocks after the trigger.
#: One is enough for iteration triggers: the first rank to reach the
#: trigger arms it, so no rank can already be past the elected block.
LAG = 1


@dataclass
class PassStats:
    """What one pass measured and what its oracle found."""

    wall_s: float = 0.0
    #: Wall seconds per matrix case.
    case_wall: Dict[str, float] = field(default_factory=dict)
    blocked_s: List[float] = field(default_factory=list)
    restart_s: List[float] = field(default_factory=list)
    bytes_written: int = 0
    payload_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Samples reported as text only, not as metrics (name -> values).
    side: Dict[str, List[float]] = field(default_factory=dict)

    def item(self, problems: List[str]) -> bool:
        """Count one job, round or restart; False if it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _arm(job, continue_at: List[int], exit_at: Optional[int]) -> None:
    """Arm LOOP checkpoints whose rounds run at the top of the given
    iterations (``exit_at`` preempts the job after saving)."""
    for target in continue_at:
        job.checkpoint_at_iteration("main", target - LAG,
                                    kind=CheckpointKind.LOOP,
                                    mode=CheckpointMode.CONTINUE)
    if exit_at is not None:
        job.checkpoint_at_iteration("main", exit_at - LAG,
                                    kind=CheckpointKind.LOOP,
                                    mode=CheckpointMode.EXIT)


def _add_dedup(stats: PassStats, ckpt_dir: str) -> List[int]:
    """Sum the generations' dedup accounting; returns the generations."""
    gens = latest_generations(ckpt_dir)
    for g in gens:
        dedup = read_manifest(ckpt_dir, g).get("dedup") or {}
        stats.bytes_written += int(dedup.get("bytes_written", 0))
        stats.payload_bytes += int(dedup.get("payload_bytes", 0))
    return gens


def _round_gaps(stats: PassStats, job: int, targets: List[int],
                what: str, nranks: int = RANKS) -> None:
    done = blocks.by_job(blocks.EVENTS, job)
    for target in targets:
        gap = blocks.round_gap(done, nranks, target)
        if stats.item([] if gap is not None else
                      [f"{what}: no blocks around round at {target}"]):
            stats.blocked_s.append(gap)


class Workload:
    """Base: a seed, a work directory, and a tracer label hook."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.vtimes = oracle.VtimeLedger()
        self._dirs = 0

    def _fresh_dir(self, tag: str) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{self._dirs:04d}-{tag}")

    def _label(self, case: str) -> None:
        if self.tracer is not None:
            self.tracer.case = case

    def _config(self, ckpt_dir: Optional[str] = None, **kw) -> JobConfig:
        return JobConfig(nranks=RANKS, seed=self.seed, ckpt_dir=ckpt_dir,
                         loop_lag_window=LAG, **kw)

    # -- lifecycle -----------------------------------------------------
    def make_inputs(self) -> None:
        """Build the workload's inputs from the seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Finish lazy initialisation before the first timed job: one
        tiny native and MANA job each."""
        spec = replace(APP_CLASSES["comd"].paper_config("discovery"),
                       nranks=2, blocks=2, seed=self.seed)
        for mana in (False, True):
            cfg = JobConfig(nranks=2, seed=self.seed, mana=mana,
                            ckpt_dir=self._fresh_dir("warmup"))
            res = Launcher(cfg).run(
                lambda r: APP_CLASSES["comd"](spec))
            problems = oracle.check_job(res, "warm-up")
            if problems:
                raise RuntimeError("; ".join(problems))

    def references(self) -> None:
        """Oracle reference runs (not part of set-up)."""

    def uninterrupted(self, factory, what: str) -> List[Optional[float]]:
        """Checksums of a native run without checkpoints."""
        self._label("reference")
        res = Launcher(self._config()).run(factory)
        self._label("")
        problems = oracle.check_job(res, what)
        if problems:
            raise RuntimeError("; ".join(problems))
        return oracle.checksums(res)

    def run_pass(self) -> PassStats:
        raise NotImplementedError


@dataclass
class Segment:
    """One job of a checkpoint-restart pair: its MPI, the iterations of
    its sync rounds, and the iteration of its exit round (None: run to
    completion)."""

    impl: str
    continue_at: List[int]
    exit_at: Optional[int]


# ----------------------------------------------------------------------
class MatrixWorkload(Workload):
    """Figures 2-3 matrix (timed) plus its Table 3 leg."""

    name = "matrix"
    #: Enough blocks that per-call work, not job start-up and thread
    #: wake-ups, dominates each case, while a pass with its Table 3 leg
    #: (~20 s on a 2-CPU box) still fits at least twice in a 50-second
    #: run.
    blocks = 12

    def _spec(self, app: str):
        return replace(APP_CLASSES[app].paper_config("discovery"),
                       nranks=RANKS, blocks=self.blocks, seed=self.seed)

    def make_inputs(self) -> None:
        self.specs = {app: self._spec(app) for app in PAPER_APPS}
        self.cases: List[Tuple[str, str, bool]] = []
        for app in PAPER_APPS:
            impls = ["mpich", "openmpi"]
            if app in EXAMPI_APPS:
                impls.append("exampi")
            for impl in impls:
                for mana in (False, True):
                    self.cases.append((app, impl, mana))
        # Table 3 leg: the ``ckpt-restart`` pairs, once per pass, so the
        # workload has checkpoint metrics; it runs outside ``wall_s``.  (Short
        # rounds of the apps' default states measured too unsteady:
        # they are dominated by thread wake-ups, not checkpoint work.)
        leg_dir = os.path.join(self.workdir, "leg")
        os.makedirs(leg_dir, exist_ok=True)
        self.leg = CheckpointPairs(self.seed, leg_dir)
        self.leg.vtimes = self.vtimes
        self.leg.make_inputs()

    def references(self) -> None:
        self.leg.references()

    def run_pass(self) -> PassStats:
        stats = PassStats()
        native: Dict[Tuple[str, str], List[Optional[float]]] = {}
        t0 = time.perf_counter()
        for app, impl, mana in self.cases:
            case = f"{app}/{impl}/{'mana' if mana else 'native'}"
            self._label(case)
            cfg = self._config(
                self._fresh_dir("m") if mana else None, impl=impl, mana=mana
            )
            cls, spec = APP_CLASSES[app], self.specs[app]
            t_case = time.perf_counter()
            res = Launcher(cfg).run(lambda r, cls=cls, spec=spec: cls(spec))
            stats.case_wall[case] = time.perf_counter() - t_case
            problems = oracle.check_job(res, case)
            if not problems:
                sums = oracle.checksums(res)
                if mana:
                    problems += oracle.check_checksums(
                        sums, native[(app, impl)], f"{case} vs native")
                else:
                    native[(app, impl)] = sums
                problems += self.vtimes.check_identical(case, res.runtime)
            stats.item(problems)
        stats.wall_s = time.perf_counter() - t0
        self._label("")
        self.leg.tracer = self.tracer
        for _ in range(self.leg.repeats):
            self.leg.run_pair(stats, "t3/hpcg")
        return stats


# ----------------------------------------------------------------------
class CheckpointPairs(Workload):
    """Sync checkpoints of a ~1 MB-per-rank HPCG under MPICH, preemption,
    restarts under Open MPI run to completion; twice a pass."""

    blocks = 8
    #: 96 KiB halos give 49,152 rows, i.e. ~1.2 MB of float state per
    #: rank (x, r, p), mutated every block.
    halo_bytes = 96 * 1024
    #: A cold round, a warm round, the exit round; then two restarts
    #: from that generation, each run to completion.  Every pair starts
    #: from an empty checkpoint directory, so every sample does the same
    #: work.
    segments = [Segment("mpich", [2, 4], 6), Segment("openmpi", [], None),
                Segment("openmpi", [], None)]
    repeats = 2

    def make_inputs(self) -> None:
        self.spec = replace(HpcgProxy.paper_config("discovery"),
                            nranks=RANKS, blocks=self.blocks,
                            halo_bytes=self.halo_bytes, seed=self.seed)

    def _factory(self):
        spec = self.spec
        return lambda r: HpcgProxy(spec)

    def references(self) -> None:
        self.reference = self.uninterrupted(self._factory(),
                                            "uninterrupted reference")

    def run_pass(self) -> PassStats:
        stats = PassStats()
        t0 = time.perf_counter()
        for _ in range(self.repeats):
            self.run_pair(stats, "ckpt-restart")
        stats.wall_s = time.perf_counter() - t0
        return stats

    def run_pair(self, stats: PassStats, case: str) -> None:
        """Run :attr:`segments` as one job and its restarts; each
        restored job's checksums must equal the uninterrupted run's."""
        ckdir = self._fresh_dir("pair")
        self._label(case)
        for k, seg in enumerate(self.segments):
            cfg = self._config(ckdir, impl=seg.impl, mana=True)
            # The previous job's threads and coordinator form reference
            # cycles; collect them so peak memory is one job's, not
            # whatever the collector had not yet reached.
            gc.collect()
            t_restart = time.perf_counter()
            if k == 0:
                job = Launcher(cfg).launch(self._factory())
            else:
                job = Launcher(cfg).restart(ckdir, impl_override=seg.impl)
            _arm(job, seg.continue_at, seg.exit_at)
            res = job.run()
            number = blocks.current_job()
            what = f"{case} job {k} ({seg.impl})"
            problems = oracle.check_job(
                res, what,
                status="completed" if seg.exit_at is None else "preempted")
            if k > 0:
                started = blocks.all_started(
                    blocks.by_job(blocks.EVENTS, number), RANKS)
                if started is None:
                    problems.append(f"{what}: restored ranks ran no block")
                elif not problems:
                    stats.restart_s.append(started - t_restart)
            if seg.exit_at is None and not problems:
                problems += oracle.check_checksums(
                    oracle.checksums(res), self.reference,
                    f"{what} vs uninterrupted")
                self.vtimes.add(case, res.runtime)
            if not stats.item(problems):
                break
            _round_gaps(stats, number, seg.continue_at, case)
        gens = _add_dedup(stats, ckdir)
        want = sum(len(s.continue_at) + (s.exit_at is not None)
                   for s in self.segments)
        stats.item([] if len(gens) == want else
                   [f"{case}: {len(gens)} generations, expected {want}"])
        self._label("")
        shutil.rmtree(ckdir, ignore_errors=True)


class CkptRestartWorkload(CheckpointPairs):
    """Two sync checkpoint-restart pairs (timed), then the async leg."""

    name = "ckpt-restart"

    def make_inputs(self) -> None:
        super().make_inputs()
        # Async leg: the checkpoint path used the other way (saves
        # overlapped with compute, deduplicated state, recovery from a
        # crash).  It runs outside ``wall_s`` and its times are printed,
        # not reported as metrics: its recovery time moved by over 20%
        # between runs, and its traced run is what measures the async
        # and fsck layers.
        leg_dir = os.path.join(self.workdir, "async")
        os.makedirs(leg_dir, exist_ok=True)
        self.async_leg = AsyncRecoverLeg(self.seed, leg_dir)
        self.async_leg.vtimes = self.vtimes
        self.async_leg.make_inputs()

    def references(self) -> None:
        super().references()
        self.async_leg.references()

    def run_pass(self) -> PassStats:
        stats = super().run_pass()
        self.async_leg.tracer = self.tracer
        self.async_leg.run_job(stats)
        return stats


# ----------------------------------------------------------------------
def stencil_columns(n_local: int, row_offset: int) -> np.ndarray:
    """Global column indices of a 27-point stencil over the rank's rows,
    laid out as a 32 x 32 x (n_local / 1024) box (int32, row-major;
    neighbours outside the box clamp to its faces)."""
    nx = ny = 32
    nz = max(1, n_local // (nx * ny))
    rows = np.arange(nx * ny * nz, dtype=np.int64)
    iz, rem = np.divmod(rows, nx * ny)
    iy, ix = np.divmod(rem, nx)
    cols = []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                jx = np.clip(ix + dx, 0, nx - 1)
                jy = np.clip(iy + dy, 0, ny - 1)
                jz = np.clip(iz + dz, 0, nz - 1)
                cols.append((jz * ny + jy) * nx + jx)
    out = np.stack(cols, axis=1) + row_offset
    return out.astype(np.int32)


class StencilHpcg(HpcgProxy):
    """HPCG that also holds the static sparse-matrix structure real
    HPCG checkpoints: int32 27-point column indices, built once and never
    changed (compressible, and deduplicated after the first
    generation)."""

    def init_state(self, ctx) -> None:
        super().init_state(ctx)
        self.cols = stencil_columns(
            self.n_local, int(self.row_offsets[ctx.rank]))
        self._rank = ctx.rank

    def validate(self, ctx) -> Optional[str]:
        err = super().validate(ctx)
        if err:
            return err
        expect = stencil_columns(
            self.n_local, int(self.row_offsets[self._rank]))
        if not np.array_equal(self.cols, expect):
            return "hpcg column indices changed"
        return None


class AsyncRecoverLeg(Workload):
    """Async checkpoints, one rank crash, supervised recovery."""

    blocks = 18
    #: 64 KiB halos give 32,768 rows: ~0.8 MB of float state plus
    #: ~3.5 MB of column indices per rank.
    halo_bytes = 64 * 1024
    continue_at = [2, 4, 6]
    #: The crash fires at the top of this iteration.  A round starts
    #: only once the previous generation's drain has settled, so at
    #: least two generations are durable when the rank dies; the blocks
    #: after the last round give its drain time to finish too, so
    #: recovery seldom races a drain in flight.
    crash_at = 16

    def make_inputs(self) -> None:
        self.spec = replace(HpcgProxy.paper_config("discovery"),
                            nranks=RANKS, blocks=self.blocks,
                            halo_bytes=self.halo_bytes, seed=self.seed)
        self.victim = _stable_hash(f"{self.seed}/victim") % RANKS

    def _factory(self):
        spec = self.spec
        return lambda r: StencilHpcg(spec)

    def _plan(self) -> FaultPlan:
        return FaultPlan(seed=self.seed).crash_at_loop(
            rank=self.victim, iteration=self.crash_at)

    def references(self) -> None:
        self.reference = self.uninterrupted(self._factory(),
                                            "fault-free reference")

    def run_job(self, main: PassStats) -> None:
        """One supervised job.  Its oracle findings count in ``main``;
        its round and recovery times go to ``main.side`` only."""
        stats = PassStats()
        ckdir = self._fresh_dir("async")
        cfg = self._config(ckdir, impl="mpich", mana=True, ckpt_async=True,
                           faults=self._plan())
        first = blocks.current_job() + 1
        self._label("async-recover")
        res = Launcher(cfg, RestartPolicy(max_restarts=1)).supervise(
            self._factory(),
            on_launch=lambda job: _arm(job, self.continue_at, None),
        )
        self._label("")
        problems = oracle.check_job(res, "supervised job")
        if not problems:
            problems += oracle.check_checksums(
                oracle.checksums(res), self.reference,
                "supervised vs fault-free")
        if res.restarts != 1:
            problems.append(f"supervised job restarted {res.restarts} "
                            f"times, expected 1")
        stats.item(problems)
        _round_gaps(stats, first, self.continue_at, "async-recover")
        victim_last = blocks.by_job(blocks.EVENTS, first).get(
            (self.victim, self.crash_at - 1))
        started = blocks.all_started(
            blocks.by_job(blocks.EVENTS, blocks.current_job()), RANKS)
        if stats.item([] if victim_last and started and res.restarts == 1
                      else ["async-recover: no restart to time"]):
            stats.restart_s.append(started - victim_last[1])
            self.vtimes.add("async-recover", res.runtime)
        gens = latest_generations(ckdir)
        stats.item([] if len(gens) >= 2 else
                   [f"async-recover: {len(gens)} durable generations, "
                    f"expected at least 2"])
        shutil.rmtree(ckdir, ignore_errors=True)
        main.attempted += stats.attempted
        main.failed += stats.failed
        main.problems += stats.problems
        main.side.setdefault("async round blocked s", []).extend(
            stats.blocked_s)
        main.side.setdefault("async recovery s", []).extend(stats.restart_s)


WORKLOADS = {w.name: w for w in (MatrixWorkload, CkptRestartWorkload)}
