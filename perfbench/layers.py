"""The traced run: which entry points of which module are wrapped, and
how the per-layer metrics are derived from their spans.

Layers are the program's modules.  Every wrapper is installed from
outside (see :mod:`tracer`); nothing under ``src/`` changes.  After the
traced passes, every entry point in :data:`REQUIRED` must have recorded
at least one call on the workloads listed for it, or the run fails: a
wrapper that silently sees nothing would report a layer as free.
"""

from __future__ import annotations

import importlib
import statistics
import zlib
from typing import Callable, Dict, List

from tracer import ModuleProxy, Tracer

MB = 1024.0 * 1024.0

#: (layer, op) -> workloads whose traced run must call it.
ALL = ("matrix", "ckpt-restart")
CKPT = ALL  # the matrix's Table 3 leg checkpoints too
REQUIRED = {
    ("apps", "HpcgProxy.block"): ALL,
    ("mpi", "allreduce"): ALL,
    ("impls", "TwoLevelHandleSpace.insert"): ALL,
    ("impls", "PointerHandleSpace.insert"): ALL,
    ("impls", "TwoLevelHandleSpace.resolve"): ALL,
    ("util.bits", "BitField.pack"): ALL,
    ("mana.wrappers", "ManaRank.isend"): ALL,
    ("mana.virtid", "VirtualIdTable.phys"): ALL,
    ("fabric", "Fabric.post_send"): ALL,
    ("mana.coordinator", "CheckpointCoordinator.saved"): CKPT,
    ("mana.drain", "run_drain"): CKPT,
    ("mana.checkpoint", "save_chunked_image"): CKPT,
    ("mana.checkpoint", "save_chunked_blob"): ("ckpt-restart",),
    ("mana.checkpoint", "load_image"): CKPT,
    ("mana.chunkstore", "chunk_spans"): CKPT,
    ("mana.chunkstore", "digest_spans"): CKPT,
    ("mana.chunkstore", "ChunkStore.put_known"): CKPT,
    ("mana.chunkstore", "ChunkStore.get"): CKPT,
    ("zlib", "compress"): CKPT,
    ("mana.storeio", "write_file"): CKPT,
    ("mana.journal", "Journal.begin"): CKPT,
    ("mana.replay", "replay_all"): CKPT,
    ("runtime.launcher", "Launcher.restart"): CKPT,
    ("mana.asyncsave", "AsyncSaveDrainer._drain_one"): ("ckpt-restart",),
    ("mana.asyncsave", "AsyncSaveDrainer.wait_idle"): ("ckpt-restart",),
    ("mana.fsck", "auto_repair"): ("ckpt-restart",),
}


def _public(cls) -> List[str]:
    return [n for n, v in cls.__dict__.items() if not n.startswith("_")
            and (callable(v) or isinstance(v, (staticmethod, classmethod)))]


def _nbytes(arg) -> int:
    return memoryview(arg).nbytes


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    from repro.apps import APP_CLASSES
    from repro.fabric.network import Fabric
    from repro.impls.exampi import ExaMpiLib, ExampiHandleSpace
    from repro.impls.mpich import MpichLib, TwoLevelHandleSpace
    from repro.impls.openmpi import OpenMpiLib, PointerHandleSpace
    # Submodules by import path: the package re-exports some functions
    # under the same names.
    (asyncsave, checkpoint, chunkstore, drain, fsck, journal, replay,
     storeio) = (importlib.import_module(f"repro.mana.{m}") for m in (
         "asyncsave", "checkpoint", "chunkstore", "drain", "fsck",
         "journal", "replay", "storeio"))
    from repro.mana.coordinator import CheckpointCoordinator
    from repro.mana.virtid import VirtualIdTable
    from repro.mana.wrappers import ManaRank
    from repro.mpi.api import BaseMpiLib
    from repro.runtime.launcher import Launcher
    from repro.util import bits

    pm, pf = tracer.patch_method, tracer.patch_function

    for cls in set(APP_CLASSES.values()):
        if "block" in cls.__dict__:
            pm(cls, "block", "apps")
    mpi_names = [n for n, v in BaseMpiLib.__dict__.items()
                 if hasattr(v, "__wrapped__")]
    for name in mpi_names:
        pm(BaseMpiLib, name, "mpi", op=name)
    for cls in (MpichLib, OpenMpiLib, ExaMpiLib):
        pm(cls, "constant", "mpi", op="constant")

    for cls in (TwoLevelHandleSpace, PointerHandleSpace, ExampiHandleSpace):
        for name in ("insert", "resolve", "remove", "insert_enum_datatype"):
            if name in cls.__dict__:
                pm(cls, name, "impls")

    for name in ("pack", "unpack", "extract", "replace"):
        pm(bits.BitField, name, "util.bits")
    for name in ("pack_fields", "unpack_fields"):
        pf(bits, name, "util.bits")

    for name in mpi_names:
        if name in ManaRank.__dict__:
            pm(ManaRank, name, "mana.wrappers")

    for name in _public(VirtualIdTable):
        pm(VirtualIdTable, name, "mana.virtid")

    pm(Fabric, "post_send", "fabric",
       measure=lambda a, k, r: {"bytes": r.nbytes})
    for name in ("try_match", "iprobe", "wake", "activity_token",
                 "in_flight", "pairwise_sent", "pairwise_received",
                 "wait_match", "wait_activity"):
        pm(Fabric, name, "fabric")

    pm(CheckpointCoordinator, "begin_participation", "mana.coordinator",
       measure=lambda a, k, r: {"rank0": 1.0 if a[1] == 0 else 0.0})
    for name in ("quiesce", "drained", "saved", "resumed",
                 "trivial_barrier", "request_checkpoint",
                 "checkpoint_at_iteration", "note_loop_progress"):
        pm(CheckpointCoordinator, name, "mana.coordinator")
    pf(drain, "run_drain", "mana.drain")
    pf(drain, "redistribute_drain_buffers", "mana.drain")

    for name in ("save_image", "save_chunked_image", "save_chunked_blob",
                 "load_image", "verify_image", "write_manifest",
                 "read_manifest", "latest_generations",
                 "validate_generation", "latest_restorable_generation",
                 "restorable_generations", "prune_generations",
                 "gc_chunks", "pin_generation", "unpin_generation"):
        pf(checkpoint, name, "mana.checkpoint")

    pf(chunkstore, "chunk_spans", "mana.chunkstore",
       measure=lambda a, k, r: {"bytes": float(len(a[0]))})
    pf(chunkstore, "digest_spans", "mana.chunkstore",
       measure=lambda a, k, r: {"bytes": float(sum(e - s for s, e in a[1]))})
    pm(chunkstore.ChunkStore, "put_known", "mana.chunkstore",
       measure=lambda a, k, r: {"reused": 1.0 if r[1] else 0.0})
    for name in ("get", "verify", "gc", "sweep_stray_tmp"):
        pm(chunkstore.ChunkStore, name, "mana.chunkstore")
    # zlib as the chunk store sees it: its own layer, so compression is
    # a child span of the store's put.
    compress = tracer.wrap(
        "zlib", "compress", zlib.compress,
        lambda a, k, r: {"in": float(_nbytes(a[0])), "out": float(len(r))})
    decompress = tracer.wrap("zlib", "decompress", zlib.decompress)
    tracer.patch_module_attr(chunkstore, "zlib", ModuleProxy(
        zlib, compress=compress, decompress=decompress))

    pf(storeio, "write_file", "mana.storeio",
       measure=lambda a, k, r: {"bytes": float(_nbytes(a[1]))})
    for name in ("rename", "link", "unlink", "rmdir"):
        pf(storeio, name, "mana.storeio")
    for name in ("begin", "retire", "retire_matching", "pending"):
        pm(journal.Journal, name, "mana.journal")

    for name in ("_drain_one", "wait_idle", "shutdown", "submit"):
        pm(asyncsave.AsyncSaveDrainer, name, "mana.asyncsave")
    pf(replay, "replay_all", "mana.replay",
       measure=lambda a, k, r: {"objects": float(sum(r.values()))})
    pf(fsck, "fsck", "mana.fsck")
    pf(fsck, "auto_repair", "mana.fsck")
    for name in ("restart", "elastic_restart"):
        pm(Launcher, name, "runtime.launcher")


# ----------------------------------------------------------------------
# metric derivation
# ----------------------------------------------------------------------
class _Sums:
    """Query helpers over merged records."""

    def __init__(self, records):
        self.records = records

    def _match(self, layer: str, ops=None, case=None):
        for (c, l, o), rec in self.records.items():
            if l != layer:
                continue
            if ops is not None and not any(
                    o == op or o.endswith("." + op) for op in ops):
                continue
            if case is not None and not case(c):
                continue
            yield rec

    def calls(self, layer, ops=None, case=None) -> int:
        return sum(r.calls for r in self._match(layer, ops, case))

    def self_cpu(self, layer, ops=None, case=None) -> float:
        return sum(r.self_cpu for r in self._match(layer, ops, case))

    def incl_cpu(self, layer, ops=None, case=None) -> float:
        return sum(r.incl_cpu for r in self._match(layer, ops, case))

    def incl_s(self, layer, ops=None, case=None) -> float:
        return sum(r.incl_s for r in self._match(layer, ops, case))

    def extra(self, layer, key, ops=None, case=None) -> float:
        return sum(r.extra.get(key, 0.0) for r in self._match(layer, ops, case))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


VIRTID_LOOKUPS = ("lookup", "phys", "vid_of_phys", "constant_vid", "embed",
                  "extract")
FABRIC_WAITS = ("wait_match", "wait_activity")
GATES = ("quiesce", "drained", "saved", "resumed")


def derive(records, untraced_wall: float, traced_wall: float,
           case_wall: Dict[str, float], vtime_drift: float) -> Dict:
    """Per-layer metrics (name -> (value, unit))."""
    s = _Sums(records)
    fabric_ops = [o for (_c, l, o) in records if l == "fabric"
                  and not o.endswith(FABRIC_WAITS)]
    wrappers = s.calls("mana.wrappers")
    lookups = s.calls("mana.virtid", VIRTID_LOOKUPS)
    inserts = s.calls("impls", ("insert", "insert_enum_datatype"))
    resolves = s.calls("impls", ("resolve",))
    scan_b = s.extra("mana.chunkstore", "bytes", ("chunk_spans",))
    hash_b = s.extra("mana.chunkstore", "bytes", ("digest_spans",))
    zin = s.extra("zlib", "in", ("compress",))
    puts = s.calls("mana.chunkstore", ("put_known",))

    def insert_us(impl_cls: str) -> float:
        ops = (f"{impl_cls}.insert",)
        return 1e6 * _ratio(s.self_cpu("impls", ops), s.calls("impls", ops))

    def lammps(impl: str) -> Callable[[str], bool]:
        return lambda c: c.startswith(f"lammps/{impl}/")

    insert_ops = ("insert",)
    lammps_excess = (s.self_cpu("impls", insert_ops, lammps("mpich"))
                     - s.self_cpu("impls", insert_ops, lammps("openmpi")))
    lammps_gap = sum(
        case_wall.get(f"lammps/mpich/{m}", 0.0)
        - case_wall.get(f"lammps/openmpi/{m}", 0.0)
        for m in ("native", "mana"))

    return {
        "apps.block_s": (s.self_cpu("apps"), "s"),
        "mpi.calls": (s.calls("mpi"), "count"),
        "mpi.self_s": (s.self_cpu("mpi"), "s"),
        "impls.inserts": (inserts, "count"),
        "impls.insert_us": (
            1e6 * _ratio(s.self_cpu("impls", ("insert", "insert_enum_datatype")),
                         inserts), "us"),
        "impls.insert_us.mpich": (insert_us("TwoLevelHandleSpace"), "us"),
        "impls.insert_us.openmpi": (insert_us("PointerHandleSpace"), "us"),
        "impls.resolves": (resolves, "count"),
        "impls.resolve_us": (
            1e6 * _ratio(s.self_cpu("impls", ("resolve",)), resolves), "us"),
        "impls.lammps_insert_excess_s": (lammps_excess, "s"),
        "matrix.lammps_mpich_gap_s": (lammps_gap, "s"),
        "util.bits.calls": (s.calls("util.bits"), "count"),
        "util.bits.self_s": (s.self_cpu("util.bits"), "s"),
        "mana.wrappers.calls": (wrappers, "count"),
        "mana.wrappers.us_per_call": (
            1e6 * _ratio(s.self_cpu("mana.wrappers"), wrappers), "us"),
        "mana.virtid.lookups": (lookups, "count"),
        "mana.virtid.lookup_ns": (
            1e9 * _ratio(s.self_cpu("mana.virtid", VIRTID_LOOKUPS), lookups),
            "ns"),
        "fabric.msgs": (s.calls("fabric", ("post_send",)), "count"),
        "fabric.bytes": (s.extra("fabric", "bytes", ("post_send",)), "B"),
        "fabric.self_s": (s.self_cpu("fabric", fabric_ops), "s"),
        "fabric.wait_s": (s.incl_s("fabric", FABRIC_WAITS), "s"),
        "mana.coordinator.rounds": (
            s.extra("mana.coordinator", "rank0", ("begin_participation",)),
            "count"),
        "mana.coordinator.gate_wait_s": (
            s.incl_s("mana.coordinator", GATES), "s"),
        "mana.drain.s": (s.incl_s("mana.drain", ("run_drain",)), "s"),
        "mana.checkpoint.encode_self_s": (
            s.self_cpu("mana.checkpoint", ("save_image", "save_chunked_image",
                                         "save_chunked_blob")), "s"),
        "mana.checkpoint.load_s": (
            s.incl_s("mana.checkpoint", ("load_image",)), "s"),
        "mana.checkpoint.vtime_drift_s": (vtime_drift, "s"),
        "mana.chunkstore.scan_mb_per_s": (
            _ratio(scan_b / MB, s.incl_cpu("mana.chunkstore", ("chunk_spans",))),
            "MB/s"),
        "mana.chunkstore.hash_mb_per_s": (
            _ratio(hash_b / MB,
                   s.incl_cpu("mana.chunkstore", ("digest_spans",))), "MB/s"),
        "mana.chunkstore.compress_mb_per_s": (
            _ratio(zin / MB, s.incl_cpu("zlib", ("compress",))), "MB/s"),
        "mana.chunkstore.compress_ratio": (
            _ratio(s.extra("zlib", "out", ("compress",)), zin), "ratio"),
        "mana.chunkstore.reuse_frac": (
            _ratio(s.extra("mana.chunkstore", "reused", ("put_known",)),
                   puts), "ratio"),
        "mana.chunkstore.get_s": (
            s.incl_s("mana.chunkstore", ("get",)), "s"),
        "mana.storeio.writes": (
            s.calls("mana.storeio", ("write_file",)), "count"),
        "mana.storeio.bytes": (
            s.extra("mana.storeio", "bytes", ("write_file",)), "B"),
        "mana.storeio.write_s": (
            s.incl_s("mana.storeio", ("write_file",)), "s"),
        "mana.journal.records": (
            s.calls("mana.journal", ("begin",)), "count"),
        "mana.journal.s": (s.incl_s("mana.journal"), "s"),
        "mana.asyncsave.drain_s": (
            s.incl_s("mana.asyncsave", ("_drain_one",)), "s"),
        "mana.asyncsave.backpressure_wait_s": (
            s.incl_s("mana.asyncsave", ("wait_idle",)), "s"),
        "mana.replay.s": (s.incl_s("mana.replay"), "s"),
        "mana.replay.objects": (s.extra("mana.replay", "objects"), "count"),
        "mana.fsck.s": (s.incl_s("mana.fsck"), "s"),
        "runtime.launcher.restart_call_s": (
            s.incl_s("runtime.launcher", ("restart",)), "s"),
        "tracing.overhead_s": (traced_wall - untraced_wall, "s"),
    }


def missing_required(records, workload: str) -> List[str]:
    s = _Sums(records)
    return [f"{layer}:{op}" for (layer, op), wls in REQUIRED.items()
            if workload in wls and s.calls(layer, (op,)) == 0]


def traced_run(wl, seconds: float, passes: list, run_passes) -> Dict:
    """Untraced passes for half the time, traced passes for the rest;
    returns the per-layer metrics."""
    untraced: list = []
    run_passes(wl, seconds / 2, 1, untraced)
    tracer = Tracer()
    instrument(tracer)
    wl.tracer = tracer
    traced: list = []
    try:
        run_passes(wl, seconds / 2, 1, traced)
    finally:
        tracer.unpatch()
        wl.tracer = None
    passes.extend(untraced + traced)
    records = tracer.records()
    missing = missing_required(records, wl.name)
    if missing:
        raise SystemExit(
            f"perfbench: traced entry points recorded no calls on "
            f"{wl.name}: {', '.join(missing)}")
    # Counts and seconds per traced pass, so they repeat across runs
    # whatever the number of passes.
    n = len(traced)
    for rec in records.values():
        rec.scale(1.0 / n)
    case_wall: Dict[str, float] = {}
    for p in traced:
        for case, t in p.case_wall.items():
            case_wall[case] = case_wall.get(case, 0.0) + t / n
    metrics = derive(
        records,
        statistics.median(p.wall_s for p in untraced),
        statistics.median(p.wall_s for p in traced),
        case_wall, wl.vtimes.max_drift())
    gap = metrics["matrix.lammps_mpich_gap_s"][0]
    if gap > 0:
        share = metrics["impls.lammps_insert_excess_s"][0] / gap
        print(f"LAMMPS MPICH-minus-Open-MPI wall gap {gap:.3f} s; "
              f"{share:.0%} of it is extra self time in handle inserts "
              f"({metrics['impls.insert_us.mpich'][0]:.1f} us vs "
              f"{metrics['impls.insert_us.openmpi'][0]:.1f} us per insert)")
    return metrics
