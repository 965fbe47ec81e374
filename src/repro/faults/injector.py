"""Runtime fault injection.

The :class:`FaultInjector` is the live counterpart of a
:class:`repro.faults.plan.FaultPlan`: it is consulted at well-defined
hook points in the wrappers (`_enter`), the resumable-loop runner, the
fabric (`post_send`), the coordinator (round start), and the checkpoint
writers (`save_chunked_blob`, `save_image`).  Every hook is a no-op unless the plan contains a
spec for that site — and jobs with ``faults=None`` never construct an
injector at all, so the hot path carries only a single ``is not None``
test.

One injector survives a whole *supervised session*: the fired-spec set
persists across auto-restarts, so a one-shot crash does not re-kill the
recovered job.  Every fired fault is appended to ``events`` with its
deterministic coordinates; :meth:`trace` returns them in canonical
(spec-index) order so two runs of the same plan + seed compare
bit-identically regardless of thread interleaving.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.faults import plan as P
from repro.util.errors import InjectedFault
from repro.util.rng import _stable_hash


class FaultInjector:
    """Consults a :class:`FaultPlan` at the runtime hook points."""

    def __init__(self, fault_plan: P.FaultPlan):
        self.plan = fault_plan
        self._lock = threading.Lock()
        self.fired: set = set()            # indices into plan.specs
        self.events: List[dict] = []
        # Per-site spec indices, so a hook with no relevant specs is one
        # dict lookup + empty-list scan.
        self._by: Dict[str, List[int]] = {}
        for i, spec in enumerate(fault_plan.specs):
            key = spec.site if spec.kind == P.CRASH else spec.kind
            self._by.setdefault(key, []).append(i)
        # nth-message counters per (src, dst) pair.
        self._msg_counts: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def _fire(self, idx: int, **info) -> None:
        spec = self.plan.specs[idx]
        self.fired.add(idx)
        self.events.append(
            {"fault": spec.kind, "spec": idx, "what": spec.describe(), **info}
        )

    def _candidates(self, key: str):
        specs = self._by.get(key)
        if not specs:
            return ()
        return [i for i in specs if i not in self.fired]

    def trace(self) -> List[dict]:
        """Fired-fault events in canonical (spec-index) order."""
        with self._lock:
            return sorted(self.events, key=lambda e: e["spec"])

    # ------------------------------------------------------------------
    # crash hooks
    # ------------------------------------------------------------------
    def on_mpi_call(self, rank: int, n: int, vtime: float) -> None:
        """Hook at the top of every wrapped MPI call (``n`` = the rank's
        running call count)."""
        with self._lock:
            for i in self._candidates(P.SITE_MPI_CALL):
                s = self.plan.specs[i]
                if s.rank == rank and s.at is not None and n >= s.at:
                    self._fire(i, rank=rank, call=n, vtime=vtime)
                    raise InjectedFault(
                        f"injected crash: rank {rank} at MPI call #{n}"
                    )

    def on_loop(self, rank: int, loop: str, iteration: int,
                vtime: float) -> None:
        """Hook at the top of every resumable-loop iteration."""
        with self._lock:
            for i in self._candidates(P.SITE_LOOP):
                s = self.plan.specs[i]
                if s.rank == rank and s.loop == loop and iteration == s.at:
                    self._fire(i, rank=rank, loop=loop, iteration=iteration,
                               vtime=vtime)
                    raise InjectedFault(
                        f"injected crash: rank {rank} at loop {loop!r} "
                        f"iteration {iteration}"
                    )

    def crash_point(self, site: str, rank: int, generation: int,
                    vtime: float) -> None:
        """Hook at the checkpoint-internal crash sites (pre-drain,
        post-drain, mid-save)."""
        with self._lock:
            for i in self._candidates(site):
                s = self.plan.specs[i]
                if s.rank == rank and s.generation in (None, generation):
                    self._fire(i, rank=rank, site=site, generation=generation,
                               vtime=vtime)
                    raise InjectedFault(
                        f"injected crash: rank {rank} at {site} of "
                        f"checkpoint generation {generation}"
                    )

    # ------------------------------------------------------------------
    # image-writer hooks
    # ------------------------------------------------------------------
    def disk_full_hit(self, rank: int, generation: int) -> bool:
        with self._lock:
            for i in self._candidates(P.DISK_FULL):
                s = self.plan.specs[i]
                if s.rank == rank and s.generation in (None, generation):
                    self._fire(i, rank=rank, generation=generation)
                    return True
        return False

    def after_save(self, path: str, rank: int, generation: int) -> None:
        """Corrupt a just-written image in place (bit rot simulation)."""
        with self._lock:
            for i in self._candidates(P.CORRUPT_IMAGE):
                s = self.plan.specs[i]
                if s.rank == rank and s.generation == generation:
                    self._fire(i, rank=rank, generation=generation,
                               mode=s.mode, path=os.path.basename(path))
                    self._corrupt(path, s)

    def after_chunked_save(self, store, rank: int, generation: int,
                           new_digests: List[str],
                           all_digests: List[str]) -> None:
        """Corrupt the nth *fresh* chunk of a format-5 save (bit rot on
        new data).  Fresh = referenced by this rank's new image but by
        no generation older than it — those stay intact, so earlier
        generations remain restorable and fallback is deterministic.
        (``new_digests`` — who won the store write — is scheduling-
        dependent when ranks share chunks, so the target is chosen from
        the image's reference list against *prior* generations, both of
        which are deterministic.)"""
        with self._lock:
            candidates = self._candidates(P.CORRUPT_CHUNK)
            if not candidates:
                return
            from repro.mana.checkpoint import (
                latest_generations,
                referenced_chunks,
            )

            base = store.base_dir
            prior = referenced_chunks(
                base,
                [g for g in latest_generations(base) if g < generation],
            )
            fresh: List[str] = []
            for d in all_digests:
                if d not in prior and d not in fresh:
                    fresh.append(d)
            for i in candidates:
                s = self.plan.specs[i]
                if s.rank != rank or s.generation != generation:
                    continue
                if not fresh:
                    continue  # fully-deduped save: nothing fresh to rot
                digest = fresh[min(s.nth, len(fresh)) - 1]
                path = store.chunk_path(digest)
                size = os.path.getsize(path)
                # Seed-derived offset past the zlib magic so the flip
                # hits compressed payload, not just the 2-byte header.
                lo = min(2, size - 1)
                off = lo + _stable_hash(
                    f"{self.plan.seed}/corrupt-chunk/{generation}/{rank}"
                ) % max(1, size - lo)
                with open(path, "r+b") as f:
                    f.seek(off)
                    b = f.read(1)
                    f.seek(off)
                    f.write(bytes([b[0] ^ 0xFF]))
                self._fire(i, rank=rank, generation=generation,
                           chunk=digest[:12], nth=s.nth)

    def _corrupt(self, path: str, spec: P.FaultSpec) -> None:
        size = os.path.getsize(path)
        if spec.mode == P.CORRUPT_TRUNCATE:
            with open(path, "r+b") as f:
                f.truncate(max(1, size // 2))
            return
        # Bit-flip one payload byte at a seed-derived offset.  Skip the
        # first 512 bytes so the flip lands past the header and corrupts
        # the checksummed payload region.
        lo = min(512, size - 1)
        off = lo + _stable_hash(
            f"{self.plan.seed}/corrupt/{spec.generation}/{spec.rank}"
        ) % max(1, size - lo)
        with open(path, "r+b") as f:
            f.seek(off)
            b = f.read(1)
            f.seek(off)
            f.write(bytes([b[0] ^ 0xFF]))

    # ------------------------------------------------------------------
    # fabric hook
    # ------------------------------------------------------------------
    def on_message(self, src: int, dst: int, tag: int,
                   nbytes: int) -> Optional[Tuple[str, float]]:
        """Returns None (deliver normally), ("drop", 0) or
        ("delay", seconds) for the message being posted."""
        with self._lock:
            key = (src, dst)
            n = self._msg_counts.get(key, 0) + 1
            self._msg_counts[key] = n
            for kind in (P.MSG_DROP, P.MSG_DELAY):
                for i in self._candidates(kind):
                    s = self.plan.specs[i]
                    if s.src == src and s.dst == dst and s.nth == n:
                        self._fire(i, src=src, dst=dst, nth=n, tag=tag,
                                   nbytes=nbytes)
                        if kind == P.MSG_DROP:
                            return ("drop", 0.0)
                        return ("delay", s.delay)
        return None

    # ------------------------------------------------------------------
    # coordinator hook
    # ------------------------------------------------------------------
    def round_abort_requested(self, generation: int, attempt: int) -> bool:
        """True when the plan wants this (generation, attempt) checkpoint
        round aborted (fires once; the retry proceeds normally)."""
        with self._lock:
            for i in self._candidates(P.ROUND_ABORT):
                s = self.plan.specs[i]
                if s.generation == generation and s.attempt == attempt:
                    self._fire(i, generation=generation, attempt=attempt)
                    return True
        return False
