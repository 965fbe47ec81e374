"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the program: it replaces public entry points
(class methods and module functions) with wrappers that record one span
per call, and puts the originals back afterwards.  Each span is charged
to a *layer* (a module of the program, e.g. ``mana.virtid``) and an
*operation* (the entry point's name).

Self time is computed per thread, on the thread's CPU clock: a span's
self time is its CPU time minus that of the child spans that ran inside
it on the same thread.  Calls that stay inside one layer (a method of the layer calling
another of its own entry points, or ``super()``) pass straight through,
so counts are calls *into* a layer and its self time is counted once.

Records are grouped by ``(case, layer, op)``; ``case`` is a label the
benchmark sets before each job so per-case breakdowns (for example
MPICH vs Open MPI) can be read off the same run.
"""

from __future__ import annotations

import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

#: (case, layer, op) -> Record
Key = Tuple[str, str, str]


class Record:
    """Aggregated spans of one (case, layer, op)."""

    __slots__ = ("calls", "incl_s", "incl_cpu", "self_cpu", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0      # wall seconds
        self.incl_cpu = 0.0    # the thread's CPU seconds
        self.self_cpu = 0.0
        self.extra: Dict[str, float] = {}

    def merge(self, other: "Record") -> None:
        self.calls += other.calls
        self.incl_s += other.incl_s
        self.incl_cpu += other.incl_cpu
        self.self_cpu += other.self_cpu
        for k, v in other.extra.items():
            self.extra[k] = self.extra.get(k, 0.0) + v

    def scale(self, factor: float) -> None:
        """Multiply every sum by ``factor`` (e.g. to get per-pass values)."""
        self.calls *= factor
        self.incl_s *= factor
        self.incl_cpu *= factor
        self.self_cpu *= factor
        for k in self.extra:
            self.extra[k] *= factor


class Tracer:
    """Records spans from wrapped entry points.

    Each span is timed twice: by ``clock`` (wall time, which includes
    blocking and waiting for the interpreter lock) and by ``cpu_clock``
    (the calling thread's CPU time, which does not; self time uses it).  Both are
    injectable so the self-time arithmetic can be tested with scripted
    timestamps.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.case = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: List[Dict[Key, Record]] = []
        # (owner, attribute name, original value) for unpatch().
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return stack, local.table

    def wrap(self, layer: str, op: str, fn: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to record a span of ``layer``/``op``.

        ``measure(args, kwargs, result)`` may return a dict of extra
        quantities (bytes, objects, ...) summed into the record.
        """
        tracer = self
        clock, cpu_clock = self.clock, self.cpu_clock

        def traced(*args, **kwargs):
            stack, table = tracer._thread_state()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            # [layer, CPU seconds of children]
            frame = [layer, 0.0]
            stack.append(frame)
            t0, c0 = clock(), cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur, cpu = clock() - t0, cpu_clock() - c0
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                key = (tracer.case, layer, op)
                rec = table.get(key)
                if rec is None:
                    rec = table[key] = Record()
                rec.calls += 1
                rec.incl_s += dur
                rec.incl_cpu += cpu
                rec.self_cpu += cpu - frame[1]
            if measure is not None:
                for k, v in measure(args, kwargs, result).items():
                    rec.extra[k] = rec.extra.get(k, 0.0) + v
            return result

        traced.__name__ = getattr(fn, "__name__", op)
        # The program reaches through ``__wrapped__`` of its own
        # decorators (``BaseMpiLib.test.__wrapped__`` is the uncharged
        # internal call), so keep that attribute meaning the same thing.
        inner = getattr(fn, "__wrapped__", None)
        traced.__wrapped__ = (fn if inner is None
                              else self.wrap(layer, op, inner, measure))
        return traced

    def records(self) -> Dict[Key, Record]:
        """All threads' records merged."""
        out: Dict[Key, Record] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, rec in list(table.items()):
                agg = out.get(key)
                if agg is None:
                    agg = out[key] = Record()
                agg.merge(rec)
        return out

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]
                              if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def patch_method(self, cls: type, name: str, layer: str,
                     op: Optional[str] = None,
                     measure: Optional[Callable] = None) -> None:
        """Wrap ``cls.name`` (defined on ``cls`` itself)."""
        if name not in cls.__dict__:
            raise AttributeError(f"{cls.__qualname__} defines no {name!r}")
        raw = cls.__dict__[name]
        op = op or f"{cls.__name__}.{name}"
        if isinstance(raw, staticmethod):
            self._set(cls, name,
                      staticmethod(self.wrap(layer, op, raw.__func__, measure)))
        elif isinstance(raw, classmethod):
            self._set(cls, name,
                      classmethod(self.wrap(layer, op, raw.__func__, measure)))
        else:
            self._set(cls, name, self.wrap(layer, op, raw, measure))

    def patch_function(self, module: types.ModuleType, name: str, layer: str,
                       op: Optional[str] = None,
                       measure: Optional[Callable] = None) -> None:
        """Wrap module function ``module.name`` and every alias of it.

        A caller that did ``from module import name`` holds its own
        reference, so every loaded module of the program (``repro*``)
        whose global binds the same object is rebound too.
        """
        orig = getattr(module, name)
        wrapped = self.wrap(layer, op or name, orig, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapped)

    def patch_module_attr(self, module: types.ModuleType, name: str,
                          value) -> None:
        """Replace ``module.name`` with ``value`` until :meth:`unpatch`."""
        self._set(module, name, value)

    def unpatch(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)


class ModuleProxy:
    """Stands in for a module inside one caller's namespace, with some
    functions wrapped (e.g. ``zlib.compress`` as the chunk store sees
    it) and every other attribute delegated."""

    def __init__(self, module: types.ModuleType, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)
