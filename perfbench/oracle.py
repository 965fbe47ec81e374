"""Output oracle: checks every job the benchmark runs against in-process
references.

What is compared is what correct code reproduces exactly on any thread
schedule: per-rank application checksums, each rank's own
``validate()``, job status, and (on the matrix) virtual runtime across
passes.  Image bytes, ``bytes_written``, wall-clock fields and temporary
paths are never compared; they vary with the thread schedule even when
the code is correct.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


def checksums(result) -> List[Optional[float]]:
    """Per-rank application checksums of a finished job."""
    return [
        None if app is None else float(app.checksum)
        for app in result.apps()
    ]


def check_job(result, what: str, status: str = "completed") -> List[str]:
    """The job ended with ``status`` and, when completed, every rank's
    ``validate()`` passed."""
    if result.status != status:
        err = result.first_error() or "no rank error recorded"
        last = err.strip().splitlines()[-1] if err.strip() else err
        return [f"{what}: status {result.status!r}, expected {status!r} "
                f"({last})"]
    if status != "completed":
        return []
    problems = []
    for rank, app in enumerate(result.apps()):
        if app is None:
            problems.append(f"{what}: rank {rank} returned no application")
            continue
        err = app.validate(None)
        if err:
            problems.append(f"{what}: rank {rank} validate(): {err}")
    return problems


def check_checksums(actual: Sequence[Optional[float]],
                    expected: Sequence[Optional[float]],
                    what: str) -> List[str]:
    """Per-rank checksums equal the reference exactly."""
    if len(actual) != len(expected):
        return [f"{what}: {len(actual)} ranks, reference has "
                f"{len(expected)}"]
    return [
        f"{what}: rank {r} checksum {a!r} != reference {e!r}"
        for r, (a, e) in enumerate(zip(actual, expected))
        if a is None or a != e
    ]


class VtimeLedger:
    """Virtual runtimes per case across the passes of one run."""

    def __init__(self) -> None:
        self.seen: Dict[str, List[float]] = {}

    def add(self, case: str, vtime: float) -> None:
        self.seen.setdefault(case, []).append(float(vtime))

    def check_identical(self, case: str, vtime: float) -> List[str]:
        """Record ``vtime`` and require it to equal the first pass's."""
        first = self.seen.get(case, [vtime])[0]
        self.add(case, vtime)
        if vtime != first:
            return [f"{case}: virtual runtime {vtime!r} differs from the "
                    f"first pass's {first!r}"]
        return []

    def max_drift(self) -> float:
        """Largest spread of virtual runtime of one case across passes."""
        return max(
            (max(v) - min(v) for v in self.seen.values() if v), default=0.0
        )
