"""Per-rank virtual clocks.

Each simulated rank owns one :class:`VirtualClock`.  The clock only moves
forward; ``advance`` adds a cost, ``merge`` implements the causal
max-merge used when a message or collective imposes a lower bound on the
local time (Lamport-style, but with real-valued durations).

The clock is part of the upper-half state: it is checkpointed and
restored so that runtimes measured across a checkpoint/restart remain
meaningful.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple


class VirtualClock:
    """Monotonic virtual time for one rank, in seconds."""

    __slots__ = ("now", "_accounts", "_wait_from")

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        # Per-category accounting (compute/comm/overhead/...), used by the
        # harness to decompose runtimes the way Section 6.3 reasons about
        # context-switch-driven overhead.
        self._accounts: Dict[str, float] = {}
        # (now, idle total) where the current run of merges began; None
        # once time has been advanced since the last merge.
        self._wait_from: Optional[Tuple[float, float]] = None

    def advance(self, seconds: float, account: str = "other") -> float:
        """Advance by a non-negative duration; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self.now += seconds
        self._accounts[account] = self._accounts.get(account, 0.0) + seconds
        self._wait_from = None
        return self.now

    def merge(self, lower_bound: float) -> float:
        """Causal merge: ensure ``now >= lower_bound`` (waiting counts as idle)."""
        if lower_bound > self.now:
            run = self._wait_from
            if run is None:
                run = self._wait_from = (
                    self.now, self._accounts.get("idle", 0.0)
                )
            self.now = lower_bound
            # Merges with no advance between them are one wait, charged
            # as a whole: a waitall that completes its receives in arrival
            # order then rounds the idle total the same way in every run.
            self._accounts["idle"] = run[1] + (lower_bound - run[0])
        return self.now

    def account(self, name: str) -> float:
        """Total seconds charged to ``name`` so far."""
        return self._accounts.get(name, 0.0)

    def accounts(self) -> Dict[str, float]:
        return dict(self._accounts)

    # -- checkpoint support ---------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        return {"now": self.now, "accounts": dict(self._accounts)}

    def set_state(self, state: Dict[str, Any]) -> None:
        self.now = float(state["now"])
        self._accounts = dict(state["accounts"])
        self._wait_from = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self.now:.6f})"
