"""Restartable periodic timers.

The protocol's "delay between unforced CLCs" timer has one subtle behaviour
the paper calls out explicitly (§5.2): *"the timer is reset when a forced CLC
is established"* -- which is why the total number of stored CLCs is smaller
than ``total_time / delay + forced``.  :class:`PeriodicTimer.reset` models
exactly that.

A period of ``None`` (or ``math.inf``) means the timer never fires, matching
the paper's "timer set to infinite" configurations (Fig. 7).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.sim.kernel import Event, Simulator, event_pending

__all__ = ["PeriodicTimer"]


class PeriodicTimer:
    """Fires ``action()`` every ``period`` simulated seconds until stopped.

    * :meth:`start` arms the timer (first firing one full period from now),
    * :meth:`reset` re-arms it so the *next* firing is one full period from
      the current instant (used when a forced CLC commits),
    * :meth:`stop` disarms it.

    The timer re-arms itself after each firing, so ``action`` runs at most
    once per period even if it itself takes simulated time.
    """

    def __init__(
        self,
        sim: Simulator,
        period: Optional[float],
        action: Callable[[], Any],
        name: str = "timer",
    ):
        if period is not None and period <= 0:
            raise ValueError(f"timer period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.action = action
        self.name = name
        self._event: Optional[Event] = None
        self._running = False
        self.firings = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when a finite period is configured (even if not started)."""
        return self.period is not None and not math.isinf(self.period)

    @property
    def armed(self) -> bool:
        """True when a firing is currently scheduled."""
        return self._event is not None and event_pending(self._event)

    def start(self) -> None:
        """Arm the timer.  No-op for an infinite/disabled period."""
        self._disarm()
        if not self.enabled:
            self._running = False
            return
        self._running = True
        assert self.period is not None
        # _disarm() cleared self._event, so this is always a fresh entry;
        # the timer-wheel reuse happens in _fire(), which re-arms the
        # just-popped entry via sim.reschedule().
        self._event = self.sim.schedule(self.period, self._fire)

    def reset(self) -> None:
        """Restart the full period from the current instant."""
        self.start()

    def stop(self) -> None:
        """Disarm the timer; it will not fire until started again.

        Safe to call from within the timer's own action: the post-action
        re-arm honours it.
        """
        self._running = False
        self._disarm()

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        fired = self._event  # just popped by the kernel: safe to reuse
        self._event = None
        self.firings += 1
        self.action()
        # The action may itself have re-armed (reset) or stopped the timer.
        if self._running and self._event is None and self.enabled:
            assert self.period is not None
            self._event = self.sim.reschedule(fired, self.period, self._fire)

    def _disarm(self) -> None:
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PeriodicTimer {self.name} period={self.period} armed={self.armed}>"
