"""The wall-clock :class:`~repro.core.kernel.Driver`.

Maps kernel time onto an asyncio event loop: ``now`` is elapsed loop
time since binding, scaled by ``time_scale`` (kernel seconds per wall
second), and ``schedule`` arms a ``loop.call_later`` timer that holds
the tag and, when due, hands it to ``on_timer`` — the service, which
fires its own orchestrator cadence and passes every other tag to the
kernel's ``dispatch``.  A scale of 60 runs a day of kernel time in 24
wall minutes — handy for demos and load tests; production serving uses
1.0.

The driver is pickle-friendly so a kernel snapshot can embed it: the
loop and armed timers are dropped on pickling (timers die with the
process anyway) and the current kernel time is carried over, so a
restored daemon resumes with time continuing monotonically from where
the snapshot was taken.  The service re-arms completion timers and the
epoch tick after :meth:`bind`-ing the restored driver to its loop.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.kernel import Driver
from repro.obs import get_logger

logger = get_logger("serve.driver")


class WallClockDriver(Driver):
    """Kernel time = ``start_at + (loop.time() - t0) * time_scale``."""

    def __init__(self, time_scale: float = 1.0, start_at: float = 0.0):
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = float(time_scale)
        self._start_at = float(start_at)
        self._loop = None
        self._t0: Optional[float] = None
        #: timers armed since binding (observability, not control flow)
        self.timers_armed = 0
        #: timers whose handler raised (each is logged and swallowed —
        #: one bad event must not kill the daemon)
        self.callback_errors = 0
        #: service hook: fires a due timer's tag
        self.on_timer: Optional[Callable[[tuple], None]] = None
        #: service hook, invoked after every scheduling epoch
        self.on_epoch_finished: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    def bind(self, loop) -> None:
        """Attach to a running event loop; kernel time resumes from
        ``start_at`` (0 for a fresh daemon, the snapshot instant for a
        restored one)."""
        self._loop = loop
        self._t0 = loop.time()

    @property
    def bound(self) -> bool:
        return self._loop is not None

    # ------------------------------------------------------------------
    # the Driver protocol
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        if self._loop is None:
            return self._start_at
        return self._start_at + (self._loop.time() - self._t0) * self.time_scale

    def schedule(self, when: float, tag: tuple) -> None:
        if self._loop is None:
            raise RuntimeError(
                "WallClockDriver.schedule before bind(); the daemon must "
                "bind the driver to its event loop first"
            )
        delay = max(0.0, (when - self.now) / self.time_scale)
        self.timers_armed += 1
        self._loop.call_later(delay, self._fire, tag)

    def schedule_after(self, delay: float, tag: tuple) -> None:
        self.schedule(self.now + delay, tag)

    def epoch_finished(self) -> None:
        if self.on_epoch_finished is not None:
            self.on_epoch_finished()

    # ------------------------------------------------------------------
    def _fire(self, tag: tuple) -> None:
        try:
            self.on_timer(tag)
        except Exception:
            # The simulator lets exceptions kill the run (a bug should
            # fail loudly in a batch job); a daemon must stay up and
            # keep serving the jobs that are fine.
            self.callback_errors += 1
            logger.exception("kernel event %r raised", tag)

    # ------------------------------------------------------------------
    # pickling (kernel snapshots embed the driver)
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"time_scale": self.time_scale, "start_at": self.now}

    def __setstate__(self, state):
        self.__init__(
            time_scale=state["time_scale"], start_at=state["start_at"]
        )
