"""The wall-clock :class:`~repro.core.kernel.Driver`.

Maps kernel time onto an asyncio event loop: ``now`` is elapsed loop
time since binding, scaled by ``time_scale`` (kernel seconds per wall
second), and ``schedule`` files the tag in the armed set behind a
``loop.call_later`` timer that, when due, hands it to ``on_timer`` —
the service, which fires its own orchestrator cadence and passes every
other tag to the kernel's ``dispatch``.  A scale of 60 runs a day of
kernel time in 24 wall minutes — handy for demos and load tests;
production serving uses 1.0.

Like the engine's heap, the armed set is data — ``{seq: (when, tag)}``,
an entry leaving it the moment its timer fires — so a kernel snapshot
embeds the driver as it stands: the loop is dropped on pickling, the
current kernel time and the armed set are carried over, and
:meth:`bind`-ing the restored driver to the new process's loop arms
every timer again at its own ``when``.  Time continues from the instant
the snapshot was taken; the downtime in between does not exist in
kernel time.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.kernel import Driver
from repro.obs.log import get_logger

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
        #: armed, unfired timers: arming sequence -> ``(when, tag)``
        self._armed: Dict[int, Tuple[float, tuple]] = {}
        self._next_seq = 0
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
        restored one) and whatever was armed at the snapshot is armed
        again, in arming order, at this process's ``time_scale``."""
        self._loop = loop
        self._t0 = loop.time()
        for seq, (when, _tag) in self._armed.items():
            self._arm(seq, when)

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
        seq = self._next_seq
        self._next_seq = seq + 1
        self._armed[seq] = (when, tag)
        self._arm(seq, when)

    def _arm(self, seq: int, when: float) -> None:
        delay = max(0.0, (when - self.now) / self.time_scale)
        self.timers_armed += 1
        self._loop.call_later(delay, self._fire, seq)

    def schedule_after(self, delay: float, tag: tuple) -> None:
        self.schedule(self.now + delay, tag)

    def epoch_finished(self) -> None:
        if self.on_epoch_finished is not None:
            self.on_epoch_finished()

    # ------------------------------------------------------------------
    def _fire(self, seq: int) -> None:
        # out of the armed set before the handler runs: a snapshot taken
        # inside the handler (an epoch's is) must not restore the
        # very timer that is firing
        _when, tag = self._armed.pop(seq)
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
        return {
            "time_scale": self.time_scale,
            "start_at": self.now,
            "armed": self._armed,
            "next_seq": self._next_seq,
        }

    def __setstate__(self, state):
        self.__init__(
            time_scale=state["time_scale"], start_at=state["start_at"]
        )
        self._armed = state["armed"]
        self._next_seq = state["next_seq"]
