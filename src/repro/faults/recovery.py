"""Recovery policies: how the system responds when faults land.

Injection without recovery is just destruction; this module holds the
*policy* half of the resilience story:

* :class:`RetryPolicy` — exponential backoff with deterministic jitter
  and a cap, used by the resource manager when container launches fail
  transiently (`repro.faults.plan.LaunchFailures`).
* :class:`DegradedLoaning` — the reactive safety margin the capacity
  orchestrator falls back to while the usage predictor is down: instead
  of trusting a forecast, loan only what is idle *right now* minus a
  conservative headroom.

Both are pure data + arithmetic so they can live in a fault plan and
round-trip through JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient launch failures.

    Attempt *i* (0-based) sleeps ``min(base_delay * factor**i, max_delay)``
    scaled by a jitter draw in ``[1 - jitter, 1 + jitter]``; after
    ``max_attempts`` total attempts the failure becomes permanent for
    this placement (the caller moves on to another server).
    """

    max_attempts: int = 4
    base_delay: float = 5.0
    factor: float = 2.0
    max_delay: float = 120.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.base_delay * self.factor ** attempt, self.max_delay)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw


@dataclass(frozen=True)
class DegradedLoaning:
    """Reactive loaning posture while the predictor is unavailable.

    ``headroom`` is the extra fraction of inference capacity held back
    on top of the orchestrator's normal margin — without a forecast we
    cannot see a spike coming, so we keep more slack.  ``freeze_loans``
    additionally stops *new* loans entirely and only reclaims, the most
    conservative stance.
    """

    headroom: float = 0.15
    freeze_loans: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.headroom <= 1.0:
            raise ValueError(
                f"headroom must be in [0, 1], got {self.headroom}")
