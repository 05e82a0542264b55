"""The job profiler (§3): running-time estimates for enqueued jobs.

Lyra's architecture puts a *job profiler* between the queue and the
scheduler: "The job profiler estimates the workload after jobs are
enqueued", and §5.2 notes the running time "can be predicted with
profiling and ML methods".  The evaluation shows the scheduler tolerates
substantial estimation error (Table 9), so a compact model suffices.

This profiler learns online from completed jobs:

* per model-family running-time statistics in log space (a family mean
  with shrinkage toward the global mean while samples are few);
* a ridge regression on job shape — log(max workers), GPUs per worker,
  elasticity — refining the family estimate, solved in closed form with
  NumPy on every refresh.

``predict`` never fails: with no history at all it falls back to the
prior; the estimate quality then improves as completions accumulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.job import JobSpec

#: Prior mean running time used before any job completes (seconds).
_PRIOR_DURATION = 1800.0
#: Pseudo-count of the prior when shrinking family means.
_SHRINKAGE = 4.0


@dataclass
class _FamilyStats:
    count: int = 0
    log_sum: float = 0.0

    def mean_log(self, prior_log: float) -> float:
        """Shrunk family mean in log space."""
        return (self.log_sum + _SHRINKAGE * prior_log) / (
            self.count + _SHRINKAGE
        )


class JobProfiler:
    """Online running-time predictor over completed jobs."""

    def __init__(self, ridge: float = 1.0, refit_every: int = 16):
        if ridge <= 0:
            raise ValueError(f"ridge must be positive, got {ridge}")
        if refit_every < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        self.ridge = ridge
        self.refit_every = refit_every
        self._families: Dict[str, _FamilyStats] = {}
        self._rows: List[np.ndarray] = []
        self._targets: List[float] = []
        self._weights: Optional[np.ndarray] = None
        self._observed = 0

    # ------------------------------------------------------------------
    @property
    def observations(self) -> int:
        return self._observed

    def _global_log(self) -> float:
        total = sum(f.count for f in self._families.values())
        if total == 0:
            return math.log(_PRIOR_DURATION)
        log_sum = sum(f.log_sum for f in self._families.values())
        return log_sum / total

    def _features(self, spec: JobSpec) -> np.ndarray:
        return np.array(
            [
                1.0,
                math.log(spec.max_workers),
                float(spec.gpus_per_worker),
                1.0 if spec.elastic else 0.0,
            ]
        )

    # ------------------------------------------------------------------
    def observe(self, spec: JobSpec, duration: float) -> None:
        """Record a completed job's true running time (at max demand)."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        stats = self._families.setdefault(spec.model_family, _FamilyStats())
        stats.count += 1
        log_duration = math.log(duration)
        stats.log_sum += log_duration
        self._observed += 1
        # the regression predicts the residual over the family mean
        residual = log_duration - stats.mean_log(self._global_log())
        self._rows.append(self._features(spec))
        self._targets.append(residual)
        if self._observed % self.refit_every == 0:
            self._refit()

    def _refit(self) -> None:
        x = np.asarray(self._rows)
        y = np.asarray(self._targets)
        dim = x.shape[1]
        gram = x.T @ x + self.ridge * np.eye(dim)
        self._weights = np.linalg.solve(gram, x.T @ y)

    # ------------------------------------------------------------------
    def predict(self, spec: JobSpec) -> float:
        """Estimated running time (seconds, at maximum demand)."""
        prior_log = self._global_log()
        stats = self._families.get(spec.model_family)
        base_log = stats.mean_log(prior_log) if stats else prior_log
        if self._weights is not None:
            base_log += float(self._features(spec) @ self._weights)
        return float(math.exp(base_log))

    def estimate_error(self, spec: JobSpec) -> float:
        """Multiplier ``predicted / actual`` — what the scheduler sees.

        This is the organic counterpart of the Table 9 synthetic error
        injection: the simulator sets each pending job's visible
        estimate to ``actual * estimate_error``.
        """
        return self.predict(spec) / spec.duration
