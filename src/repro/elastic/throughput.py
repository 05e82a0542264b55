"""Training-throughput scaling models.

Lyra's allocator assumes training throughput scales linearly with the number
of workers inside a job's scaling range (§5), which the paper validates for
ResNet-50, VGG16, BERT and GNMT-16 (Fig. 3).  §7.2 additionally evaluates an
imperfect-scaling variant where every added worker contributes only 80 % of
its ideal throughput.  Both are modelled here as *effective worker* curves:
``effective_workers(w)`` maps a worker count to the equivalent number of
perfectly-scaling workers.

Throughput is expressed in training-GPU (V100) equivalents: a worker using
``g`` GPUs on hardware with ``relative_compute`` ``r`` contributes
``g * r * (effective_workers(w) / w)`` when the job runs ``w`` workers.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScalingModel:
    """Per-worker efficiency curve of a distributed training job.

    Attributes:
        name: Identifier used by traces and scenario configs.
        marginal_loss: Throughput fraction lost by each *added* worker
            beyond the first.  ``0.0`` is the paper's default linear
            assumption; ``0.2`` reproduces the imperfect-scaling study
            (§7.2, Fig. 8 / Fig. 16).
    """

    name: str = "linear"
    marginal_loss: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.marginal_loss < 1.0:
            raise ValueError(
                f"marginal_loss must be in [0, 1), got {self.marginal_loss}"
            )

    def effective_workers(self, workers: int) -> float:
        """Equivalent number of perfectly-scaling workers.

        With marginal loss ``l``, worker ``k`` (k >= 2) contributes
        ``(1 - l)`` of a worker, so ``eff(w) = 1 + (w - 1) * (1 - l)``.
        ``eff(0) == 0`` and ``eff(1) == 1`` always hold.
        """
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        if workers == 0:
            return 0.0
        return 1.0 + (workers - 1) * (1.0 - self.marginal_loss)


#: The paper's default assumption inside the scaling range (§5).
LINEAR = ScalingModel(name="linear", marginal_loss=0.0)

#: The §7.2 imperfect-scaling study: each added worker loses 20 %.
SUBLINEAR_20 = ScalingModel(name="sublinear20", marginal_loss=0.2)

_REGISTRY = {m.name: m for m in (LINEAR, SUBLINEAR_20)}


def get_scaling_model(name: str) -> ScalingModel:
    """Look up a scaling model by name, e.g. from a trace record."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scaling model {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
