"""Model-family catalog.

The paper's elastic scaling is restricted to model families that scale well
without retuning the local batch size — ResNet-50, VGG16, BERT and GNMT-16
(Fig. 3, §2.2).  This catalog records each family's throughput
characteristics so traces can tag jobs and the Fig. 3 benchmark can
regenerate the scaling curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class ModelFamily:
    """A DNN model family as seen by the scheduler.

    Attributes:
        name: Family label used in traces.
        unit: Throughput unit for reporting (e.g. ``"img/s"``).
        per_worker_throughput: Samples/second of one 2-GPU worker on
            V100s (the Fig. 3 testbed configuration).
        scaling_efficiency: Fraction of ideal throughput retained each
            time the worker count doubles (Fig. 3 curves are near-linear,
            so these sit close to 1.0).
        elastic_capable: Whether Lyra will consider jobs of this family
            for elastic scaling (§2.2).
        gpus_per_worker: Worker container size used by this family.
    """

    name: str
    unit: str
    per_worker_throughput: float
    scaling_efficiency: float
    elastic_capable: bool
    gpus_per_worker: int = 2

    def throughput(self, workers: int) -> float:
        """Aggregate throughput with ``workers`` workers (Fig. 3 model)."""
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if workers == 0:
            return 0.0
        doublings = 0
        w = workers
        while w > 1:
            w /= 2
            doublings += 1
        return (
            self.per_worker_throughput
            * workers
            * self.scaling_efficiency**doublings
        )


#: Families measured in Fig. 3 (values approximate the published curves).
RESNET = ModelFamily("resnet", "img/s", 1950.0, 0.97, True)
VGG = ModelFamily("vgg", "img/s", 780.0, 0.94, True)
BERT = ModelFamily("bert", "sequence/s", 310.0, 0.96, True)
GNMT = ModelFamily("gnmt", "sequence/s", 240.0, 0.95, True)

#: A catch-all family for the long tail of production jobs that do not
#: scale well enough for elasticity.
GENERIC = ModelFamily("generic", "sample/s", 500.0, 0.80, False, gpus_per_worker=1)

ALL_FAMILIES: Dict[str, ModelFamily] = {
    f.name: f for f in (RESNET, VGG, BERT, GNMT, GENERIC)
}

#: The four elastic-capable families of §2.2.
ELASTIC_FAMILIES: List[ModelFamily] = [RESNET, VGG, BERT, GNMT]


def fig3_series(
    family: ModelFamily, epochs: int = 30, double_every: int = 5
) -> List[Tuple[int, int, float]]:
    """Regenerate a Fig. 3 curve: workers double every five epochs.

    Returns ``(epoch, workers, throughput)`` triples starting from one
    worker, exactly the experiment plotted in the paper.
    """
    series = []
    workers = 1
    for epoch in range(1, epochs + 1):
        if epoch > 1 and (epoch - 1) % double_every == 0:
            workers *= 2
        series.append((epoch, workers, family.throughput(workers)))
    return series
