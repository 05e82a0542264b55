"""GPU device models.

The paper's production environment uses Tesla V100 (32 GB) in the training
cluster and Nvidia T4 (16 GB) in the inference cluster.  When inference
servers are loaned to training, their capacity is *normalized* relative to
training GPUs (§5.2), and the testbed observes that three loaned T4 servers
are roughly equivalent to one V100 training server in computational
capability (§7.5).  We capture that with a ``relative_compute`` factor
expressed in training-GPU (V100) equivalents.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUType:
    """A GPU device model.

    Attributes:
        name: Marketing name, e.g. ``"V100"``.
        memory_gb: On-board memory in gigabytes.  Fungible training jobs
            must shrink their local batch size to fit smaller memory
            (§2.1); the ratio of memories drives that adjustment.
        relative_compute: Training throughput of one GPU of this type
            relative to one training-cluster GPU (V100 == 1.0).
    """

    name: str
    memory_gb: int
    relative_compute: float

    def __post_init__(self) -> None:
        if self.memory_gb <= 0:
            raise ValueError(f"memory_gb must be positive, got {self.memory_gb}")
        if self.relative_compute <= 0:
            raise ValueError(
                f"relative_compute must be positive, got {self.relative_compute}"
            )


#: The training-cluster GPU in the paper's production environment.
V100 = GPUType(name="V100", memory_gb=32, relative_compute=1.0)

#: The inference-cluster GPU; ~1/3 of a V100 for training workloads (§7.5).
T4 = GPUType(name="T4", memory_gb=16, relative_compute=1.0 / 3.0)

#: A newer training GPU, available for custom scenarios.
A100 = GPUType(name="A100", memory_gb=80, relative_compute=1.75)
