"""repro: a reproduction of "Lyra: Elastic Scheduling for Deep Learning
Clusters" (EuroSys '23).

Public API highlights:

* :mod:`repro.cluster` — GPUs, servers, jobs, whitelist-based loaning.
* :mod:`repro.core` — Lyra's reclaiming, two-phase allocation, placement
  and the resource orchestrator.
* :mod:`repro.schedulers` — Lyra's job scheduler plus FIFO/SJF/Gandiva/
  AFS/Pollux/Opportunistic comparison schemes.
* :mod:`repro.simulator` — the discrete-event cluster simulator.
* :mod:`repro.traces` — synthetic workload and inference-utilization
  traces calibrated to the paper's statistics.
* :mod:`repro.elastic` — training-throughput scaling models.
* :mod:`repro.predictor` — the NumPy LSTM usage predictor.
* :mod:`repro.obs` — observability: event tracing, metrics registry,
  phase profiling and trace inspection (docs/OBSERVABILITY.md).
* :mod:`repro.scenarios` — evaluation scenarios and the experiment
  runner (:func:`repro.scenarios.run_scheme`).
"""

from repro.analysis import compare_to_paper, render_report
from repro.obs import Observability
from repro.profiler import JobProfiler
from repro.scenarios import (
    SCENARIOS,
    SCHEMES,
    ExperimentSetup,
    apply_scenario,
    default_setup,
    run_scheme,
)

__version__ = "1.0.0"

__all__ = [
    "JobProfiler",
    "SCENARIOS",
    "SCHEMES",
    "ExperimentSetup",
    "Observability",
    "apply_scenario",
    "compare_to_paper",
    "default_setup",
    "render_report",
    "run_scheme",
    "__version__",
]
