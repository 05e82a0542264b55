"""repro: a reproduction of "Lyra: Elastic Scheduling for Deep Learning
Clusters" (EuroSys '23).

Public API highlights:

* :mod:`repro.cluster` — GPUs, servers, jobs, whitelist-based loaning.
* :mod:`repro.core` — Lyra's reclaiming, two-phase allocation, placement
  and the resource orchestrator (reactive: it reclaims on the traffic the
  inference trace shows; the paper's §6 LSTM forecast is a stated
  divergence, EXPERIMENTS.md).
* :mod:`repro.schedulers` — Lyra's job scheduler plus FIFO/SJF/Gandiva/
  AFS/Pollux/Opportunistic comparison schemes.
* :mod:`repro.simulator` — the discrete-event cluster simulator.
* :mod:`repro.traces` — synthetic workload and inference-utilization
  traces calibrated to the paper's statistics.
* :mod:`repro.elastic` — training-throughput scaling models.
* :mod:`repro.obs` — observability: event tracing, metrics registry,
  trace inspection (docs/OBSERVABILITY.md).
* :mod:`repro.scenarios` — evaluation scenarios and the experiment
  runner (:func:`repro.scenarios.run_scheme`).
"""
