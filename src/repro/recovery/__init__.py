"""Durable state: snapshots, a write-ahead plan journal, and recovery.

The scheduler's entire run state is in-memory; this package makes it
survive process death, for the simulator and the serving daemon alike.
The pieces (docs/ROBUSTNESS.md):

* :class:`~repro.recovery.codec.SnapshotCodec` — versioned, checksummed
  envelope around the pickled kernel state (jobs, clusters, loans,
  view, executor counters, fault-injector RNG streams, the event queue
  as tagged descriptors, metrics, activities), kept in numbered files
  by :class:`~repro.recovery.codec.SnapshotStore`;
* :class:`~repro.recovery.wal.PlanWAL` — an append-only, fsynced JSONL
  journal of every committed :class:`~repro.core.actions.EpochPlan`,
  written *before* the plan's effects land;
* :class:`~repro.recovery.manager.RecoveryManager` — checkpoints a run
  every N simulated seconds between engine events, and restores the
  latest valid snapshot + WAL so a killed run resumes byte-identical to
  the uninterrupted one.

A simulation with ``sim.recovery is None`` (the default) never imports
this package and takes the exact pre-recovery code path.
"""
