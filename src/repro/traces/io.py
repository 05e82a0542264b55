"""Trace serialization: save and load workloads as JSON or CSV.

Lets users replay their own traces (or share generated ones) instead of
the synthetic generator — the reproduction-friendly equivalent of the
paper's proprietary trace files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Union

from repro.cluster.job import RECORD_FIELDS, JobSpec, spec_from_record, spec_record
from repro.ioutil import atomic_write, atomic_write_text
from repro.traces.workload import DAY, TraceConfig, Workload


def save_workload(workload: Workload, path: Union[str, Path]) -> None:
    """Write a workload to ``path`` (.json or .csv by extension)."""
    path = Path(path)
    records = [spec_record(s) for s in workload.specs]
    if path.suffix == ".json":
        payload = {
            "config": {
                "num_jobs": workload.config.num_jobs,
                "days": workload.config.days,
                "cluster_gpus": workload.config.cluster_gpus,
                "seed": workload.config.seed,
                "target_load": workload.config.target_load,
            },
            "jobs": records,
        }
        atomic_write_text(path, json.dumps(payload))
    elif path.suffix == ".csv":
        with atomic_write(path, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=RECORD_FIELDS)
            writer.writeheader()
            writer.writerows(records)
    else:
        raise ValueError(f"unsupported trace format {path.suffix!r}")


def load_workload(
    path: Union[str, Path], cluster_gpus: int = 0
) -> Workload:
    """Read a workload from ``path`` (.json or .csv).

    JSON files produced by :func:`save_workload` carry their trace
    config; CSV files (and foreign JSON without one) get a config
    reconstructed from the data, with ``cluster_gpus`` supplied by the
    caller (or estimated from the peak demand).
    """
    path = Path(path)
    config_dict = None
    if path.suffix == ".json":
        records = json.loads(path.read_text())
        if isinstance(records, dict):
            config_dict = records.get("config")
            records = records.get("jobs", [])
    elif path.suffix == ".csv":
        with path.open(newline="") as fh:
            records = list(csv.DictReader(fh))
    else:
        raise ValueError(f"unsupported trace format {path.suffix!r}")

    specs: List[JobSpec] = [spec_from_record(r) for r in records]
    if not specs:
        raise ValueError(f"trace {path} contains no jobs")
    specs.sort(key=lambda s: (s.submit_time, s.job_id))

    if config_dict is not None:
        config = TraceConfig(
            num_jobs=len(specs),
            days=float(config_dict.get("days", 1.0)),
            cluster_gpus=int(config_dict.get("cluster_gpus", 1)),
            seed=int(config_dict.get("seed", 0)),
            target_load=float(config_dict.get("target_load", 1.0)),
        )
    else:
        span_days = max(1.0 / 24.0, specs[-1].submit_time / DAY)
        gpus = cluster_gpus or max(s.max_gpus for s in specs)
        config = TraceConfig(
            num_jobs=len(specs),
            days=float(span_days),
            cluster_gpus=int(gpus),
        )
    return Workload(specs=specs, config=config)
