"""Shared infrastructure for the per-table/per-figure benchmarks.

Every benchmark regenerates one of the paper's tables or figures on the
synthetic traces.  Absolute numbers differ from the paper (different
hardware, proprietary traces replaced by calibrated synthetic ones), but
the *shape* — which scheme wins, by roughly what factor, where crossovers
fall — is asserted where robust.

Scale is controlled by the ``REPRO_SCALE`` environment variable:

* ``small``  (default): ~900 jobs / 2.5 days / 32+40 servers — seconds.
* ``medium``: ~2,500 jobs / 5 days / 64+76 servers — minutes.
* ``full``:  ~12,000 jobs / 15 days / 443+520 servers — the paper's
  cluster shape; expect a long run.

Results are memoized per (scale, scheme, scenario, options) within the
pytest session so benches that share cells (e.g. the Baseline row) do not
recompute them.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ioutil import atomic_write
from repro.scenarios import ExperimentSetup, default_setup, run_scheme
from repro.simulator.metrics import SimulationMetrics, reduction

_SCALES = {
    "small": dict(num_jobs=900, days=2.5, training_servers=32,
                  inference_servers=40),
    "medium": dict(num_jobs=2500, days=5.0, training_servers=64,
                   inference_servers=76),
    "full": dict(num_jobs=12000, days=15.0, training_servers=443,
                 inference_servers=520),
}

_setups: Dict[Tuple, ExperimentSetup] = {}
_results: Dict[Tuple, SimulationMetrics] = {}


def scale_name() -> str:
    name = os.environ.get("REPRO_SCALE", "small")
    if name not in _SCALES:
        raise ValueError(f"REPRO_SCALE must be one of {sorted(_SCALES)}")
    return name


def get_setup(seed: int = 0, **overrides) -> ExperimentSetup:
    """The session-wide experiment setup for the active scale."""
    key = (scale_name(), seed, tuple(sorted(overrides.items())))
    if key not in _setups:
        params = dict(_SCALES[scale_name()], target_load=1.0, seed=seed)
        params.update(overrides)
        _setups[key] = default_setup(**params)
    return _setups[key]


def run_cached(
    setup: ExperimentSetup,
    scheme: str,
    scenario: str = "basic",
    seed: int = 0,
    cache_key: Optional[str] = None,
    **kwargs,
) -> SimulationMetrics:
    """Run one cell, memoized across benchmarks in this session."""
    key = (id(setup), scheme, scenario, seed, cache_key,
           tuple(sorted((k, str(v)) for k, v in kwargs.items())))
    if key not in _results:
        if scheme == "pollux" and "pollux_generations" not in kwargs:
            # keep the GA tractable at bench scale; the paper's 250
            # generations are only needed at the 3,500-GPU scale.
            kwargs["pollux_generations"] = 20
        _results[key] = run_scheme(
            setup, scheme, scenario=scenario, seed=seed, **kwargs
        )
    return _results[key]


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------
def fmt(value, width=8, decimals=0) -> str:
    if value is None:
        return "NA".rjust(width)
    if isinstance(value, float) and decimals:
        return f"{value:.{decimals}f}".rjust(width)
    if isinstance(value, float):
        return f"{value:,.0f}".rjust(width)
    return str(value).rjust(width)


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence]) -> str:
    lines = [f"=== {title} (scale={scale_name()}) ==="]
    widths = [
        max(len(str(h)), *(len(str(fmt_cell(c))) for c in col))
        for h, col in zip(headers, zip(*rows))
    ] if rows else [len(h) for h in headers]
    header = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(str(fmt_cell(c)).rjust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def emit(name: str, title: str, headers: Sequence[str],
         rows: Sequence[Sequence], notes: str = "") -> str:
    """Print a reproduced table and persist it under benchmarks/results/."""
    text = render_table(title, headers, rows)
    if notes:
        text += "\n" + notes
    print("\n" + text)
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with atomic_write(os.path.join(results_dir, f"{name}.txt")) as fh:
        fh.write(text + "\n")
    return text


def fmt_cell(cell) -> str:
    if cell is None:
        return "NA"
    if isinstance(cell, float):
        if abs(cell) >= 100:
            return f"{cell:,.0f}"
        if 0 < abs(cell) < 0.1:
            # three significant figures: two decimals would print a
            # 0.0108 preemption ratio as 0.01 and 4.8e-4 as 0.00
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def scheme_row(name: str, metrics: SimulationMetrics) -> List:
    """The standard Table 5-style row for one scheme."""
    queue = metrics.queuing_summary()
    jct = metrics.jct_summary()
    return [
        name,
        queue.mean, queue.median, queue.p95,
        jct.mean, jct.median, jct.p95,
        metrics.training_usage.mean(),
        metrics.overall_usage.mean(),
        metrics.preemption_ratio,
    ]


SCHEME_HEADERS = [
    "scheme", "qmean", "qmed", "q95",
    "jct_mean", "jct_med", "jct95",
    "usageT", "usageAll", "preempt",
]


def reductions_vs(baseline: SimulationMetrics,
                  other: SimulationMetrics) -> Tuple[float, float]:
    """(queuing reduction, JCT reduction) — the paper's gain metric."""
    return (
        reduction(baseline.queuing_summary().mean,
                  other.queuing_summary().mean),
        reduction(baseline.jct_summary().mean, other.jct_summary().mean),
    )
