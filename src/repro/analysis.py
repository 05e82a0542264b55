"""Shape-comparison reports: measured metrics vs the paper's numbers.

The reproduction's promise is shape fidelity, so this module turns a set
of measured :class:`~repro.simulator.metrics.SimulationMetrics` into a
verdict table against :mod:`repro.paper`: for each claim, the paper's
ratio, the measured ratio, and whether the direction (and roughly the
magnitude) holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro import paper
from repro.simulator.metrics import SimulationMetrics, ratio_text, reduction


@dataclass(frozen=True)
class ShapeCheck:
    """One claim's verdict.

    Attributes:
        name: Human-readable claim.
        paper_value: The published ratio/number.
        measured: What this run produced.
        holds: Direction matches (measured on the same side of 1.0 /
            same ordering); never for an undefined (``nan``) ratio.
        within_band: Additionally within ``band`` of the paper's
            magnitude (informational; shape reproduction does not
            require it).
    """

    name: str
    paper_value: float
    measured: float
    holds: bool
    within_band: bool

    def __str__(self) -> str:
        mark = "+" if self.holds else "!"
        return (
            f"[{mark}] {self.name}: paper {self.paper_value:.2f}, "
            f"measured {ratio_text(self.measured)}"
        )


def _ratio_check(
    name: str, paper_value: float, measured: float, band: float
) -> ShapeCheck:
    # An undefined ratio (nothing waited on either side) tests nothing.
    holds = not math.isnan(measured) and (measured > 1.0) == (paper_value > 1.0)
    within = (
        abs(measured - paper_value) <= band * paper_value
        if paper_value
        else False
    )
    return ShapeCheck(name, paper_value, measured, holds, within)


def compare_to_paper(
    results: Dict[str, SimulationMetrics], band: float = 0.75
) -> List[ShapeCheck]:
    """Check the Table 5 headline shapes against a results dict.

    ``results`` maps scheme keys (``"baseline"``, ``"lyra"``,
    ``"lyra_loaning"``, ``"lyra_scaling"``, ...) to measured metrics;
    only the claims whose schemes are present are checked.
    """
    checks: List[ShapeCheck] = []
    baseline = results.get("baseline")
    if baseline is None:
        raise ValueError("results must include the 'baseline' scheme")

    def red(metric: str, other: SimulationMetrics) -> float:
        if metric == "queuing":
            return reduction(
                baseline.queuing_summary().mean, other.queuing_summary().mean
            )
        return reduction(baseline.jct_summary().mean, other.jct_summary().mean)

    pairs = [
        ("lyra", "queuing_reduction_basic", "queuing",
         "Lyra queuing reduction (Basic)"),
        ("lyra", "jct_reduction_basic", "jct",
         "Lyra JCT reduction (Basic)"),
        ("lyra_loaning", "queuing_reduction_loaning", "queuing",
         "loaning-only queuing reduction"),
        ("lyra_loaning", "jct_reduction_loaning", "jct",
         "loaning-only JCT reduction"),
        ("lyra_scaling", "queuing_reduction_scaling", "queuing",
         "scaling-only queuing reduction"),
        ("lyra_scaling", "jct_reduction_scaling", "jct",
         "scaling-only JCT reduction"),
    ]
    for scheme, headline, metric, label in pairs:
        metrics = results.get(scheme)
        if metrics is None:
            continue
        checks.append(
            _ratio_check(label, paper.HEADLINES[headline],
                         red(metric, metrics), band)
        )

    lyra = results.get("lyra")
    if lyra is not None:
        gain = lyra.overall_usage.mean() / max(
            1e-9, baseline.overall_usage.mean()
        )
        checks.append(
            _ratio_check(
                "overall usage improvement (Basic)",
                1.0 + paper.HEADLINES["usage_improvement_basic"],
                gain,
                band,
            )
        )
    return checks


def render_report(checks: List[ShapeCheck]) -> str:
    """A printable verdict table plus a one-line summary."""
    lines = [str(check) for check in checks]
    holding = sum(1 for c in checks if c.holds)
    lines.append(
        f"shape verdict: {holding}/{len(checks)} claims hold"
        if checks
        else "no claims checked"
    )
    return "\n".join(lines)
