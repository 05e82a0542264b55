"""Correctness oracles: differential testing for the core decisions.

Lyra's three core decisions — greedy server reclaiming (§4), two-phase
SJF+MCKP allocation (§5.2) and best-fit-decreasing placement (§5.3) — are
heuristics over NP-hard problems, layered with caching, incremental views
and transactional plan application.  This package keeps them honest with
three kinds of machinery:

* :mod:`repro.oracle.reference` — slow, obviously-correct reference
  implementations (exhaustive search over job subsets, brute-force MCKP,
  a first-principles restatement of the two-phase pool rules) that the
  production paths are diffed against on randomized small instances;
* :mod:`repro.oracle.metamorphic` — properties that must hold across
  *related* inputs (more capacity never means more preemptions, permuting
  candidates never changes plan cost, dry-run pricing equals the
  committed plan's observed deltas);
* :mod:`repro.oracle.refview` — the scan-from-scratch reference for the
  scheduling view (:class:`~repro.oracle.refview.ReferenceView`), swapped
  into a built simulation by
  :func:`~repro.oracle.refview.install_reference_view`;
* :mod:`repro.oracle.conformance` — the runner behind ``repro check``:
  seeded instance sweeps plus mini-scenario replays through every
  registered scheduler on the production view and on the reference
  view, reporting the first divergence with a minimized, runnable repro
  script.
"""
