"""Lyra's core: reclaiming, two-phase allocation, placement, orchestration."""
