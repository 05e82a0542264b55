"""Scheduling policies: Lyra and the paper's comparison schemes."""
