"""The §3 job profiler: online running-time estimation."""
