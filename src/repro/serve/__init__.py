"""Real-time serving of the scheduling kernel.

``repro serve`` promotes the reproduction from a batch simulator into a
long-running scheduler daemon: the same clock-agnostic
:class:`~repro.core.kernel.SchedulerKernel` the simulator drives with a
discrete-event engine runs here on a
:class:`~repro.serve.driver.WallClockDriver` mapped to an asyncio event
loop, fronted by a line-delimited-JSON TCP API
(submit / scale / query / cancel / stats / drain + a streaming event
feed).  See docs/SERVING.md for the API surface and the operational
knobs (epoch batching, admission control, durability).
"""
