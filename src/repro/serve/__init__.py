"""The ``archline serve`` prediction service.

A long-running asyncio HTTP/JSON service answering the paper's core
query -- "what will kernel K cost in time/energy/power on platform P
under cap delta-pi?" -- as a *served* prediction rather than a batch
job.  The design move is request coalescing: concurrent in-flight
queries are gathered by :class:`~repro.serve.batcher.Batcher` into
single :meth:`~repro.machine.engine.Engine.run_batch` calls under a
max-batch-size / max-linger policy, so throughput scales with batch
width rather than request count, while every response stays
bit-identical to the unbatched :meth:`~repro.machine.engine.Engine.run`
oracle (the engine's own tested property).

Layers
------
:mod:`repro.serve.protocol`
    The wire protocol: request parsing/validation with typed errors,
    kernel construction from abstract algorithms, response encoding.
:mod:`repro.serve.theta`
    Parameter-source resolution: ground-truth theta or fitted
    theta-hat recovered from a campaign (optionally through the
    content-addressed :mod:`repro.store` cache), memoised into
    ready-to-run engines.
:mod:`repro.serve.batcher`
    The coalescing core and its width/latency counters.
:mod:`repro.serve.server`
    Hand-rolled HTTP/1.1 on ``asyncio.start_server``: ``/predict``,
    ``/stats``, ``/healthz``, graceful shutdown, telemetry spans.
:mod:`repro.serve.loadgen`
    Seeded closed-loop and open-loop load generators plus latency
    percentile reporting -- the harness the SLO tests drive.

Protocol, batching policy and SLO methodology: ``docs/SERVE.md``.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        ".batcher": ("BatchStats", "Batcher"),
        ".protocol": (
            "KERNEL_IDS",
            "PredictQuery",
            "ProtocolError",
            "build_kernel",
            "encode_prediction",
            "parse_predict_body",
        ),
        ".server": ("PredictServer",),
        ".theta": ("ThetaResolver",),
    },
)
