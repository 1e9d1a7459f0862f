"""The ``archline serve`` prediction service.

A long-running asyncio HTTP/JSON service answering the paper's core
query -- "what will kernel K cost in time/energy/power on platform P
under cap delta-pi?" -- as a *served* prediction rather than a batch
job.  The design move is request coalescing: concurrent in-flight
queries are gathered by :class:`~repro.serve.batcher.Batcher` into one
pass of the engine's vectorised path per engine group -- physics once
(:meth:`~repro.machine.engine.Engine.physics`), then execution of the
rows within the service's bound
(:meth:`~repro.machine.engine.Engine.execute`) -- under a
max-batch-size / max-linger policy, so throughput scales with batch
width rather than request count, while every response stays
bit-identical to the unbatched :meth:`~repro.machine.engine.Engine.run`
oracle (the engine's own tested property).

Layers
------
:mod:`repro.serve.protocol`
    The wire protocol: request parsing/validation with typed errors,
    kernel construction from abstract algorithms, response encoding
    straight from a batch's result arrays.
:mod:`repro.serve.theta`
    Parameter-source resolution: ground-truth theta or fitted
    theta-hat recovered from a campaign (optionally through the
    content-addressed :mod:`repro.store` cache), memoised into
    ready-to-run engines (a bounded, least-recently-used memo).
:mod:`repro.serve.batcher`
    The coalescing core, run by whichever submission or timer closes
    an assembly (no dispatcher task), and its width counters.
:mod:`repro.serve.server`
    Hand-rolled HTTP/1.1, one :class:`asyncio.Protocol` per connection
    on ``loop.create_server``: ``/predict``, ``/stats``, ``/healthz``,
    graceful shutdown, telemetry spans.
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
