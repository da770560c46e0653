"""repro.serve — micro-batched inference serving for trained checkpoints.

**Serving is built from one config**::

    from repro.serve import ServeConfig, build

    with build(ServeConfig(checkpoint_dir="ckpts")) as handle:
        handle.serve_forever()

:class:`ServeConfig` holds every knob (listener, topology, batching,
admission control, SLO, hot reload, persistence) and :func:`build`
wires the whole stack from it.  The layer classes below are plain
classes that live in their submodules, not in this namespace.

The stack, bottom to top:

- :mod:`~repro.serve.registry` — :class:`ModelRegistry`: discover/verify
  checkpoint archives, reconstruct models via the unified ``state_dict``
  API, LRU-cache them under a memory budget;
- :mod:`~repro.serve.engine` — :class:`InferenceEngine`: tape-free
  forwards with explicit dense/sparse graph-mode dispatch;
- :mod:`~repro.serve.batcher` — :class:`MicroBatcher`: coalesce
  concurrent requests into shared forwards;
- :mod:`~repro.serve.service` — :class:`RankingService`: the
  scores/top-k/rank/delta facade with timeout fallback, and the
  response builders both topologies share;
- :mod:`~repro.serve.httpd` — the versioned (``/v1/``) stdlib JSON
  endpoint (``repro.cli serve`` / ``repro.cli query`` wrap it);
- :mod:`~repro.serve.shm` — shared-memory weights with generation-tagged
  hot swap (:class:`SharedWeightStore` / :class:`SharedWeightReader`);
- :mod:`~repro.serve.cluster` — :class:`ServingCluster`: asyncio
  front-end + forked zero-copy inference workers with admission control
  and hot reload (``ServeConfig(mode="cluster")``);
- :mod:`~repro.serve.telemetry` — :class:`ServingTelemetry`: latency
  percentiles, SLO evaluation, batch-size histograms, schema-v1 reports.

See ``docs/serving.md`` for the train → checkpoint → serve → query
lifecycle.
"""

from .batcher import BatcherClosedError
from .client import ClientConnectError, QueryClient, fetch_endpoints
from .cluster import ClusterError, ServingCluster
from .config import SERVE_MODES, ServeConfig, ServeHandle, build
from .httpd import ApiError
from .registry import (RegistryError, ServableModel, build_servable,
                       infer_rtgcn_architecture, resolve_strategy)
from .service import ServiceTimeoutError
from .shm import (SharedWeightReader, SharedWeightStore,
                  ShmUnavailableError, shm_available)
from .stream import StreamIngestor
from .telemetry import ServingTelemetry

__all__ = [
    # the construction path
    "ServeConfig", "ServeHandle", "build", "SERVE_MODES",
    # cluster serving
    "ServingCluster", "ClusterError",
    "SharedWeightStore", "SharedWeightReader", "ShmUnavailableError",
    "shm_available",
    # query client
    "QueryClient", "fetch_endpoints", "ClientConnectError",
    # errors / telemetry / helpers
    "ApiError", "ServiceTimeoutError", "RegistryError",
    "BatcherClosedError", "ServingTelemetry", "StreamIngestor",
    "ServableModel",
    "build_servable", "infer_rtgcn_architecture", "resolve_strategy",
]
