"""repro.serve — multi-process ranking server for trained checkpoints.

**Serving is built from one config**::

    from repro.serve import ServeConfig, build

    with build(ServeConfig(checkpoint_dir="ckpts")) as handle:
        handle.serve_forever()

:class:`ServeConfig` holds every knob (listener, worker count,
admission control, SLO, hot reload, streaming ingest, persistence) and
:func:`build` wires the whole stack from it.  The layer classes below are plain
classes that live in their submodules, not in this namespace.

The stack, bottom to top:

- :mod:`~repro.serve.registry` — :class:`ModelRegistry`: discover/verify
  checkpoint archives, reconstruct models via the unified ``state_dict``
  API, LRU-cache them under a memory budget;
- :mod:`~repro.serve.engine` — :class:`InferenceEngine`: tape-free
  forwards with explicit dense/sparse graph-mode dispatch and a per-day
  score memo;
- :mod:`~repro.serve.service` — the ranking response builders, and
  :class:`RankingService`: the front-end's registry, engines and
  streaming ingest;
- :mod:`~repro.serve.httpd` — the versioned (``/v1/``) API's routes,
  request validation and JSON error envelope;
- :mod:`~repro.serve.shm` — shared-memory weights with generation-tagged
  hot swap (:class:`SharedWeightStore` / :class:`SharedWeightReader`);
- :mod:`~repro.serve.cluster` — :class:`ServingCluster`: the server,
  an asyncio front-end + forked zero-copy inference workers with
  admission control and hot reload (``repro.cli serve`` runs it,
  ``repro.cli query`` asks it);
- :mod:`~repro.serve.telemetry` — :class:`ServingTelemetry`: latency
  percentiles, SLO evaluation, schema-v1 reports.

See ``docs/serving.md`` for the train → checkpoint → serve → query
lifecycle.
"""

import importlib

from .config import SERVE_MODES, ServeConfig, ServeHandle, build

#: every other exported name → the submodule that defines it, imported on
#: first access: importing the config (``repro.cli`` reads its fields for
#: the ``serve`` flags) loads none of the server stack, asyncio or
#: multiprocessing.
_LAZY_EXPORTS = {
    "ClientConnectError": "client", "QueryClient": "client",
    "fetch_endpoints": "client",
    "ClusterError": "cluster", "ServingCluster": "cluster",
    "ApiError": "httpd",
    "RegistryError": "registry", "ServableModel": "registry",
    "build_servable": "registry", "infer_rtgcn_architecture": "registry",
    "resolve_strategy": "registry",
    "ServiceTimeoutError": "service",
    "SharedWeightReader": "shm", "SharedWeightStore": "shm",
    "ShmUnavailableError": "shm", "shm_available": "shm",
    "StreamIngestor": "stream",
    "ServingTelemetry": "telemetry",
}


def __getattr__(name: str):
    submodule = _LAZY_EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


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
    "ServingTelemetry", "StreamIngestor",
    "ServableModel",
    "build_servable", "infer_rtgcn_architecture", "resolve_strategy",
]
