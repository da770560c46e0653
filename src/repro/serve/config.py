"""ServeConfig + :func:`build` — the one way to stand up serving.

One field-driven dataclass and one factory, mirroring how
``TrainConfig`` drives training::

    from repro.serve import ServeConfig, build

    handle = build(ServeConfig(checkpoint_dir="ckpts", port=0))
    with handle:
        handle.serve_forever()

The server is the multi-process asyncio cluster of
:mod:`repro.serve.cluster`: forked inference workers reading weights
from shared memory, admission control, and hot reload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: serving modes :func:`build` understands
SERVE_MODES = ("cluster",)


@dataclass
class ServeConfig:
    """Everything needed to stand up a ranking server, in one place.

    Field groups, top to bottom: where the models live, where to listen,
    the cluster's shape, request admission / SLO policy, hot-reload
    policy, streaming ingest, and result persistence.  ``repro.cli
    serve`` derives one ``--flag`` per field, so the CLI surface can
    never drift from this dataclass.
    """

    # model source
    checkpoint_dir: str = ""
    model: Optional[str] = None          # override unrecorded model names
    market: Optional[str] = None         # override unrecorded markets
    seed: Optional[int] = None
    memory_budget_mb: Optional[float] = None

    # listener
    host: str = "127.0.0.1"
    port: int = 8151                     # 0 = ephemeral (tests/benchmarks)

    # topology
    mode: str = "cluster"                # the only topology
    cluster_workers: int = 2             # forked inference workers
    crash_retries: int = 1               # per-request respawn+retry budget

    # admission / deadlines / SLO
    default_timeout: float = 10.0
    max_queue: int = 256                 # dispatch queue bound; 429 past it
    retry_after_s: float = 0.25          # hint sent with 429/503
    slo_p99_ms: Optional[float] = None   # p99 latency budget (telemetry)

    # hot reload: the checkpoint-dir poll interval
    watch_interval_s: float = 2.0

    # streaming ingest (POST /v1/ingest)
    tick_budget_ms: float = 250.0        # ingest tick budget; overrun =>
                                         # fall back to the last ranking
    stream_alpha: float = 0.5            # graph-smoothing re-rank weight

    # persistence
    store: Optional[str] = None          # sqlite path for SLO/telemetry

    def __post_init__(self) -> None:
        if self.mode not in SERVE_MODES:
            raise ValueError(f"mode must be one of {SERVE_MODES} (the "
                             f"threaded topology was removed), got "
                             f"{self.mode!r}")
        if not self.checkpoint_dir:
            raise ValueError("checkpoint_dir is required (a directory of "
                             "repro.ckpt archives)")
        if self.cluster_workers < 1:
            raise ValueError(f"cluster_workers must be >= 1, got "
                             f"{self.cluster_workers}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got "
                             f"{self.max_queue}")
        if self.crash_retries < 0:
            raise ValueError(f"crash_retries must be >= 0, got "
                             f"{self.crash_retries}")
        if self.watch_interval_s <= 0:
            raise ValueError(f"watch_interval_s must be > 0, got "
                             f"{self.watch_interval_s}")
        if self.tick_budget_ms <= 0:
            raise ValueError(f"tick_budget_ms must be > 0, got "
                             f"{self.tick_budget_ms}")
        if not 0.0 <= self.stream_alpha <= 1.0:
            raise ValueError(f"stream_alpha must be in [0, 1], got "
                             f"{self.stream_alpha}")

    # ------------------------------------------------------------------
    @property
    def memory_budget_bytes(self) -> Optional[int]:
        if self.memory_budget_mb is None:
            return None
        return int(self.memory_budget_mb * 1024 * 1024)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServeConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - names)
        if unknown:
            raise ValueError(f"unknown ServeConfig fields: {unknown}")
        return cls(**payload)


class ServeHandle:
    """What :func:`build` returns: the running stack plus lifecycle.

    - ``handle.cluster`` — the :class:`~repro.serve.cluster.ServingCluster`;
    - ``handle.service`` — its parent-side
      :class:`~repro.serve.service.RankingService` (registry, ``models``
      and ``ingest``; ranking reads run in the forked workers);
    - ``handle.telemetry`` — the shared :class:`ServingTelemetry`.

    Closing the handle stops the workers and, when the config names a
    ``store``, records the final telemetry report and SLO row.
    """

    def __init__(self, config: ServeConfig, service, telemetry, cluster):
        self.config = config
        self.service = service
        self.telemetry = telemetry
        self.cluster = cluster
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolves port 0 to the real one."""
        if self.cluster.address is not None:
            return self.cluster.address
        return (self.config.host, self.config.port)

    def start(self) -> "ServeHandle":
        """Begin serving without blocking; :attr:`address` is then live.

        Forks the workers and brings the asyncio front-end up.
        Idempotent.  Tests and benchmarks use this; production entry
        points call :meth:`serve_forever`.
        """
        self.cluster.start()
        return self

    def serve_forever(self) -> None:
        """Block serving requests until interrupted; then clean up."""
        try:
            self.cluster.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        """Stop serving, drain workers, persist final telemetry."""
        if self._closed:
            return
        self._closed = True
        try:
            self.cluster.close()
            self.service.close()
        finally:
            # A second Ctrl-C can interrupt the teardown above; the
            # telemetry report and SLO row must still land in the store.
            self._persist()

    def _persist(self) -> None:
        if not self.config.store:
            return
        from ..store import ExperimentStore

        report = self.telemetry.report(
            config={"serve_config": self.config.to_dict()})
        source = f"serve-{self.config.mode}"
        with ExperimentStore(self.config.store) as store:
            store.record_report(report)
            # One aggregate row (op NULL) plus one row per endpoint —
            # the per-op rows are what `repro.cli db report` breaks out.
            store.record_slo(self.telemetry.snapshot(), source=source,
                             report_id=report.run_id)
            for op, snap in self.telemetry.op_snapshots().items():
                store.record_slo(snap, source=source, op=op,
                                 report_id=report.run_id)

    def __enter__(self) -> "ServeHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build(config: ServeConfig) -> ServeHandle:
    """Construct the full serving stack from one :class:`ServeConfig`.

    The documented construction path: registry, parent-side service,
    telemetry and the cluster all come from here, already wired
    together.  The returned :class:`ServeHandle` owns their lifecycle.
    """
    from .cluster import ServingCluster
    from .registry import ModelRegistry
    from .service import RankingService
    from .telemetry import ServingTelemetry

    telemetry = ServingTelemetry(slo_p99_ms=config.slo_p99_ms)
    registry = ModelRegistry(
        config.checkpoint_dir,
        memory_budget_bytes=config.memory_budget_bytes,
        model=config.model, market=config.market, seed=config.seed)
    service = RankingService(
        registry, telemetry=telemetry,
        tick_budget_ms=config.tick_budget_ms,
        stream_alpha=config.stream_alpha)
    cluster = ServingCluster(config, service=service, telemetry=telemetry)
    return ServeHandle(config, service, telemetry, cluster)
