"""The process-wide observability context.

One :class:`Observability` object bundles a :class:`~repro.obs.tracer.
Tracer`, a :class:`~repro.obs.metrics.MetricsRegistry` with the standard
BEES metric set pre-registered, and optional export paths.  The module
keeps a single global instance — disabled by default, so instrumented
hot paths reduce to one attribute check — which :func:`configure`
replaces and :func:`disable` resets::

    obs = configure(trace_path="/tmp/t.jsonl", metrics_path="/tmp/m.prom")
    ...  # run experiments; instrumented code records through get_obs()
    obs.flush()
    disable()

Standard metrics (all labelled where it matters):

* ``bees_bytes_sent_total{scheme}``, ``bees_energy_joules_total{scheme,
  category}`` — per-scheme batch totals, recorded by the shared
  :meth:`repro.baselines.base.SharingScheme.observe_batch` hook;
* ``bees_eliminations_total{scheme,kind}`` with ``kind`` ∈
  ``cross|in_batch``;
* ``bees_images_total{scheme,outcome}`` (``uploaded|halted`` inputs),
  ``bees_batches_total{scheme}``;
* ``bees_stage_seconds{scheme,stage}`` — simulated seconds per pipeline
  stage (``afe``, ``feature_upload``, ``aiu``, ``image_upload``);
* ``bees_index_size`` / ``bees_index_query_latency_seconds`` gauges and
  ``bees_index_queries_total`` for the server-side feature index;
* ``bees_link_transfers_total`` / ``bees_link_bytes_total`` and a
  ``bees_link_transfer_seconds`` histogram on the uplink, plus the
  degraded-network set — ``bees_link_chunks_total``,
  ``bees_link_retransmits_total``, ``bees_link_chunk_drops_total``,
  ``bees_link_vote_corrections_total`` and
  ``bees_link_residual_corrupt_total`` — recorded when a chunked
  transport is attached (:mod:`repro.network.transfer`);
* ``bees_dtn_transmissions_total{kind}`` / ``bees_dtn_delivered_total``
  for the epidemic DTN;
* ``bees_fleet_rounds_total`` / ``bees_fleet_queue_depth`` and the
  per-shard ``bees_index_shard_entries{shard}`` gauge for the concurrent
  fleet runtime (:mod:`repro.fleet`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .exporters import console_summary, write_jsonl, write_prometheus
from .metrics import DEFAULT_STAGE_BUCKETS, MetricsRegistry
from .tracer import EMPTY_CONTEXT, NULL_SPAN, TraceContext, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import BatchReport

#: Pipeline stages whose simulated durations feed ``bees_stage_seconds``.
PIPELINE_STAGES = ("afe", "feature_upload", "aiu", "image_upload")

#: Buckets for uplink transfer times (simulated seconds — transfers of a
#: few KB at ~Mbps goodputs land well under a second; image uploads can
#: take tens of seconds on a bad channel).
LINK_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)


class Observability:
    """A tracer + registry pair with optional file exporters."""

    def __init__(
        self,
        enabled: bool = True,
        trace_path=None,
        metrics_path=None,
        stage_buckets: "tuple[float, ...]" = DEFAULT_STAGE_BUCKETS,
    ) -> None:
        self.enabled = enabled
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.stage_buckets = tuple(stage_buckets)
        self.tracer = Tracer(enabled=enabled)
        self.registry = MetricsRegistry()
        self._register_standard_metrics()

    # -- standard metric set -------------------------------------------------

    def _register_standard_metrics(self) -> None:
        registry = self.registry
        self.sent_bytes = registry.counter(
            "bees_bytes_sent_total",
            "Bytes pushed through the uplink, per scheme",
            ("scheme",),
        )
        self.energy_joules = registry.counter(
            "bees_energy_joules_total",
            "Joules drained from the battery, per scheme and energy category",
            ("scheme", "category"),
        )
        self.eliminations = registry.counter(
            "bees_eliminations_total",
            "Images eliminated as redundant (kind=cross|in_batch)",
            ("scheme", "kind"),
        )
        self.images = registry.counter(
            "bees_images_total",
            "Images by outcome (outcome=input|uploaded)",
            ("scheme", "outcome"),
        )
        self.batches = registry.counter(
            "bees_batches_total",
            "Batches processed, per scheme",
            ("scheme",),
        )
        self.stage_seconds = registry.histogram(
            "bees_stage_seconds",
            "Simulated seconds spent per pipeline stage per image",
            ("scheme", "stage"),
            buckets=self.stage_buckets,
        )
        self.index_size = registry.gauge(
            "bees_index_size",
            "Feature-index entries held by the server",
        )
        self.index_query_latency = registry.gauge(
            "bees_index_query_latency_seconds",
            "Wall-clock seconds of the most recent index query",
        )
        self.index_queries = registry.counter(
            "bees_index_queries_total",
            "CBRD queries answered by the server index",
        )
        self.link_transfers = registry.counter(
            "bees_link_transfers_total",
            "Transfers carried by the uplink",
        )
        self.link_bytes = registry.counter(
            "bees_link_bytes_total",
            "Payload bytes carried by the uplink",
        )
        self.link_transfer_seconds = registry.histogram(
            "bees_link_transfer_seconds",
            "Simulated seconds per uplink transfer",
            buckets=LINK_BUCKETS,
        )
        self.link_chunks = registry.counter(
            "bees_link_chunks_total",
            "Chunks sent by the chunked uplink transport",
        )
        self.link_retransmits = registry.counter(
            "bees_link_retransmits_total",
            "Chunk retransmissions (ARQ retries and replica re-rounds)",
        )
        self.link_chunk_drops = registry.counter(
            "bees_link_chunk_drops_total",
            "Chunk transmissions dropped by the lossy channel",
        )
        self.link_vote_corrections = registry.counter(
            "bees_link_vote_corrections_total",
            "Byte positions repaired by replica majority voting",
        )
        self.link_residual_corrupt = registry.counter(
            "bees_link_residual_corrupt_total",
            "Chunks still failing their checksum after replica voting",
        )
        self.dtn_transmissions = registry.counter(
            "bees_dtn_transmissions_total",
            "DTN image transmissions (kind=relay|gateway)",
            ("kind",),
        )
        self.dtn_delivered = registry.counter(
            "bees_dtn_delivered_total",
            "Images drained into the DTN gateway",
        )
        self.fleet_rounds = registry.counter(
            "bees_fleet_rounds_total",
            "Fleet upload rounds completed (one per batch interval)",
        )
        self.fleet_queue_depth = registry.gauge(
            "bees_fleet_queue_depth",
            "Device batches admitted to the current fleet round and not "
            "yet finished",
        )
        self.shard_entries = registry.gauge(
            "bees_index_shard_entries",
            "Feature-index entries held per shard",
            ("shard",),
        )

    # -- tracing -------------------------------------------------------------

    def span(
        self,
        name: str,
        parent_span_id: "int | None" = None,
        **attributes: object,
    ):
        """A tracer span, or the shared no-op when disabled.

        ``parent_span_id`` pins the parent explicitly — used when the
        span is opened in a worker thread but belongs under a span the
        coordinating thread owns (the fleet span tree).
        """
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, parent_span_id=parent_span_id, **attributes)

    def capture_context(self) -> TraceContext:
        """The calling thread's trace context (for worker handoff)."""
        if not self.enabled:
            return EMPTY_CONTEXT
        return self.tracer.current_context()

    def attach(self, context: TraceContext):
        """Seat a captured context under this thread's spans.

        The worker-thread half of cross-thread propagation: everything
        opened inside the block parents into the captured trace.
        """
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.attach(context)

    # -- recording helpers ---------------------------------------------------

    def observe_stage(self, scheme: str, stage: str, seconds: float) -> None:
        """Record one image's simulated time in one pipeline stage."""
        self.stage_seconds.observe(seconds, scheme=scheme, stage=stage)

    def observe_batch_report(self, report: "BatchReport") -> None:
        """Fold one finished :class:`BatchReport` into the metric set.

        This is the shared per-batch hook every scheme (BEES and the
        baselines alike) reports through, so scheme-level totals stay
        comparable regardless of how a scheme structures its pipeline.
        """
        scheme = report.scheme
        self.batches.inc(scheme=scheme)
        self.sent_bytes.inc(report.sent_bytes, scheme=scheme)
        for category, joules in report.energy_by_category.items():
            self.energy_joules.inc(joules, scheme=scheme, category=category)
        if report.eliminated_cross_batch:
            self.eliminations.inc(
                len(report.eliminated_cross_batch), scheme=scheme, kind="cross"
            )
        if report.eliminated_in_batch:
            self.eliminations.inc(
                len(report.eliminated_in_batch), scheme=scheme, kind="in_batch"
            )
        self.images.inc(report.n_images, scheme=scheme, outcome="input")
        if report.n_uploaded:
            self.images.inc(report.n_uploaded, scheme=scheme, outcome="uploaded")

    # -- exporting -----------------------------------------------------------

    def flush(self) -> "list[str]":
        """Write the configured export files; returns what was written."""
        written = []
        if self.trace_path is not None:
            write_jsonl(self.tracer, self.trace_path)
            written.append(str(self.trace_path))
        if self.metrics_path is not None:
            write_prometheus(self.registry, self.metrics_path)
            written.append(str(self.metrics_path))
        return written

    def summary(self) -> str:
        """The console table of everything recorded so far."""
        return console_summary(self.registry)

    def exporters(self) -> "list[str]":
        """Names of the active exporters (for ``repro info``)."""
        active = []
        if self.trace_path is not None:
            active.append(f"jsonl({self.trace_path})")
        if self.metrics_path is not None:
            active.append(f"prometheus({self.metrics_path})")
        return active


#: The process-wide instance; disabled by default so instrumentation in
#: hot paths costs a single attribute check.
_OBS = Observability(enabled=False)


def get_obs() -> Observability:
    """The current global observability context."""
    return _OBS


def configure(
    trace_path=None,
    metrics_path=None,
    enabled: "bool | None" = None,
    stage_buckets: "tuple[float, ...]" = DEFAULT_STAGE_BUCKETS,
) -> Observability:
    """Install (and return) a fresh global observability context.

    Passing either path implies ``enabled=True``; ``configure()`` with
    no arguments enables in-memory-only collection.
    """
    global _OBS
    if enabled is None:
        enabled = True
    _OBS = Observability(
        enabled=enabled,
        trace_path=trace_path,
        metrics_path=metrics_path,
        stage_buckets=stage_buckets,
    )
    return _OBS


def disable() -> Observability:
    """Reset the global context to the disabled default."""
    global _OBS
    _OBS = Observability(enabled=False)
    return _OBS
