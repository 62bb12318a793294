"""The process-wide observability context.

One :class:`Observability` object bundles a
:class:`~repro.obs.metrics.MetricsRegistry` with the standard BEES
metric set pre-registered and an optional Prometheus export path.  The
module keeps a single global instance — disabled by default, so the
per-batch hook reduces to one attribute check — which :func:`configure`
replaces and :func:`disable` resets::

    obs = configure(metrics_path="m.prom")
    ...  # run experiments; every finished batch report lands here
    obs.flush()
    disable()

Standard metrics, all fed by one per-batch hook — the shared
:meth:`repro.baselines.base.SharingScheme.observe_batch`, which hands
the finished :class:`~repro.baselines.base.BatchReport` to
:meth:`Observability.observe_batch_report`:

* ``bees_bytes_sent_total{scheme}``, ``bees_energy_joules_total{scheme,
  category}`` — per-scheme batch totals;
* ``bees_eliminations_total{scheme,kind}`` with ``kind`` ∈
  ``cross|in_batch``;
* ``bees_images_total{scheme,outcome}`` (``input|uploaded``),
  ``bees_batches_total{scheme}``;
* ``bees_stage_seconds{scheme,stage}`` — simulated seconds per image
  per pipeline stage (``afe``, ``feature_upload``, ``aiu``,
  ``image_upload``), from the report's ``stage_seconds`` pairs.

Per-site counts (uplink bytes and retransmits, index size and queries,
DTN transmissions, fleet rounds) are not metrics: the model objects
keep them as fields (``Uplink.sent_bytes``, ``BeesServer.
queries_served``, ``EpidemicSimulation.transmissions``) and the
decision journal records each as an event.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .exporters import console_summary, write_prometheus
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import BatchReport

#: Pipeline stages whose simulated durations feed ``bees_stage_seconds``.
PIPELINE_STAGES = ("afe", "feature_upload", "aiu", "image_upload")


class Observability:
    """The standard metric registry with an optional file exporter."""

    def __init__(self, enabled: bool = True, metrics_path=None) -> None:
        self.enabled = enabled
        self.metrics_path = metrics_path
        self.registry = MetricsRegistry()
        self._held = threading.local()
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
        )

    # -- recording -----------------------------------------------------------

    @contextmanager
    def hold_batch_reports(self, held: "list[BatchReport]"):
        """Collect this thread's batch reports into *held* instead of
        folding them.

        Joules and stage seconds are floats, so their totals depend on
        the order they are added in.  The fleet runner holds each
        device's reports — and with them the stage seconds they carry —
        on its worker thread and folds them at the round barrier in
        device order, so the totals do not depend on which thread
        finishes first.
        """
        self._held.reports = held
        try:
            yield held
        finally:
            self._held.reports = None

    def observe_batch_report(self, report: "BatchReport") -> None:
        """Fold one finished :class:`BatchReport` into the metric set.

        This is the shared per-batch hook every scheme (BEES and the
        baselines alike) reports through, so scheme-level totals stay
        comparable regardless of how a scheme structures its pipeline.
        Inside :meth:`hold_batch_reports` the report is only collected.
        """
        held = getattr(self._held, "reports", None)
        if held is not None:
            held.append(report)
            return
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
        for stage, seconds in report.stage_seconds:
            self.stage_seconds.observe(seconds, scheme=scheme, stage=stage)

    # -- exporting -----------------------------------------------------------

    def flush(self) -> "list[str]":
        """Write the configured export files; returns what was written."""
        written = []
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
        if self.metrics_path is not None:
            active.append(f"prometheus({self.metrics_path})")
        return active


#: The process-wide instance; disabled by default so the per-batch hook
#: costs a single attribute check.
_OBS = Observability(enabled=False)


def get_obs() -> Observability:
    """The current global observability context."""
    return _OBS


def configure(metrics_path=None) -> Observability:
    """Install (and return) a fresh, enabled global observability context.

    With no *metrics_path* the metrics are collected in memory only.
    """
    global _OBS
    _OBS = Observability(metrics_path=metrics_path)
    return _OBS


def disable() -> Observability:
    """Reset the global context to the disabled default."""
    global _OBS
    _OBS = Observability(enabled=False)
    return _OBS
