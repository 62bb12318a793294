"""The process-wide observability context.

One :class:`Observability` object folds every finished batch report
into the six BEES metrics of :data:`METRICS` and optionally writes them
as Prometheus text.  The module keeps a single global instance —
disabled by default, so the per-batch hook reduces to one attribute
check — which :func:`configure` replaces and :func:`disable` resets::

    obs = configure(metrics_path="m.prom")
    ...  # run experiments; every finished batch report lands here
    obs.flush()
    disable()

The one feed is the shared
:meth:`repro.baselines.base.SharingScheme.observe_batch`, which hands
the finished :class:`~repro.baselines.base.BatchReport` to
:meth:`Observability.observe_batch_report`.  ``bees_stage_seconds``
holds simulated seconds per image per pipeline stage
(:data:`PIPELINE_STAGES`), from the report's ``stage_seconds`` pairs.
Per-site counts (uplink, server index, DTN, fleet rounds) are model
fields and journal events, not metrics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..baselines.base import BatchReport

#: Pipeline stages whose simulated durations feed ``bees_stage_seconds``.
PIPELINE_STAGES = ("afe", "feature_upload", "aiu", "image_upload")

#: Upper bounds of the ``bees_stage_seconds`` buckets (simulated
#: seconds).  ``le`` is inclusive and a final ``+Inf`` bucket is implicit.
DEFAULT_STAGE_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class MetricSpec(NamedTuple):
    """One exported metric: its ``# HELP`` / ``# TYPE`` lines and labels."""

    name: str
    type_name: str
    help_text: str
    labelnames: "tuple[str, ...]"


#: The six metrics, in export order.
METRICS = (
    MetricSpec(
        "bees_bytes_sent_total", "counter",
        "Bytes pushed through the uplink, per scheme", ("scheme",),
    ),
    MetricSpec(
        "bees_energy_joules_total", "counter",
        "Joules drained from the battery, per scheme and energy category",
        ("scheme", "category"),
    ),
    MetricSpec(
        "bees_eliminations_total", "counter",
        "Images eliminated as redundant (kind=cross|in_batch)", ("scheme", "kind"),
    ),
    MetricSpec(
        "bees_images_total", "counter",
        "Images by outcome (outcome=input|uploaded)", ("scheme", "outcome"),
    ),
    MetricSpec(
        "bees_batches_total", "counter", "Batches processed, per scheme", ("scheme",),
    ),
    MetricSpec(
        "bees_stage_seconds", "histogram",
        "Simulated seconds spent per pipeline stage per image", ("scheme", "stage"),
    ),
)


def bucket_quantile(
    buckets: "tuple[float, ...]",
    bucket_counts: "list[int]",
    count: int,
    q: float,
) -> float:
    """Estimate the *q*-quantile of one bucketed distribution.

    Prometheus ``histogram_quantile`` semantics: linear interpolation
    within the bucket that crosses rank ``q * count`` (assuming
    observations spread uniformly inside a bucket), the first bucket
    interpolated from zero, and anything landing in the implicit +Inf
    bucket clamped to the largest finite bound.  Returns ``nan`` for an
    empty distribution.
    """
    if count == 0:
        return math.nan
    rank = q * count
    running = 0
    for index, (bound, bucket_count) in enumerate(zip(buckets, bucket_counts)):
        running += bucket_count
        if bucket_count and running >= rank:
            lower = 0.0 if index == 0 else buckets[index - 1]
            fraction = (rank - (running - bucket_count)) / bucket_count
            return lower + (bound - lower) * max(0.0, min(1.0, fraction))
    # Rank falls in the +Inf bucket: the best defensible answer is
    # the largest finite bound (exactly what Prometheus returns).
    return buckets[-1]


class StageSeconds:
    """One ``bees_stage_seconds`` series over :data:`DEFAULT_STAGE_BUCKETS`."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self) -> None:
        self.bucket_counts = [0] * len(DEFAULT_STAGE_BUCKETS)  # excludes +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        for index, bound in enumerate(DEFAULT_STAGE_BUCKETS):
            if seconds <= bound:  # `le` is inclusive
                self.bucket_counts[index] += 1
                break
        self.sum += seconds
        self.count += 1

    def summary(self) -> dict:
        """``{count, sum, mean, p50, p95, p99}``; an empty series reports
        zeros and ``nan`` quantiles."""
        out = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else 0.0,
        }
        for q in (0.5, 0.95, 0.99):
            out[f"p{round(q * 100):d}"] = bucket_quantile(
                DEFAULT_STAGE_BUCKETS, self.bucket_counts, self.count, q
            )
        return out


class Observability:
    """The six BEES metrics, folded from batch reports."""

    def __init__(self, enabled: bool = True, metrics_path=None) -> None:
        self.enabled = enabled
        self.metrics_path = metrics_path
        #: Per metric name: label-value tuple -> float total (counters)
        #: or :class:`StageSeconds`, in first-seen order.
        self.series: "dict[str, dict]" = {spec.name: {} for spec in METRICS}

    # -- recording -----------------------------------------------------------

    def observe_batch_report(self, report: "BatchReport") -> None:
        """Fold one finished :class:`BatchReport` into the metric set.

        This is the shared per-batch hook every scheme (BEES and the
        baselines alike) reports through, so scheme-level totals stay
        comparable regardless of how a scheme structures its pipeline.
        Joules and stage seconds are floats, so their totals depend on
        the order reports arrive in; the fleet runs its devices in
        device order, so that order is fixed.
        """
        scheme = report.scheme
        self._add("bees_batches_total", (scheme,), 1.0)
        self._add("bees_bytes_sent_total", (scheme,), report.sent_bytes)
        for category, joules in report.energy_by_category.items():
            self._add("bees_energy_joules_total", (scheme, category), joules)
        for kind, eliminated in (
            ("cross", report.eliminated_cross_batch),
            ("in_batch", report.eliminated_in_batch),
        ):
            if eliminated:
                self._add("bees_eliminations_total", (scheme, kind), len(eliminated))
        self._add("bees_images_total", (scheme, "input"), report.n_images)
        if report.n_uploaded:
            self._add("bees_images_total", (scheme, "uploaded"), report.n_uploaded)
        for stage, seconds in report.stage_seconds:
            series = self.series["bees_stage_seconds"].get((scheme, stage))
            if series is None:
                series = self.series["bees_stage_seconds"][(scheme, stage)] = (
                    StageSeconds()
                )
            series.observe(seconds)

    def _add(self, name: str, key: tuple, amount: float) -> None:
        self.series[name][key] = self.series[name].get(key, 0.0) + amount

    # -- exporting -----------------------------------------------------------

    def flush(self) -> "list[str]":
        """Write the configured export files; returns what was written."""
        # Imported here: the exporters render from this module's table.
        from .exporters import write_prometheus

        written = []
        if self.metrics_path is not None:
            write_prometheus(self, self.metrics_path)
            written.append(str(self.metrics_path))
        return written


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
