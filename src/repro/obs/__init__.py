"""Observability for the BEES pipeline: spans, metrics, exporters.

The paper's whole argument is quantitative — bandwidth, energy,
precision, delay per AFE → ARD → AIU stage — so this package gives
every layer of the reproduction a shared tracing and metrics substrate:

* :mod:`repro.obs.tracer` — nested, timed spans with attributes;
* :mod:`repro.obs.metrics` — labelled ``Counter`` / ``Gauge`` /
  ``Histogram`` behind a :class:`MetricsRegistry`;
* :mod:`repro.obs.exporters` — JSONL span logs, Prometheus text
  exposition, console tables;
* :mod:`repro.obs.runtime` — the process-wide context wired into the
  client pipeline, server index, uplink, DTN, and every baseline;
* :mod:`repro.obs.journal` — the decision-provenance journal that
  ``repro journal`` explains, diffs, replays and summarises;
* :mod:`repro.obs.slo` — declarative SLO specs checked against bench
  artifacts.

Disabled by default: :func:`get_obs` returns a context whose spans are
a shared no-op and whose hot-path guards are a single attribute check.
"""

from .exporters import (
    console_summary,
    generate_latest,
    parse_prometheus,
    read_jsonl,
    render_metrics_file,
    spans_to_jsonl,
    write_jsonl,
    write_prometheus,
)
from .journal import (
    DIFF_IGNORED_EVENTS,
    SCHEMA_VERSION,
    DecisionJournal,
    DeviceStats,
    JournalDivergence,
    JournalFile,
    JournalRecord,
    JournalStats,
    configure_journal,
    disable_journal,
    explain_image,
    first_divergence,
    format_explain,
    format_stats,
    get_journal,
    journal_stats,
    journal_to,
    read_journal,
    set_journal,
)
from .metrics import (
    DEFAULT_STAGE_BUCKETS,
    MAX_LABEL_SETS,
    CardinalityWarning,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from .runtime import (
    PIPELINE_STAGES,
    Observability,
    configure,
    disable,
    get_obs,
)
from .slo import (
    Slo,
    SloResult,
    SloSpec,
    evaluate_artifact,
    format_results,
    load_spec,
    parse_spec,
)
from .tracer import EMPTY_CONTEXT, NULL_SPAN, Span, TraceContext, Tracer

__all__ = [
    "DIFF_IGNORED_EVENTS",
    "EMPTY_CONTEXT",
    "NULL_SPAN",
    "DEFAULT_STAGE_BUCKETS",
    "MAX_LABEL_SETS",
    "PIPELINE_STAGES",
    "SCHEMA_VERSION",
    "CardinalityWarning",
    "Counter",
    "DecisionJournal",
    "DeviceStats",
    "Gauge",
    "Histogram",
    "JournalDivergence",
    "JournalFile",
    "JournalRecord",
    "JournalStats",
    "MetricsRegistry",
    "Observability",
    "Slo",
    "SloResult",
    "SloSpec",
    "Span",
    "TraceContext",
    "Tracer",
    "bucket_quantile",
    "configure_journal",
    "disable_journal",
    "explain_image",
    "first_divergence",
    "format_explain",
    "format_stats",
    "get_journal",
    "journal_stats",
    "journal_to",
    "read_journal",
    "set_journal",
    "configure",
    "console_summary",
    "disable",
    "evaluate_artifact",
    "format_results",
    "generate_latest",
    "get_obs",
    "load_spec",
    "parse_prometheus",
    "parse_spec",
    "read_jsonl",
    "render_metrics_file",
    "spans_to_jsonl",
    "write_jsonl",
    "write_prometheus",
]
