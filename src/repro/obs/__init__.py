"""Observability for the BEES pipeline: the journal and the metrics.

The paper's whole argument is quantitative — bandwidth, energy,
precision, delay per AFE → ARD → AIU stage — so this package gives
every layer of the reproduction two emission paths: the decision
journal says *why* an image was eliminated or uploaded, and six
metrics folded from batch reports say *how much* a run sent and spent.
Where the wall time went is the end-to-end benchmark's question
(``benchmarks/e2e``), not this package's.

* :mod:`repro.obs.runtime` — the process-wide context: the
  :data:`~repro.obs.runtime.METRICS` table and the one fold that feeds
  it, the per-batch report every scheme (BEES and the baselines)
  returns through :meth:`~repro.baselines.base.SharingScheme.observe_batch`.
  Per-site counts (uplink, server index, DTN, fleet rounds) live on
  the model objects and in the journal, not in the metrics;
* :mod:`repro.obs.exporters` — Prometheus text exposition, and the
  console table of a captured file;
* :mod:`repro.obs.journal` — the decision-provenance journal that
  ``repro journal`` explains and diffs (replay and stats, which parse
  batch payloads, are in :mod:`repro.fleet.replay`).

Whether the reproduction still reproduces the paper is the bench
harness's question: ``repro bench compare`` checks the claims table
(:mod:`repro.bench.claims`) on every artifact it compares.

Disabled by default: :func:`get_obs` returns a context whose per-batch
guard is a single attribute check.
"""

from .exporters import (
    generate_latest,
    parse_prometheus,
    render_metrics_file,
    write_prometheus,
)
from .journal import (
    DIFF_IGNORED_EVENTS,
    SCHEMA_VERSION,
    DecisionJournal,
    JournalDivergence,
    JournalFile,
    JournalRecord,
    disable_journal,
    explain_image,
    first_divergence,
    format_explain,
    get_journal,
    journal_to,
    read_journal,
    set_journal,
)
from .runtime import (
    DEFAULT_STAGE_BUCKETS,
    METRICS,
    PIPELINE_STAGES,
    Observability,
    configure,
    disable,
    get_obs,
)

__all__ = [
    "DIFF_IGNORED_EVENTS",
    "DEFAULT_STAGE_BUCKETS",
    "METRICS",
    "PIPELINE_STAGES",
    "SCHEMA_VERSION",
    "DecisionJournal",
    "JournalDivergence",
    "JournalFile",
    "JournalRecord",
    "Observability",
    "disable_journal",
    "explain_image",
    "first_divergence",
    "format_explain",
    "get_journal",
    "journal_to",
    "read_journal",
    "set_journal",
    "configure",
    "disable",
    "generate_latest",
    "get_obs",
    "parse_prometheus",
    "render_metrics_file",
    "write_prometheus",
]
