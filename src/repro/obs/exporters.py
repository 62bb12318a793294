"""Exporters: Prometheus text and console tables.

Two ways out of the metrics registry:

* :func:`generate_latest` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` + samples), as a scrape endpoint or file
  would serve it; :func:`parse_prometheus` reads it back;
* :func:`console_summary` — a human table over a registry (or a parsed
  metrics file), reusing :func:`repro.analysis.reporting.format_table`.
"""

from __future__ import annotations

import math
import pathlib

from ..errors import ObservabilityError
from .metrics import Histogram, HistogramSeries, MetricsRegistry


def _format_table(headers, rows):
    # Imported lazily: pulling in the analysis package at module load
    # would close an import cycle (analysis -> core -> baselines -> obs).
    from ..analysis.reporting import format_table

    return format_table(headers, rows)


# -- Prometheus text exposition ------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def generate_latest(registry: MetricsRegistry) -> str:
    """Render every metric in the Prometheus text format.

    Each metric renders from the single locked snapshot
    :meth:`~repro.obs.metrics.Metric.labeled_values` takes, so a series
    written concurrently never shows a ``_count`` that disagrees with
    its own buckets.
    """
    lines = []
    for metric in registry:
        lines.append(f"# HELP {metric.name} {metric.help_text}")
        lines.append(f"# TYPE {metric.name} {metric.type_name}")
        if isinstance(metric, Histogram):
            for labels, series in metric.labeled_values():
                running = 0
                for bound, count in zip(metric.buckets, series.bucket_counts):
                    running += count
                    le = {"le": _format_value(bound)}
                    lines.append(
                        f"{metric.name}_bucket{_format_labels({**labels, **le})} "
                        f"{running}"
                    )
                inf = {"le": "+Inf"}
                lines.append(
                    f"{metric.name}_bucket{_format_labels({**labels, **inf})} "
                    f"{series.count}"
                )
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)} "
                    f"{_format_value(series.sum)}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(labels)} {series.count}"
                )
        else:
            for labels, value in metric.labeled_values():
                lines.append(
                    f"{metric.name}{_format_labels(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry, path) -> None:
    """Write the registry's exposition text to *path*."""
    pathlib.Path(path).write_text(generate_latest(registry))


def _parse_labels(body: str) -> dict:
    labels = {}
    for part in body.split(","):
        if not part:
            continue
        name, _, raw = part.partition("=")
        value = raw.strip().strip('"')
        labels[name.strip()] = (
            value.replace(r"\"", '"').replace(r"\n", "\n").replace(r"\\", "\\")
        )
    return labels


def parse_prometheus(text: str) -> "list[dict]":
    """Parse exposition text into ``{name, labels, value, type, help}``.

    Understands the subset :func:`generate_latest` emits — enough for
    ``repro metrics`` to re-render a captured file.
    """
    samples = []
    types: "dict[str, str]" = {}
    helps: "dict[str, str]" = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, type_name = rest.partition(" ")
            types[name] = type_name
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            labels_body, _, value_part = rest.partition("}")
            labels = _parse_labels(labels_body)
        else:
            name, _, value_part = line.partition(" ")
            labels = {}
        value_text = value_part.strip()
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ObservabilityError(
                f"line {lineno}: cannot parse sample value {value_text!r}"
            ) from None
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        samples.append(
            {
                "name": name,
                "labels": labels,
                "value": value,
                "type": types.get(base, "untyped"),
                "help": helps.get(base, ""),
            }
        )
    return samples


# -- console summary -----------------------------------------------------------


def console_summary(registry: MetricsRegistry) -> str:
    """A human-readable table over every series in *registry*."""
    rows = []
    for metric in registry:
        for labels, value in metric.labeled_values():
            label_text = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
            if isinstance(value, HistogramSeries):
                mean = value.sum / value.count if value.count else 0.0
                shown = f"n={value.count} sum={value.sum:.3f} mean={mean:.3f}"
            else:
                shown = _format_value(value)
            rows.append([metric.name, metric.type_name, label_text, shown])
    if not rows:
        return "(no metrics recorded)"
    return _format_table(["metric", "type", "labels", "value"], rows)


def render_metrics_file(path) -> str:
    """Re-render a captured Prometheus text file as a console table."""
    text = pathlib.Path(path).read_text()
    samples = parse_prometheus(text)
    if not samples:
        return "(no metrics recorded)"
    rows = [
        [
            sample["name"],
            sample["type"],
            ", ".join(f"{k}={v}" for k, v in sorted(sample["labels"].items())),
            _format_value(sample["value"]),
        ]
        for sample in samples
    ]
    return _format_table(["metric", "type", "labels", "value"], rows)
