"""Exporters: Prometheus text and the console table of a captured file.

* :func:`generate_latest` — the six metrics of
  :data:`repro.obs.runtime.METRICS` in the Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` + samples), as a scrape endpoint or
  file would serve it; :func:`parse_prometheus` reads it back;
* :func:`render_metrics_file` — a captured file as a human table,
  reusing :func:`repro.analysis.reporting.format_table`.
"""

from __future__ import annotations

import math
import pathlib

from ..errors import ObservabilityError
from .runtime import DEFAULT_STAGE_BUCKETS, METRICS, Observability, StageSeconds


# -- Prometheus text exposition ------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _format_labels(labels: dict) -> str:
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


def generate_latest(obs: Observability) -> str:
    """Render the six metrics of :data:`~repro.obs.runtime.METRICS` in
    the Prometheus text format.

    Renders under ``obs.lock``, so a series written concurrently never
    shows a ``_count`` that disagrees with its own buckets.  A series
    key with more or fewer values than its metric's label names raises
    :class:`~repro.errors.ObservabilityError` instead of being exported
    with labels dropped or mismatched.
    """
    lines = []
    with obs.lock:
        for spec in METRICS:
            lines.append(f"# HELP {spec.name} {spec.help_text}")
            lines.append(f"# TYPE {spec.name} {spec.type_name}")
            for key, value in obs.series[spec.name].items():
                if len(key) != len(spec.labelnames):
                    raise ObservabilityError(
                        f"{spec.name}: series {key!r} does not match "
                        f"labels {spec.labelnames!r}"
                    )
                labels = dict(zip(spec.labelnames, key))
                if isinstance(value, StageSeconds):
                    lines.extend(_histogram_lines(spec.name, labels, value))
                else:
                    lines.append(
                        f"{spec.name}{_format_labels(labels)} {_format_value(value)}"
                    )
    return "\n".join(lines) + "\n"


def _histogram_lines(name: str, labels: dict, series: StageSeconds) -> "list[str]":
    lines = []
    running = 0
    for bound, count in zip(DEFAULT_STAGE_BUCKETS, series.bucket_counts):
        running += count
        le = {"le": _format_value(bound)}
        lines.append(f"{name}_bucket{_format_labels({**labels, **le})} {running}")
    inf = {"le": "+Inf"}
    lines.append(f"{name}_bucket{_format_labels({**labels, **inf})} {series.count}")
    lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(series.sum)}")
    lines.append(f"{name}_count{_format_labels(labels)} {series.count}")
    return lines


def write_prometheus(obs: Observability, path) -> None:
    """Write the exposition text of *obs* to *path*."""
    pathlib.Path(path).write_text(generate_latest(obs))


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


def render_metrics_file(path) -> str:
    """Re-render a captured Prometheus text file as a console table."""
    # Imported lazily: pulling in the analysis package at module load
    # would close an import cycle (analysis -> core -> baselines -> obs).
    from ..analysis.reporting import format_table

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
    return format_table(["metric", "type", "labels", "value"], rows)
