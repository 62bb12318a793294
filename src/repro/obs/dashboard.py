"""The ``repro top`` live dashboard: terminal frames + HTML snapshots.

Renders one :class:`~repro.obs.live.StreamingAggregator` (plus the
cumulative registry behind it) two ways:

* :func:`render_frame` — a fixed-width terminal screen: throughput and
  energy sparklines per scheme, a windowed stage-latency table, the
  per-device and per-shard series, and (when a spec is supplied) the
  live SLO burn-rate verdicts.  ``repro top`` redraws it at the sample
  cadence; ``repro top --once`` prints a single frame (the CI smoke
  path).
* :func:`render_html` — a dependency-free standalone HTML report with
  inline SVG line charts of every retained series, written by
  ``repro top --html`` and uploaded as a CI artifact next to the folded
  profile.

Both renderers are pure functions of the aggregator snapshot, so tests
drive them with synthetic samples and never sleep.
"""

from __future__ import annotations

import html as html_escape
import math

from .journal import DecisionJournal
from .live import StreamingAggregator
from .runtime import Observability, get_obs
from .slo import SloSpec, evaluate_live

#: Width of the sparkline column in terminal frames.
SPARK_WIDTH = 32


def _charts():
    # Imported lazily: pulling in the analysis package at module load
    # would close an import cycle (analysis -> core -> index -> obs).
    from ..analysis.charts import sparkline
    from ..analysis.reporting import format_table

    return sparkline, format_table


def _tail(values: "list[float]", width: int = SPARK_WIDTH) -> "list[float]":
    return values[-width:] if len(values) > width else values


def _fmt(value: "float | None", precision: int = 3) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.{precision}g}"


def _series_groups(
    snapshot: "dict[str, list[tuple[float, float]]]", name: str
) -> "list[tuple[str, list[float]]]":
    """``(label_text, values)`` per series of one family, sorted."""
    groups = []
    prefix = name + "{"
    for key in sorted(snapshot):
        if key == name:
            groups.append(("", [v for _, v in snapshot[key]]))
        elif key.startswith(prefix) and key.endswith("}"):
            label = key[len(prefix):-1]
            groups.append((label, [v for _, v in snapshot[key]]))
    return groups


def render_frame(
    aggregator: StreamingAggregator,
    obs: "Observability | None" = None,
    spec: "SloSpec | None" = None,
    width: int = 80,
    journal: "DecisionJournal | None" = None,
) -> str:
    """One terminal frame over the aggregator's current snapshot."""
    sparkline, format_table = _charts()
    obs = obs if obs is not None else get_obs()
    snapshot = aggregator.snapshot()
    lines = []
    title = " repro top — BEES fleet telemetry "
    lines.append(title.center(width, "="))

    # -- throughput & energy rates ------------------------------------------
    rate_rows = []
    for family, unit in (
        ("goodput_bytes_per_s", "B/s"),
        ("joules_per_s", "J/s"),
        ("uploads_per_s", "img/s"),
    ):
        for label, values in _series_groups(snapshot, family):
            if not values:
                continue
            rate_rows.append(
                [
                    family,
                    label,
                    f"{_fmt(values[-1])} {unit}",
                    sparkline(_tail(values), lo=0.0),
                ]
            )
    if rate_rows:
        lines.append("")
        lines.append(format_table(["rate", "labels", "now", "trend"], rate_rows))

    # -- windowed stage latency ---------------------------------------------
    stage_rows = []
    p50 = dict(_series_groups(snapshot, "stage_p50"))
    p95 = dict(_series_groups(snapshot, "stage_p95"))
    p99 = dict(_series_groups(snapshot, "stage_p99"))
    for label in sorted(p99):
        stage_rows.append(
            [
                label,
                _fmt(p50.get(label, [math.nan])[-1] if p50.get(label) else None),
                _fmt(p95.get(label, [math.nan])[-1] if p95.get(label) else None),
                _fmt(p99[label][-1] if p99[label] else None),
                sparkline(_tail(p99[label]), lo=0.0) if p99[label] else "",
            ]
        )
    if stage_rows:
        lines.append("")
        lines.append(
            format_table(
                ["stage (windowed)", "p50", "p95", "p99", "p99 trend"], stage_rows
            )
        )

    # -- fleet: queue, devices, shards --------------------------------------
    queue = _series_groups(snapshot, "queue_depth")
    if queue and queue[0][1]:
        values = queue[0][1]
        lines.append("")
        lines.append(
            f"queue depth: {_fmt(values[-1])}  "
            f"{sparkline(_tail(values), lo=0.0)}"
        )
    device_rows = []
    uploads = dict(_series_groups(snapshot, "device_uploads"))
    seconds = dict(_series_groups(snapshot, "device_seconds"))
    for label in sorted(set(uploads) | set(seconds)):
        up = uploads.get(label) or []
        sec = seconds.get(label) or []
        device_rows.append(
            [
                label,
                _fmt(sum(up)),
                _fmt(up[-1] if up else None),
                _fmt(sec[-1] if sec else None),
                sparkline(_tail(up), lo=0.0) if up else "",
            ]
        )
    if device_rows:
        lines.append("")
        lines.append(
            format_table(
                ["device", "uploads", "last tick", "busy s", "trend"], device_rows
            )
        )
    shard_rows = []
    for label, values in _series_groups(snapshot, "shard_entries"):
        if values:
            shard_rows.append(
                [label, _fmt(values[-1]), sparkline(_tail(values), lo=0.0)]
            )
    if shard_rows:
        lines.append("")
        lines.append(format_table(["shard", "entries", "trend"], shard_rows))

    # -- decision journal counters -------------------------------------------
    if journal is not None and journal.enabled:
        counters = journal.snapshot()
        by_event = counters["by_event"]
        by_device = counters["by_device"]
        assert isinstance(by_event, dict) and isinstance(by_device, dict)
        lines.append("")
        lines.append(
            f"journal {counters['run']}: {counters['events']} event(s)"
            + (f" -> {counters['path']}" if counters["path"] else "")
        )
        journal_rows = [
            [event, _fmt(float(count))]
            for event, count in sorted(
                by_event.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        if journal_rows:
            lines.append(format_table(["event", "count"], journal_rows))
        device_counts = [
            f"{device}:{count}" for device, count in sorted(by_device.items())
        ]
        if device_counts:
            lines.append("per-device events: " + "  ".join(device_counts))

    # -- live SLO verdicts ---------------------------------------------------
    if spec is not None:
        verdicts = evaluate_live(spec, aggregator)
        slo_rows = []
        for result in verdicts:
            worst = max(
                (rate["long_burn"] for rate in result.burn_rates), default=0.0
            )
            slo_rows.append(
                [
                    "OK" if result.ok else "BURNING",
                    result.name,
                    _fmt(result.value),
                    f"{worst:.2f}x",
                ]
            )
        if slo_rows:
            lines.append("")
            lines.append(
                format_table(["slo", "name", "latest", "worst burn"], slo_rows)
            )

    if len(lines) == 1:
        lines.append("")
        lines.append("(no samples yet — is an instrumented run active?)")
    lines.append("")
    lines.append("=" * width)
    return "\n".join(lines)


# -- HTML snapshot -------------------------------------------------------------

_SVG_WIDTH = 560
_SVG_HEIGHT = 120
_MARGIN = 8

_HTML_HEAD = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro top — BEES fleet telemetry</title>
<style>
 body { font-family: -apple-system, "Segoe UI", sans-serif; margin: 2rem;
        background: #101418; color: #d8dee4; }
 h1 { font-size: 1.3rem; } h2 { font-size: 1.0rem; margin: 1.2rem 0 0.3rem; }
 .chart { background: #161c22; border: 1px solid #2a333c; border-radius: 6px;
          padding: 6px 10px; margin-bottom: 10px; display: inline-block; }
 .chart .label { font-size: 0.8rem; color: #9fb0bf; }
 .chart .latest { float: right; color: #5fd7a7; }
 svg polyline { fill: none; stroke: #5fb2d7; stroke-width: 1.5; }
 svg line.axis { stroke: #2a333c; stroke-width: 1; }
 table { border-collapse: collapse; font-size: 0.85rem; }
 td, th { border: 1px solid #2a333c; padding: 3px 8px; }
 .fail { color: #e06c75; } .pass { color: #5fd7a7; }
</style>
</head>
<body>
"""


def _svg_line(points: "list[tuple[float, float]]") -> str:
    """One inline SVG line chart of a ``(t, v)`` series."""
    values = [v for _, v in points]
    lo, hi = min(values), max(values)
    if hi <= lo:
        hi = lo + 1.0
    inner_w = _SVG_WIDTH - 2 * _MARGIN
    inner_h = _SVG_HEIGHT - 2 * _MARGIN
    n = len(points)
    coords = []
    for i, (_, value) in enumerate(points):
        x = _MARGIN + (inner_w * i / max(1, n - 1))
        y = _MARGIN + inner_h * (1.0 - (value - lo) / (hi - lo))
        coords.append(f"{x:.1f},{y:.1f}")
    baseline = _SVG_HEIGHT - _MARGIN
    return (
        f'<svg width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">'
        f'<line class="axis" x1="{_MARGIN}" y1="{baseline}" '
        f'x2="{_SVG_WIDTH - _MARGIN}" y2="{baseline}"/>'
        f'<polyline points="{" ".join(coords)}"/>'
        "</svg>"
    )


def render_html(
    aggregator: StreamingAggregator,
    spec: "SloSpec | None" = None,
    title: str = "BEES fleet telemetry",
) -> str:
    """A standalone HTML report of every retained series.

    No external scripts or styles — the file is self-contained so CI
    can upload it as an artifact and it renders anywhere.
    """
    snapshot = aggregator.snapshot()
    parts = [_HTML_HEAD, f"<h1>{html_escape.escape(title)}</h1>"]
    if spec is not None:
        verdicts = evaluate_live(spec, aggregator)
        if verdicts:
            parts.append("<h2>Live SLOs</h2><table>")
            parts.append(
                "<tr><th>status</th><th>slo</th><th>latest</th>"
                "<th>worst long burn</th></tr>"
            )
            for result in verdicts:
                worst = max(
                    (rate["long_burn"] for rate in result.burn_rates), default=0.0
                )
                css = "pass" if result.ok else "fail"
                status = "OK" if result.ok else "BURNING"
                parts.append(
                    f'<tr><td class="{css}">{status}</td>'
                    f"<td>{html_escape.escape(result.name)}</td>"
                    f"<td>{_fmt(result.value)}</td><td>{worst:.2f}x</td></tr>"
                )
            parts.append("</table>")
    if not snapshot:
        parts.append("<p>(no samples recorded)</p>")
    for key in sorted(snapshot):
        points = snapshot[key]
        if not points:
            continue
        latest = points[-1][1]
        parts.append(
            '<div class="chart"><span class="label">'
            f"{html_escape.escape(key)}</span>"
            f'<span class="latest">{_fmt(latest)}</span><br>'
            f"{_svg_line(points)}</div><br>"
        )
    parts.append("</body>\n</html>\n")
    return "\n".join(parts)
