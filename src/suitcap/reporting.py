"""Metrics tables, histograms, and report writers (CSV, JSON, self-contained SVG)."""

from __future__ import annotations

import csv
import json

import numpy as np

PERCENTILES = (95.0, 99.0, 99.9, 99.99)
HISTOGRAM_BINS = 40


def percentile_table(values) -> dict:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return {f"{p:g}": float("nan") for p in PERCENTILES}
    return {f"{p:g}": float(np.percentile(values, p)) for p in PERCENTILES}


def log_histogram(values, lo: float = 1e-4, hi: float = 1e2):
    """Log-binned histogram over `HISTOGRAM_BINS` bins; out-of-range values fold
    into the edge bins so the counts always sum to len(values)."""
    values = np.asarray(values, dtype=float)
    edges = np.logspace(np.log10(lo), np.log10(hi), HISTOGRAM_BINS + 1)
    clipped = np.clip(values, edges[0] * (1 + 1e-12), edges[-1] * (1 - 1e-12))
    counts, _ = np.histogram(clipped, bins=edges)
    return edges, counts


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def svg_histogram(path, edges, counts, title: str = "", xlabel: str = "") -> None:
    """Minimal standalone SVG bar chart; no plotting dependencies."""
    width, height, margin = 640, 360, 48
    counts = np.asarray(counts, dtype=float)
    n = len(counts)
    peak = counts.max() if counts.size and counts.max() > 0 else 1.0
    bar_w = (width - 2 * margin) / max(n, 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{width / 2}" y="{height - 8}" text-anchor="middle" font-size="11">{xlabel}</text>',
    ]
    for i, c in enumerate(counts):
        h = (height - 2 * margin) * (c / peak)
        x = margin + i * bar_w
        y = height - margin - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.92:.2f}" height="{h:.2f}" fill="#4878a8"/>'
        )
    lo, hi = edges[0], edges[-1]
    parts.append(f'<text x="{margin}" y="{height - margin + 14}" font-size="10">{lo:g}</text>')
    parts.append(
        f'<text x="{width - margin}" y="{height - margin + 14}" text-anchor="end" font-size="10">{hi:g}</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")


def discard_histogram(clouds) -> dict:
    out: dict[str, int] = {}
    for cloud in clouds:
        for d in cloud.discarded:
            out[d.reason] = out.get(d.reason, 0) + 1
    return out
