"""Snapshot exporter.

``snapshot_payload`` renders the obs state (metrics + finished spans)
as one JSON-able dict; ``write_snapshot`` persists it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span

SCHEMA_VERSION = 1


def span_rows(spans: List[Span]) -> List[Dict[str, object]]:
    """Finished spans as flat dicts (creation order)."""
    rows: List[Dict[str, object]] = []
    for span in sorted(spans, key=lambda s: s.span_id):
        rows.append(
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "duration_s": span.duration,
                "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
            }
        )
    return rows


def snapshot_payload(
    registry: MetricsRegistry,
    spans: Optional[List[Span]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "metrics": registry.snapshot(),
    }
    if spans:
        payload["spans"] = span_rows(spans)
    if meta:
        payload["meta"] = dict(meta)
    return payload


def to_json(payload: Dict[str, object]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_snapshot(
    path: str,
    registry: MetricsRegistry,
    spans: Optional[List[Span]] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Write the combined snapshot to ``path``; returns the payload."""
    payload = snapshot_payload(registry, spans=spans, meta=meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(payload))
    return payload
