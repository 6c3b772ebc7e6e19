"""Trace exporters: schema-validated JSON dumps and Chrome trace_event.

Two serialisations of one :class:`~repro.obs.tracer.Tracer`:

* :func:`trace_to_dict` — the structured dump, validated against the
  committed ``trace_schema.json`` by a dependency-free validator
  (:func:`validate_trace`), so traces are a stable, diffable artifact
  rather than ad-hoc prints.

* :func:`to_chrome_trace` — the Chrome ``trace_event`` JSON array
  format: save it with :func:`json.dump` and load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see the span tree
  on a timeline.

Prometheus text exposition lives on the registry itself
(:meth:`repro.obs.metrics.MetricsRegistry.render_prometheus`).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from repro.obs.tracer import Tracer

_SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_schema.json")
_SCHEMA_CACHE: Optional[dict] = None


def trace_schema() -> dict:
    """The committed JSON schema for structured trace dumps (cached)."""
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        with open(_SCHEMA_PATH, "r", encoding="utf-8") as handle:
            _SCHEMA_CACHE = json.load(handle)
    return _SCHEMA_CACHE


# ----------------------------------------------------------------------
# structured JSON dump
# ----------------------------------------------------------------------
def trace_to_dict(tracer: Tracer, validate: bool = True) -> dict:
    """Serialise a tracer's finished spans to the committed schema.

    Spans are ordered by start time; ``parent`` entries are indexes into
    the resulting list (omitted for roots).  With ``validate=True`` the
    payload is checked against :func:`trace_schema` before being
    returned, so a drifting serialiser fails loudly at the source.
    """
    finished = sorted(
        (span for span in tracer.spans if span.end is not None),
        key=lambda span: (span.start, span.end),
    )
    index_of = {id(span): index for index, span in enumerate(finished)}
    spans: List[dict] = []
    for span in finished:
        entry: Dict[str, object] = {
            "name": span.name,
            "category": span.category,
            "start_us": int((span.start - tracer.epoch) * 1e6),
            "duration_us": max(0, int((span.end - span.start) * 1e6)),
        }
        if span.parent is not None:
            parent_index = index_of.get(id(span.parent))
            if parent_index is not None:
                entry["parent"] = parent_index
        if span.args:
            entry["args"] = dict(span.args)
        spans.append(entry)
    payload = {"name": tracer.name, "spans": spans}
    if validate:
        problems = validate_trace(payload)
        if problems:
            raise ValueError(
                "trace dump violates trace_schema.json: " + "; ".join(problems)
            )
    return payload


def validate_trace(payload: object, schema: Optional[dict] = None) -> List[str]:
    """Validate a trace dump; return human-readable problems (empty = valid).

    Implements exactly the subset ``trace_schema.json`` uses — object
    required/properties, array items, type / minimum / minLength,
    ``additionalProperties: false`` — so validation needs no third-party
    dependency.
    """
    problems: List[str] = []
    _validate(payload, schema if schema is not None else trace_schema(), "$", problems)
    return problems


def _validate(value: object, schema: dict, path: str, problems: List[str]) -> None:
    expected = schema.get("type")
    if expected == "object":
        if not isinstance(value, dict):
            problems.append(f"{path}: must be an object")
            return
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                problems.append(f"{path}: missing required key {key!r}")
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in properties:
                    problems.append(f"{path}: unexpected key {key!r}")
        for key, spec in properties.items():
            if key in value:
                _validate(value[key], spec, f"{path}.{key}", problems)
        return
    if expected == "array":
        if not isinstance(value, list):
            problems.append(f"{path}: must be an array")
            return
        items = schema.get("items")
        if items:
            for position, element in enumerate(value):
                _validate(element, items, f"{path}[{position}]", problems)
        return
    if expected == "string":
        if not isinstance(value, str):
            problems.append(f"{path}: must be a string")
            return
    elif expected == "integer":
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"{path}: must be an integer")
            return
    elif expected == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{path}: must be a number")
            return
    if "minimum" in schema and value < schema["minimum"]:
        problems.append(f"{path}: below minimum {schema['minimum']}")
    if "minLength" in schema and len(value) < schema["minLength"]:
        problems.append(f"{path}: shorter than {schema['minLength']}")


# ----------------------------------------------------------------------
# Chrome trace_event format
# ----------------------------------------------------------------------
def to_chrome_trace(tracer: Tracer) -> dict:
    """Serialise a tracer to the Chrome ``trace_event`` JSON format.

    Every finished span becomes a complete ('X') event with microsecond
    timestamps; write the result with ``json.dump`` and open the file in
    ``chrome://tracing`` or Perfetto.  Zero-duration summary events
    (operator samples) stay visible as zero-width slices with their
    counters in ``args``.
    """
    events: List[dict] = []
    for span in tracer.spans:
        if span.end is None:
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": max(0, int((span.start - tracer.epoch) * 1e6)),
                "dur": max(0, int((span.end - span.start) * 1e6)),
                "pid": 1,
                "tid": 1,
                "args": dict(span.args),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
