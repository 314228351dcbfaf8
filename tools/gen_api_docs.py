"""Generate docs/API.md: the public API index with one-line summaries.

Walks every ``repro`` subpackage, collects the names each module exports
via ``__all__`` and the first line of their docstrings, and renders a
markdown reference.  Run from the repository root:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import inspect
import os
import pkgutil
import sys

MODULES = [
    "repro.net",
    "repro.net.packet",
    "repro.net.flows",
    "repro.net.dns",
    "repro.net.trace",
    "repro.net.pcap",
    "repro.predictability.buckets",
    "repro.predictability.analyzer",
    "repro.predictability.aggregation",
    "repro.events.grouping",
    "repro.events.labeling",
    "repro.features.packet_features",
    "repro.features.sensor_features",
    "repro.ml",
    "repro.sensors.motion",
    "repro.sensors.humanness",
    "repro.crypto.keystore",
    "repro.crypto.replay",
    "repro.quic.transport",
    "repro.quic.channel",
    "repro.testbed.devices",
    "repro.testbed.cloud",
    "repro.testbed.household",
    "repro.testbed.routines",
    "repro.testbed.phone",
    "repro.testbed.attacks",
    "repro.datasets.synthetic",
    "repro.datasets.yourthings",
    "repro.datasets.moniotr",
    "repro.datasets.inspector",
    "repro.core.config",
    "repro.core.rules",
    "repro.core.classifier",
    "repro.core.validation",
    "repro.core.client",
    "repro.core.proxy",
    "repro.core.pipeline",
    "repro.core.analysis",
    "repro.core.latency",
    "repro.core.race",
    "repro.core.interactions",
    "repro.core.audit",
    "repro.core.mud",
    "repro.core.identification",
    "repro.faults.plan",
    "repro.faults.link",
    "repro.faults.breaker",
    "repro.faults.injectors",
    "repro.recovery.journal",
    "repro.recovery.snapshot",
    "repro.recovery.manager",
    "repro.recovery.chaos",
    "repro.obs",
    "repro.obs.registry",
    "repro.obs.tracing",
    "repro.obs.timing",
    "repro.obs.exporter",
    "repro.obs.handle",
    "repro.obs.report",
    "repro.obs.mergetree",
    "repro.scenarios",
    "repro.util",
    "repro.fleet.spec",
    "repro.fleet.worker",
    "repro.fleet.runner",
    "repro.fleet.checkpoint",
    "repro.fleet.aggregate",
    "repro.fleet.telemetry",
    "repro.fleet.distrib",
    "repro.viz",
    "repro.cli",
]


#: Config-style dataclasses whose per-field knobs are the API surface:
#: their fields (with defaults) are expanded inline in the reference.
FIELD_DETAIL = {
    ("repro.core.config", "FiatConfig"),
    ("repro.core.client", "RetryPolicy"),
    ("repro.faults.plan", "FaultPlan"),
}


def summary_of(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.strip().split("\n", 1)[0]
    return first


def _format_default(value) -> str:
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    return repr(value)


def field_lines(cls) -> list[str]:
    lines = []
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            default = f" = {_format_default(field.default)}"
        elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            default = f" = {_format_default(field.default_factory())}"
        else:
            default = ""
        lines.append(f"  - `{field.name}{default}`")
    return lines


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; summaries are the",
        "first line of each public item's docstring.",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        lines.append(f"## `{module_name}`")
        lines.append("")
        module_summary = summary_of(module)
        if module_summary:
            lines.append(module_summary)
            lines.append("")
        exported = getattr(module, "__all__", [])
        for name in exported:
            obj = getattr(module, name, None)
            if obj is None:
                continue
            if inspect.isclass(obj):
                lines.append(f"- **`{name}`** (class) — {summary_of(obj) or '...'}")
                if (module_name, name) in FIELD_DETAIL:
                    lines.extend(field_lines(obj))
            elif callable(obj):
                lines.append(f"- **`{name}`** (function) — {summary_of(obj) or '...'}")
            else:
                lines.append(f"- **`{name}`** (constant, `{type(obj).__name__}`)")
        lines.append("")
    os.makedirs("docs", exist_ok=True)
    with open("docs/API.md", "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote docs/API.md ({len(lines)} lines, {len(MODULES)} modules)")


if __name__ == "__main__":
    main()
