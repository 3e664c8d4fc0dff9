"""The traced run: in-process replay of a workload's ops, span per layer.

Each op is replayed twice through the layers' public functions, on two
independent states: once with ``repro.obs`` off (the untraced wall time)
and once inside a root span ``op.<workload>`` with ``repro.obs`` on. The
two alternate which goes first, so drift of the machine's speed falls on
both equally. The builder's own ``polar_grid.*`` spans nest under the
benchmark's ``core.build`` span.

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics of ``BENCHMARK.json``: a layer's ``*_ms`` value is the median
over ops of the time its spans took within the op (0 in ops it never
ran in), byte sizes are medians over ops, counts are totals.
"""

from __future__ import annotations

import sys
import time
import traceback

from repro import obs
from workloads import median

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "core.build_ms": "ms",
    "core.cell_layout_ms": "ms",
    "core.representatives_ms": "ms",
    "core.wire_cells_ms": "ms",
    "core.delay_pass_ms": "ms",
    "core.build_self_ms": "ms",
    "core.rings": "count",
    "core.cells": "count",
    "workload.materialize_ms": "ms",
    "cache.key_hash_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.entries": "count",
    "cache.bytes": "bytes",
    "cache.evictions": "count",
    "service.submit_ms": "ms",
    "service.queue_ms": "ms",
    "service.reply_dict_ms": "ms",
    "service.cpu_ms_per_op": "ms",
    "service.op_minstr": "Minstr",
    "client.op_minstr": "Minstr",
    "service.builds": "count",
    "service.coalesced": "count",
    "wire.request_encode_ms": "ms",
    "wire.request_decode_ms": "ms",
    "wire.reply_encode_ms": "ms",
    "wire.reply_decode_ms": "ms",
    "wire.request_bytes": "bytes",
    "wire.reply_bytes": "bytes",
    "wire.overhead_ms": "ms",
    "wire.ping_rtt_ms": "ms",
    "tree.validate_ms": "ms",
    "incremental.adopt_ms": "ms",
    "incremental.events_ms": "ms",
    "incremental.snapshot_ms": "ms",
    "incremental.partial_rebuilds": "count",
    "incremental.full_rebuilds": "count",
    "incremental.drift_events": "count",
    "oracle.update_check_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "%",
}

#: Builder phase spans, reported as ``core.<phase>_ms``.
PHASES = (
    "polar_grid.cell_layout",
    "polar_grid.representatives",
    "polar_grid.wire_cells",
    "polar_grid.delay_pass",
)

#: Span attributes reported per op: span name -> (attribute, metric).
SPAN_ATTRS = {
    "polar_grid.cell_layout": ("rings", "core.rings"),
    "polar_grid.wire_cells": ("cells", "core.cells"),
    "wire.request_encode": ("bytes", "wire.request_bytes"),
    "wire.reply_encode": ("bytes", "wire.reply_bytes"),
}

#: ``repro.obs`` counters behind the incremental engine's count metrics.
ENGINE_COUNTERS = {
    "incremental.partial_rebuilds": "overlay.incremental.partial_rebuild.total",
    "incremental.full_rebuilds": "overlay.incremental.full_rebuild.total",
    "incremental.drift_events": "overlay.incremental.drift.total",
}


def _counter(name: str) -> float:
    return float(obs.snapshot().get(name, {}).get("value", 0.0))


def replay(workload, ops) -> tuple[dict, int, int]:
    """Replay ``ops`` untraced and traced; returns (metrics, attempted, failed).

    Spans stay in the process-wide ``repro.obs`` collector, so several
    workloads replayed in one process share one trace file.
    """
    states = [workload.replay_state(), workload.replay_state()]
    counters_before = {m: _counter(c) for m, c in ENGINE_COUNTERS.items()}
    first_record = len(obs.current_records())
    untraced: list[float] = []
    attempted = failed = 0
    for i, op in enumerate(ops):
        inp = workload.replay_input(op)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            attempted += 1
            try:
                if traced:
                    obs.enable()
                    try:
                        with obs.span(f"op.{workload.name}", index=i):
                            out = workload.replay_op(states[1], inp)
                    finally:
                        obs.disable()
                else:
                    started = time.perf_counter()
                    out = workload.replay_op(states[0], inp)
                    untraced.append(time.perf_counter() - started)
                ok = workload.replay_ok(inp, out)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                ok = False
            failed += not ok
            out = None
    records = obs.current_records()[first_record:]
    metrics = layer_metrics(records, workload.name, untraced)
    for metric, counter in ENGINE_COUNTERS.items():
        metrics[metric] = _counter(counter) - counters_before[metric]
    return metrics, attempted, failed


def layer_metrics(records, name: str, untraced: list[float]) -> dict:
    """Per-layer metrics of one workload from its spans."""
    children: dict = {}
    for record in records:
        children.setdefault(record.parent_id, []).append(record)
    roots = [r for r in children.get(None, []) if r.name == f"op.{name}"]

    per_op = []
    lookups = hits = 0
    wall = direct = 0.0
    for root in roots:
        values: dict = {}
        top = children.get(root.span_id, [])
        wall += root.duration
        direct += sum(r.duration for r in top)
        stack = [(r, False) for r in top]
        while stack:
            record, in_build = stack.pop()
            key = _metric_of(record.name)
            if key is not None:
                values[key] = values.get(key, 0.0) + record.duration * 1e3
            if record.name in PHASES and in_build:
                values["phases_in_build"] = (
                    values.get("phases_in_build", 0.0) + record.duration * 1e3
                )
            if record.name in SPAN_ATTRS:
                attr, metric = SPAN_ATTRS[record.name]
                values[metric] = record.attrs.get(attr, 0)
            if record.name == "cache.lookup":
                lookups += 1
                hits += bool(record.attrs.get("hit"))
            stack.extend(
                (child, in_build or record.name == "core.build")
                for child in children.get(record.span_id, [])
            )
        values["core.build_self_ms"] = values.get("core.build_ms", 0.0) - (
            values.pop("phases_in_build", 0.0)
        )
        per_op.append(values)

    per_op_metrics = [m for m, unit in PER_LAYER.items() if unit == "ms"]
    per_op_metrics += [metric for _, metric in SPAN_ATTRS.values()]
    metrics = {
        m: median(values.get(m, 0.0) for values in per_op)
        for m in per_op_metrics
    }
    metrics["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["trace.unattributed_share"] = (wall - direct) / wall if wall else 0.0
    traced_p50 = median(r.duration for r in roots)
    untraced_p50 = median(untraced)
    metrics["trace.overhead_pct"] = (
        (traced_p50 / untraced_p50 - 1.0) * 100.0 if untraced_p50 else 0.0
    )
    return metrics


def _metric_of(span_name: str) -> str | None:
    """The ``*_ms`` metric a span's duration counts towards, if any."""
    if span_name in PHASES:
        return "core." + span_name.split(".", 1)[1] + "_ms"
    metric = span_name + "_ms"
    return metric if PER_LAYER.get(metric) == "ms" else None
