"""Benchmark runner: Table-I builds, TCP tree serving and churn updates.

Run from the root of a checkout::

    python3 bench/run.py --seed 0                      # all four workloads
    python3 bench/run.py --workload serve-fetch --seed 3 --seconds 10
    python3 bench/run.py --seed 0 --trace out.jsonl    # per-layer metrics
    python3 bench/run.py --smoke                       # small sizes, < 60 s

``--trace 0`` (the default) measures the end-to-end metrics from
outside the program; ``--trace 1`` or ``--trace FILE`` runs the traced
in-process replay instead and reports the per-layer metrics, writing
the spans as JSON lines (``--trace 1`` picks ``.bench_out/trace-*.jsonl``;
render either with ``python -m repro trace-report FILE``).

Every line names a metric, its value and its unit; the untraced run
adds the wall-clock latency and throughput, which are not metrics of
``BENCHMARK.json`` (see ``bench/README.md``, "Why instructions"). A
``meta`` line records the host and the machine-speed probe; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the ``BENCHMARK.json`` metrics. The exit code
is 0 only when every output check passed and no child process outlived
the run; it is 2, before anything runs, when ``src/repro`` is missing or
the CPU's instruction counter cannot be opened (``pmu.py``). See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

from pmu import Counter, CounterError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Workloads in report order (names match ``BENCHMARK.json``).
WORKLOAD_NAMES = ("table1-5m", "serve-fetch", "serve-points", "churn-update")
#: Every end-to-end metric with its unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "op_p50_minstr": "Minstr",
    "op_mean_minstr": "Minstr",
    "peak_rss_mb": "MB",
    "radius_ratio": "ratio",
}
#: Figures the untraced run prints after them but that are not in
#: ``BENCHMARK.json``: wall-clock numbers move with the host's load, and
#: the slowest of a few dozen ops depends on which ops the seed drew.
ALSO_PRINTED = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
                "op_tail_minstr": "Minstr"}
#: Set-ups per measured run; ``setup_s`` is their median.
SETUPS = 9
#: Interleaved rounds per measured run; each runs a third of every op list.
ROUNDS = 3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (exact for ``inf`` entries, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail_level(samples: int) -> int:
    """The highest of p99 and p90 with at least ten samples beyond it.

    p99 for 1000 ops or more, p90 for 100 or more, else the slowest op.
    """
    for q in (99, 90):
        if samples - math.ceil(q / 100.0 * samples) >= 10:
            return q
    return 100


class SpeedProbe:
    """A fixed 2M-element ``np.sort``: how fast the machine is right now."""

    def __init__(self):
        """Draw the array once."""
        import numpy as np

        self._np = np
        self._values = np.random.default_rng(0).random(2_000_000)

    def __call__(self) -> float:
        """Median of three sorts, in ms."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            self._np.sort(self._values)
            times.append((time.perf_counter() - started) * 1e3)
        return sorted(times)[1]


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU.

    The client and the server of a serve workload then hand each request
    back and forth on one CPU. Spread over two, each hand-off wakes the
    other CPU, and how long that takes moved whole runs by 10-15 %.
    The last CPU of the affinity set is taken: CPU 0 serves more
    interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_record(affinity: list[int], pinned: int) -> dict:
    """Where the run happened (metadata, not metrics)."""
    import numpy as np

    from repro.core.backends import resolve_backend

    return {
        "affinity": affinity,
        "pinned_cpu": pinned,
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": resolve_backend(None),
    }


def run_measured(workloads, probe) -> tuple[dict, dict, dict]:
    """Set up every workload ``SETUPS`` times, then run interleaved rounds.

    Returns per workload the end-to-end metrics, ``(attempted, failed)``
    and the metadata to print.
    """
    from workloads import median

    setups = {}
    for wl in workloads:
        times = []
        for i in range(SETUPS):
            if i:
                wl.close()
            started = time.perf_counter()
            wl.setup()
            times.append(time.perf_counter() - started)
        setups[wl.name] = times

    slices = {wl.name: wl.rounds(ROUNDS) for wl in workloads}
    outcomes = {wl.name: [] for wl in workloads}
    probes = [probe()]
    for r in range(ROUNDS):
        for wl in workloads:
            outcomes[wl.name].extend(wl.run_round(slices[wl.name][r]))
        probes.append(probe())

    metrics, counts, meta = {}, {}, {"sort_probe_ms": probes}
    for wl in workloads:
        report = wl.finish(outcomes[wl.name])
        wl.close()
        outs = outcomes[wl.name]
        level = tail_level(len(outs))
        instr = [o.instructions / 1e6 for o in outs]
        latencies = [o.seconds * 1e3 for o in outs]
        completed = sum(o.ok for o in outs)
        metrics[wl.name] = {
            "setup_s": median(setups[wl.name]),
            "op_p50_minstr": percentile(instr, 50),
            "op_mean_minstr": sum(instr) / len(instr),
            "peak_rss_mb": report.peak_rss_mb,
            "radius_ratio": report.radius_ratio,
        }
        attempted = len(outs) + report.attempted
        failed = len(outs) - completed + report.failed
        counts[wl.name] = (attempted, failed)
        meta[wl.name] = {
            "ops": len(outs),
            "tail_level": level,
            "op_p50_ms": percentile(latencies, 50),
            "op_tail_ms": percentile(latencies, level),
            "ops_per_s": completed / sum(o.busy for o in outs),
            "op_tail_minstr": percentile(instr, level),
            "setups_s": setups[wl.name],
            "failed_share": failed / attempted,
            **report.info,
        }
    return metrics, counts, meta


def run_traced(workloads, probe, trace_path: Path) -> tuple[dict, dict, dict]:
    """Per workload: one TCP round for the TCP-side layer numbers, then
    the in-process replay of the same ops, untraced and traced."""
    from repro import obs
    from tracing import PER_LAYER, replay

    obs.reset()
    metrics, counts, meta = {}, {}, {"sort_probe_ms": [probe()]}
    for wl in workloads:
        ops = wl.rounds(ROUNDS)[0]
        attempted = failed = 0
        tcp = {}
        if wl.tcp:
            wl.setup()
            outs = wl.run_round(ops)
            report = wl.finish(outs)
            wl.close()
            tcp = report.tcp
            attempted += len(outs) + report.attempted
            failed += sum(not o.ok for o in outs) + report.failed
        layers, replayed, replay_failed = replay(wl, ops)
        attempted += replayed
        failed += replay_failed
        merged = {name: 0.0 for name in PER_LAYER}
        merged.update(layers)
        merged.update(tcp)
        metrics[wl.name] = merged
        counts[wl.name] = (attempted, failed)
        meta[wl.name] = {"ops": len(ops), "failed_share": failed / attempted}
        meta["sort_probe_ms"].append(probe())
    obs.write_trace_jsonl(obs.current_records(), trace_path,
                          metrics=obs.snapshot())
    meta["trace_file"] = str(trace_path)
    obs.reset()
    return metrics, counts, meta


def _finite(value):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run length the op counts are scaled to "
                        "(default 10)")
    parser.add_argument("--trace", default="0", metavar="0|1|FILE",
                        help="1 or FILE: traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="n <= 5000 and about 20 ops per workload")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: {SRC} holds no repro package; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    try:
        Counter().close()
    except CounterError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wlmod

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    sizes = wlmod.SMOKE if args.smoke else wlmod.FULL
    affinity = sorted(os.sched_getaffinity(0))
    host = host_record(affinity, pin_to_one_cpu())
    reaper = wlmod.Reaper()
    probe = SpeedProbe()
    try:
        workloads = [
            wlmod.WORKLOADS[name](args.seed, sizes, args.seconds, reaper)
            for name in names
        ]
        if args.trace == "0":
            units = END_TO_END
            metrics, counts, meta = run_measured(workloads, probe)
        else:
            from tracing import PER_LAYER

            units = PER_LAYER
            path = Path(args.trace)
            if args.trace == "1":
                label = args.workload or "all"
                path = ROOT / ".bench_out" / f"trace-{label}-seed{args.seed}.jsonl"
            metrics, counts, meta = run_traced(workloads, probe, path)
    finally:
        reaper.close_all()
    survivors = reaper.survivors()
    if survivors:
        print(f"bench: children outlived the run: {survivors}", file=sys.stderr)

    for name in names:
        rows = [(m, metrics[name][m], unit) for m, unit in units.items()]
        rows += [(m, meta[name][m], unit) for m, unit in ALSO_PRINTED.items()
                 if m in meta[name]]
        rows.append(("failed_share", meta[name]["failed_share"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:14} {metric:28} {value:>16.6g} {unit}")
    print("meta " + json.dumps({"host": host, "seed": args.seed,
                                "smoke": args.smoke, **meta}))

    attempted = sum(a for a, _ in counts.values())
    failed = sum(f for _, f in counts.values())
    correct = failed == 0 and not survivors
    if args.workload:
        flat = {m: (v, units[m]) for m, v in metrics[args.workload].items()}
    else:
        flat = {
            f"{name}/{m}": (v, units[m])
            for name in names
            for m, v in metrics[name].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": _finite(value), "unit": unit}
            for key, (value, unit) in flat.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
