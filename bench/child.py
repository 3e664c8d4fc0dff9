"""Build child for the ``table1-5m`` workload.

Runs in its own process so that ``peak_rss_mb`` is the build's own
high-water mark. After importing the library and one untimed 10k
warm-up build it prints ``{"ready": true}``, then answers one JSON line
per command read from stdin:

* ``{"op": "build", "n": N, "seed": S, "oracle": bool}`` generates
  ``unit_disk(N, seed=S)`` outside the timer, times
  ``repro.build(pts, 0, "polar-grid", max_out_degree=6)`` and counts the
  instructions it retires, validates the tree and, with ``oracle``,
  passes it through ``check_tree`` (untimed);
* ``{"op": "exit"}`` ends the process.

``python3 bench/child.py --record A B`` prints the digests of cloud seeds
``A..B-1`` at n = 5,000,000 as JSON, the content of ``digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

TABLE1_DEGREE = 6


def describe(result) -> dict:
    """Validity, radius, rings and parent-array digest of one build."""
    from repro.core.tree import TreeInvariantError

    tree = result.tree
    try:
        tree.validate(TABLE1_DEGREE)
        valid = True
    except TreeInvariantError:
        valid = False
    return {
        "valid": valid,
        "radius": float(tree.radius()),
        "rings": int(result.rings),
        "sha256": hashlib.sha256(tree.parent.tobytes()).hexdigest(),
    }


def build_cloud(n: int, seed: int, oracle: bool, counter=None) -> dict:
    """Generate one cloud, time its build, and describe the tree.

    With a ``pmu.ProcessCounter`` the reply also holds the build's
    instructions.
    """
    import repro
    from repro.analysis.oracle import check_tree
    from repro.workloads.generators import unit_disk

    points = unit_disk(n, seed=seed)
    mark = counter.read() if counter else 0
    started = time.perf_counter()
    result = repro.build(points, 0, "polar-grid", max_out_degree=TABLE1_DEGREE)
    reply = {"seconds": time.perf_counter() - started}
    if counter:
        reply["instructions"] = counter.read() - mark
    reply.update(describe(result))
    if oracle:
        reply["oracle_ok"] = bool(check_tree(result.tree, d_max=TABLE1_DEGREE).ok)
    return reply


def serve() -> None:
    """Warm up, announce readiness, then answer commands until exit."""
    import os

    import repro
    from pmu import ProcessCounter
    from repro.workloads.generators import unit_disk

    repro.build(unit_disk(10_000, seed=0), 0, "polar-grid",
                max_out_degree=TABLE1_DEGREE)
    counter = ProcessCounter(os.getpid())
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "exit":
            return
        reply = build_cloud(
            int(command["n"]), int(command["seed"]), bool(command["oracle"]),
            counter,
        )
        print(json.dumps(reply), flush=True)


def record(first: int, stop: int) -> None:
    """Print the 5M digests of cloud seeds ``first..stop-1``."""
    digests = {}
    for seed in range(first, stop):
        reply = build_cloud(5_000_000, seed, oracle=False)
        digests[str(seed)] = {
            k: reply[k] for k in ("radius", "rings", "sha256")
        }
        print(f"seed {seed}: {digests[str(seed)]}", file=sys.stderr, flush=True)
    print(json.dumps({"n": 5_000_000, "seeds": digests}, indent=1))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        record(int(sys.argv[2]), int(sys.argv[3]))
    else:
        serve()
