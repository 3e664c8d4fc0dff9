"""The four benchmark workloads.

Each workload has two faces.

* The measured face drives the program from outside. ``table1-5m``
  talks to a build child (``child.py``); the three serve workloads talk
  to a ``python -m repro serve --port 0 --workers 2`` child through
  ``ServiceClient`` over loopback TCP. ``setup`` brings the child up,
  ``run_round`` runs one slice of the op sequence closed-loop, and
  ``finish`` reads the server's counters and runs the after-run output
  checks.
* The replay face (``replay_state`` / ``replay_input`` / ``replay_op``)
  runs the same op in-process through the layers' public functions,
  each call inside a ``repro.obs`` span named after its layer. The
  traced run (``tracing.py``) uses it.

Inputs come only from the seed, and op counts only from the seed and
the run length, so two commits do the same work.
"""

from __future__ import annotations

import json
import os
import queue
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro import obs
from repro.analysis.oracle import check_tree
from repro.core.tree import MulticastTree
from repro.overlay.incremental import IncrementalGridTree
from repro.service import BuildCache, ServiceClient, ServiceClientError
from repro.service.cache import canonical_key
from repro.service.core import BuildResponse, UpdateResponse, request_from_payload
from repro.workloads.generators import unit_disk

from child import describe
from pmu import Counter, ProcessCounter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Bytecode cache of the benchmark's children (see ``Child``).
PYCACHE = ROOT / ".bench_out" / "pycache"

#: Degree bound of every tree the benchmark asks for (Table I uses 6).
PARAMS = {"max_out_degree": 6}
#: Client socket timeout: a hung server fails an op in seconds, not 300.
CLIENT_TIMEOUT = 30.0
#: A served round that runs longer than this is abandoned (a round
#: normally takes a third of the run).
ROUND_DEADLINE = 120.0
#: Run length the base op counts are sized for: at the seed commit's
#: speed each workload's timed phase takes about this long.
BASE_SECONDS = 10.0
#: Failures a reply can raise on the client side.
OP_ERRORS = (ServiceClientError, OSError, ValueError, KeyError, TypeError)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and the op count of each workload at ``BASE_SECONDS``."""

    table1_n: int
    fetch_n: int
    fetch_keys: int
    points_n: int
    churn_n: int
    ops: dict


FULL = Sizes(
    table1_n=5_000_000,
    fetch_n=20_000,
    fetch_keys=16,
    points_n=1000,
    churn_n=20_000,
    ops={"table1-5m": 3, "serve-fetch": 300, "serve-points": 3000,
         "churn-update": 64},
)
SMOKE = Sizes(
    table1_n=5000,
    fetch_n=5000,
    fetch_keys=4,
    points_n=1000,
    churn_n=5000,
    ops={"table1-5m": 21, "serve-fetch": 21, "serve-points": 21,
         "churn-update": 21},
)


@dataclass(frozen=True)
class Outcome:
    """One timed op: latency, instructions and reply fields.

    ``client_instr`` counts the client thread during the request (for
    ``table1-5m``: the build child during the build); ``server_instr``
    counts every server thread from the previous op's end to this op's
    end, so a round's ops together hold all the server's work. ``busy``
    is the closed loop's wall time the op accounts for, counted the same
    way. A failed op reads ``inf`` in ``seconds`` and ``instructions``.
    """

    seconds: float
    ok: bool
    client_instr: float = 0.0
    server_instr: float = 0.0
    service_seconds: float | None = None
    build_seconds: float | None = None
    busy: float = 0.0
    key: str | None = None

    @property
    def instructions(self) -> float:
        """Client plus server instructions (``inf`` when the op failed)."""
        return self.client_instr + self.server_instr if self.ok else float("inf")


@dataclass
class Report:
    """What ``finish`` found: checks, quality, memory and TCP layer numbers."""

    attempted: int = 0
    failed: int = 0
    radius_ratio: float = 1.0
    peak_rss_mb: float = 0.0
    tcp: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# child processes


class Child:
    """A child process whose stdout lines are pumped into a queue."""

    def __init__(self, argv: list[str]):
        """Start ``argv`` from the checkout root with ``src`` importable.

        The child compiles into and reads from a bytecode cache of the
        benchmark's own, whatever the checkout or the environment holds.
        Its start-up, part of ``setup_s``, is then a warm start in every
        checkout once the run's first set-up has filled the cache.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   PYTHONPYCACHEPREFIX=str(PYCACHE))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def readline(self, timeout: float) -> str:
        """The child's next stdout line; raises if it is silent or gone."""
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise RuntimeError(
                f"{self.proc.args[1:]} printed nothing for {timeout:.0f} s"
            ) from None
        if line is None:
            raise RuntimeError(
                f"{self.proc.args[1:]} exited with code {self.proc.wait()}"
            )
        return line

    def send(self, command: dict) -> None:
        """Write one JSON command line to the child's stdin."""
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark (``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        return int(kib.group(1)) / 1024.0

    def cpu_seconds(self) -> float:
        """User plus system CPU the child has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def close(self, grace: float = 0.0) -> None:
        """Wait up to ``grace`` seconds for exit, then kill; always reap."""
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdin.close()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


class Reaper:
    """Owns every child the benchmark starts, so none can outlive it."""

    def __init__(self):
        """No children yet."""
        self.children: list[Child] = []

    def spawn(self, argv: list[str]) -> Child:
        """Start and track one child."""
        child = Child(argv)
        self.children.append(child)
        return child

    def close_all(self) -> None:
        """Kill and reap every child still running."""
        for child in self.children:
            child.close()

    def survivors(self) -> list[int]:
        """Pids of children still running (must be empty at exit)."""
        return [c.proc.pid for c in self.children if c.proc.poll() is None]


class Server:
    """A ``python -m repro serve`` child on an ephemeral loopback port."""

    def __init__(self, reaper: Reaper):
        """Start the server and wait until it listens."""
        self.child = reaper.spawn(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", "2"]
        )
        line = self.child.readline(timeout=60)
        match = re.search(r"listening on (\S+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.port = int(match.group(2))

    def client(self) -> ServiceClient:
        """A new connection to this server."""
        return ServiceClient(port=self.port, timeout=CLIENT_TIMEOUT)

    def stop(self) -> None:
        """Send ``shutdown``, then reap the child (killing it if need be).

        Callers close their own connections first: the server exits only
        once every connection is closed.
        """
        try:
            with self.client() as client:
                client.shutdown()
        except (ServiceClientError, OSError) as exc:
            print(f"bench: shutdown failed, killing: {exc}", file=sys.stderr)
        self.child.close(grace=10)


# ----------------------------------------------------------------------
# shared in-process path of one build request


def serve_build_inprocess(cache: BuildCache, line: bytes, include_tree: bool):
    """What the server and client do for one ``build`` line, span by span."""
    with obs.span("wire.request_decode"):
        request = request_from_payload(json.loads(line))
    with obs.span("workload.materialize"):
        points = request.resolve_points()
    with obs.span("cache.key_hash"):
        key = canonical_key(
            points, request.source, request.builder, request.params
        )
    with obs.span("cache.lookup") as span:
        result = cache.get(key)
        span.set(hit=result is not None)
    cached = result is not None
    if not cached:
        with obs.span("core.build"):
            result = repro.build(
                points, request.source, request.builder, **request.params
            )
        with obs.span("cache.put"):
            cache.put(key, result)
    with obs.span("service.reply_dict"):
        reply = BuildResponse(key=key, result=result, cached=cached).to_dict(
            include_tree=include_tree
        )
    return wire_reply(reply)


def encode_request(payload: dict) -> bytes:
    """Client-side request encoding, as ``ServiceClient`` does it."""
    with obs.span("wire.request_encode") as span:
        if "points" in payload:
            points = np.asarray(payload["points"], dtype=np.float64)
            payload = {**payload, "points": points.tolist()}
        line = json.dumps(payload).encode() + b"\n"
        span.set(bytes=len(line))
    return line


def wire_reply(reply: dict) -> dict:
    """Server-side reply encoding, then client-side decoding."""
    with obs.span("wire.reply_encode") as span:
        line = (json.dumps({"ok": True, **reply}) + "\n").encode()
        span.set(bytes=len(line))
    with obs.span("wire.reply_decode"):
        return json.loads(line)


def tree_from_reply(reply: dict) -> MulticastTree:
    """Rebuild and validate a tree from an ``include_tree`` reply."""
    return MulticastTree(
        np.asarray(reply["points"], dtype=np.float64),
        np.asarray(reply["parent"], dtype=np.int64),
        reply["root"],
    ).validate()


def oracle_ok(tree: MulticastTree) -> bool:
    """The independent oracle's verdict on a delivered tree."""
    return check_tree(tree, d_max=PARAMS["max_out_degree"]).ok


def fresh_radius(points) -> float:
    """Radius of a fresh in-process polar-grid build over ``points``."""
    return repro.build(points, 0, "polar-grid", **PARAMS).tree.radius()


def split_rounds(ops: list, rounds: int) -> list[list]:
    """Cut the op sequence into ``rounds`` contiguous, near-equal slices."""
    bounds = np.linspace(0, len(ops), rounds + 1).round().astype(int)
    return [ops[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


# ----------------------------------------------------------------------
# workloads


class Workload:
    """Common shape: seeded ops, a measured face and a replay face."""

    name = ""
    tcp = True

    def __init__(self, seed: int, sizes: Sizes, seconds: float, reaper: Reaper):
        """Generate the op sequence; nothing starts yet."""
        self.seed = int(seed)
        self.sizes = sizes
        self.reaper = reaper
        count = max(3, round(sizes.ops[self.name] * seconds / BASE_SECONDS))
        self.ops = self.make_ops(count)

    def make_ops(self, count: int) -> list:
        """The seeded op sequence of ``count`` ops."""
        raise NotImplementedError

    def rounds(self, rounds: int) -> list[list]:
        """The op sequence cut into ``rounds`` slices."""
        return split_rounds(self.ops, rounds)

    def replay_input(self, op):
        """Untimed per-op input for the replay (the op itself by default)."""
        return op

    def replay_ok(self, op, reply) -> bool:
        """Whether a replayed op's reply is right (as for a TCP reply)."""
        return self.reply_ok(op, reply)


class TableOne(Workload):
    """``repro.build`` on fresh 5M-point unit-disk clouds in a child."""

    name = "table1-5m"
    tcp = False

    def __init__(self, seed, sizes, *args):
        """Load the recorded digests of the 5M clouds."""
        recorded = json.loads((BENCH / "digests.json").read_text())
        self.digests = recorded["seeds"] if recorded["n"] == sizes.table1_n else {}
        super().__init__(seed, sizes, *args)
        self.child: Child | None = None
        self.checked_oracle = False
        self.builds: dict = {}

    def make_ops(self, count):
        seeds = [self.seed + i for i in range(count)]
        if self.digests:
            # Wrap around the recorded seeds (0..40), so that every
            # full-size tree is compared with its digest.
            seeds = [s % len(self.digests) for s in seeds]
        return seeds

    def setup(self):
        self.child = self.reaper.spawn(
            [sys.executable, "-u", str(BENCH / "child.py")]
        )
        json.loads(self.child.readline(timeout=120))

    def close(self):
        if self.child is not None:
            if self.child.proc.poll() is None:
                self.child.send({"op": "exit"})
            self.child.close(grace=10)
            self.child = None

    def _digest_ok(self, cloud_seed: int, reply: dict) -> bool:
        if not self.digests:
            return True
        expected = self.digests.get(str(cloud_seed))
        return expected is not None and all(
            reply[k] == expected[k] for k in ("radius", "rings", "sha256")
        )

    def run_round(self, ops):
        outcomes = []
        for cloud_seed in ops:
            oracle = not self.checked_oracle
            self.checked_oracle = True
            self.child.send({"op": "build", "n": self.sizes.table1_n,
                             "seed": cloud_seed, "oracle": oracle})
            reply = json.loads(self.child.readline(timeout=170))
            ok = (
                reply["valid"]
                and reply.get("oracle_ok", True)
                and self._digest_ok(cloud_seed, reply)
            )
            self.builds[str(cloud_seed)] = {
                k: reply[k] for k in ("radius", "rings", "sha256")
            }
            seconds = reply["seconds"]
            outcomes.append(Outcome(seconds if ok else float("inf"), ok,
                                    client_instr=reply["instructions"],
                                    busy=seconds))
        return outcomes

    def finish(self, outcomes):
        return Report(
            peak_rss_mb=self.child.peak_rss_mb(),
            info={
                "builds": self.builds,
                "digests_compared": sum(s in self.digests for s in self.builds),
            },
        )

    # -- replay ------------------------------------------------------

    def replay_state(self):
        return None

    def replay_input(self, op):
        return op, unit_disk(self.sizes.table1_n, seed=op)

    def replay_op(self, state, inp):
        _, points = inp
        with obs.span("core.build"):
            return repro.build(points, 0, "polar-grid", **PARAMS)

    def replay_ok(self, inp, result):
        reply = describe(result)
        return reply["valid"] and self._digest_ok(inp[0], reply)


class ServedWorkload(Workload):
    """A workload that drives a fresh ``repro serve`` child over TCP,
    closed loop over one connection."""

    def __init__(self, *args):
        """No server yet."""
        super().__init__(*args)
        self.server: Server | None = None
        self.client: ServiceClient | None = None
        self.counters: tuple[Counter, ProcessCounter] | None = None

    def setup(self):
        self.server = Server(self.reaper)
        self.client = self.server.client()
        self.prepare()
        self._mark = (self.client.stats(), self.server.child.cpu_seconds())
        self.counters = (Counter(), ProcessCounter(self.server.child.proc.pid))

    def prepare(self) -> None:
        """Workload-specific set-up after the connection is open."""

    def request(self, op) -> dict:
        """Send one op with ``self.client``; return the reply."""
        raise NotImplementedError

    def close(self):
        if self.counters is not None:
            for counter in self.counters:
                counter.close()
            self.counters = None
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    def run_round(self, ops):
        client_counter, server_counter = self.counters
        outcomes = []
        started = previous = time.perf_counter()
        server_mark = server_counter.read()
        for op in ops:
            client_mark = client_counter.read()
            op_started = time.perf_counter()
            try:
                reply = self.request(op)
            except OP_ERRORS:
                reply = None
            op_seconds = time.perf_counter() - op_started
            client_instr = client_counter.read() - client_mark
            server_now = server_counter.read()
            now = time.perf_counter()
            ok = reply is not None and self.reply_ok(op, reply)
            reply = reply or {}
            # A cache hit's build_seconds is the cached build's, not this op's.
            missed = reply.get("cached") is False
            outcomes.append(Outcome(
                op_seconds if ok else float("inf"), ok,
                client_instr=client_instr,
                server_instr=server_now - server_mark,
                service_seconds=reply.get("service_seconds"),
                build_seconds=reply["build_seconds"] if missed else None,
                busy=now - previous,
                key=reply.get("key"),
            ))
            server_mark, previous = server_now, now
            if now - started > ROUND_DEADLINE:
                raise RuntimeError(
                    f"{self.name}: a round ran past {ROUND_DEADLINE:.0f} s"
                )
        return outcomes

    def finish(self, outcomes):
        client = self.client
        before, cpu_before = self._mark
        cpu = self.server.child.cpu_seconds() - cpu_before
        after = client.stats()
        pings = []
        for _ in range(50):
            started = time.perf_counter()
            client.ping()
            pings.append(time.perf_counter() - started)
        done = [o for o in outcomes if o.ok]
        misses = [o for o in done if o.build_seconds is not None]
        ms = 1e3
        tcp = {
            "client.op_minstr": median([o.client_instr / 1e6 for o in done]),
            "service.op_minstr": median([o.server_instr / 1e6 for o in done]),
            "service.submit_ms": median([o.service_seconds * ms for o in done]),
            "service.queue_ms": median(
                [(o.service_seconds - o.build_seconds) * ms for o in misses]
            ),
            "service.cpu_ms_per_op": cpu * ms / len(outcomes),
            "service.builds": after["builds"] - before["builds"],
            "service.coalesced": after["coalesced"] - before["coalesced"],
            "cache.entries": after["cache"]["entries"],
            "cache.bytes": after["cache"]["current_bytes"],
            "cache.evictions": after["cache"]["evictions"],
            "wire.overhead_ms": median(
                [(o.seconds - o.service_seconds) * ms for o in done]
            ),
            "wire.ping_rtt_ms": median([p * ms for p in pings]),
        }
        report = Report(tcp=tcp)
        self.check_after(report)
        report.peak_rss_mb = self.server.child.peak_rss_mb()
        return report

    def check_after(self, report: Report) -> None:
        """After-run output checks; count them into ``report``."""
        raise NotImplementedError


class ServeFetch(ServedWorkload):
    """Cache-hit tree delivery: 16 warm 20k trees fetched whole."""

    name = "serve-fetch"

    def spec(self, k: int) -> dict:
        return {"kind": "unit-disk", "n": self.sizes.fetch_n,
                "seed": 1000 * self.seed + k}

    def cloud(self, k: int):
        return unit_disk(self.sizes.fetch_n, seed=self.spec(k)["seed"])

    def make_ops(self, count):
        rng = np.random.default_rng([self.seed, 2])
        return rng.integers(0, self.sizes.fetch_keys, size=count).tolist()

    def prepare(self):
        self.keys, self.radii = [], []
        for k in range(self.sizes.fetch_keys):
            reply = self.client.build(workload=self.spec(k), params=PARAMS)
            self.keys.append(reply["key"])
            self.radii.append(reply["radius"])

    def request(self, k):
        return self.client.build_tree(workload=self.spec(k), params=PARAMS)[0]

    def reply_ok(self, k, reply):
        return (reply["cached"] is True and reply["key"] == self.keys[k]
                and reply["radius"] == self.radii[k])

    def check_after(self, report):
        ratios = []
        for k in range(self.sizes.fetch_keys):
            report.attempted += 1
            try:
                reply, tree = self.client.build_tree(
                    workload=self.spec(k), params=PARAMS
                )
            except OP_ERRORS:
                report.failed += 1
                continue
            fresh = fresh_radius(self.cloud(k))
            ratios.append(reply["radius"] / fresh)
            if not (self.reply_ok(k, reply) and reply["radius"] == tree.radius()
                    and oracle_ok(tree)):
                report.failed += 1
        report.radius_ratio = median(ratios)

    # -- replay ------------------------------------------------------

    def replay_state(self):
        cache = BuildCache()
        for k in range(self.sizes.fetch_keys):
            points = self.cloud(k)
            cache.put(canonical_key(points, 0, "polar-grid", PARAMS),
                      repro.build(points, 0, "polar-grid", **PARAMS))
        return cache

    def replay_op(self, cache, k):
        line = encode_request({
            "op": "build", "source": 0, "builder": "polar-grid",
            "params": PARAMS, "workload": self.spec(k), "include_tree": True,
        })
        reply = serve_build_inprocess(cache, line, include_tree=True)
        with obs.span("tree.validate"):
            tree_from_reply(reply)
        return reply


class ServePoints(ServedWorkload):
    """Cache-miss builds of fresh 1000-point clouds sent as raw points."""

    name = "serve-points"

    def make_ops(self, count):
        self.clouds = [
            unit_disk(self.sizes.points_n, seed=[self.seed, 3, i])
            for i in range(count)
        ]
        return list(range(count))

    def request(self, i):
        return self.client.build(points=self.clouds[i], params=PARAMS)

    def reply_ok(self, i, reply):
        points = self.clouds[i]
        return (reply["cached"] is False and reply["n"] == points.shape[0]
                and reply["key"] == canonical_key(points, 0, "polar-grid",
                                                  PARAMS))

    def check_after(self, report):
        rng = np.random.default_rng([self.seed, 4])
        sample = rng.choice(len(self.ops), size=min(20, len(self.ops)),
                            replace=False)
        ratios = []
        for i in sample.tolist():
            report.attempted += 1
            points = self.clouds[i]
            try:
                reply, tree = self.client.build_tree(
                    points=points, params=PARAMS
                )
            except OP_ERRORS:
                report.failed += 1
                continue
            fresh = fresh_radius(points)
            ratios.append(reply["radius"] / fresh)
            if not (reply["radius"] == fresh == tree.radius()
                    and oracle_ok(tree)):
                report.failed += 1
        report.radius_ratio = median(ratios)

    # -- replay ------------------------------------------------------

    def replay_state(self):
        return BuildCache()

    def replay_op(self, cache, i):
        line = encode_request({
            "op": "build", "source": 0, "builder": "polar-grid",
            "params": PARAMS, "points": self.clouds[i],
        })
        return serve_build_inprocess(cache, line, include_tree=False)


class ChurnUpdate(ServedWorkload):
    """``update`` batches of 8 joins and 8 leaves on a 20k tree.

    Every batch updates the set-up tree's key rather than the key the
    previous batch returned: a chain of updates re-adopts mutated trees,
    and that path fails ``CELL_CHAIN`` on some seeds (see the README's
    defect list), so a chained workload could not run failure-free.
    """

    name = "churn-update"
    JOINS = LEAVES = 8
    #: Std-dev of joiner positions, as in ``generate_churn_trace``.
    SPREAD = 0.4
    #: Every run updates the same tree and the seed draws the batches:
    #: an update's cost scales with the tree's cell count, and 20k
    #: clouds of other seeds get 9 rings instead of 10.
    TREE_SEED = 0
    #: Untimed batches ``finish`` applies with ``include_tree``. Most
    #: single batches leave the radius as a fresh build has it, a few
    #: move it by 1-3 %, so ``radius_ratio`` is their median.
    FINAL_BATCHES = 5

    def make_ops(self, count):
        rng = np.random.default_rng([self.seed, 5])
        n = self.sizes.churn_n
        batches = []
        for _ in range(count + self.FINAL_BATCHES):
            events = [
                {"action": "join",
                 "coords": rng.normal(scale=self.SPREAD, size=2).tolist()}
                for _ in range(self.JOINS)
            ] + [
                {"action": "leave", "index": int(i)}
                for i in rng.choice(np.arange(1, n), size=self.LEAVES,
                                    replace=False)
            ]
            batches.append([events[j] for j in rng.permutation(len(events))])
        self.final_batches = batches[count:]
        return batches[:count]

    def spec(self) -> dict:
        return {"kind": "unit-disk", "n": self.sizes.churn_n,
                "seed": self.TREE_SEED}

    def prepare(self):
        reply = self.client.build(workload=self.spec(), params=PARAMS)
        self.key, self.n = reply["key"], reply["n"]

    def reply_ok(self, events, reply):
        return (reply["key"] != self.key and reply["old_key"] == self.key
                and reply["n"] == self.n + self.JOINS - self.LEAVES)

    def request(self, events):
        return self.client.update(self.key, events)

    def finish(self, outcomes):
        self.keys_seen = {o.key for o in outcomes if o.ok}
        return super().finish(outcomes)

    def check_after(self, report):
        ratios = []
        for events in self.final_batches:
            report.attempted += 1
            try:
                reply = self.client.update(self.key, events,
                                               include_tree=True)
                tree = tree_from_reply(reply)
            except OP_ERRORS:
                report.failed += 1
                continue
            ratios.append(reply["radius"] / fresh_radius(tree.points))
            if not (self.reply_ok(events, reply)
                    and reply["radius"] == tree.radius()
                    and oracle_ok(tree)):
                report.failed += 1
        report.radius_ratio = median(ratios)

    # -- replay ------------------------------------------------------

    def replay_state(self):
        points = unit_disk(self.sizes.churn_n, seed=self.TREE_SEED)
        key = canonical_key(points, 0, "polar-grid", PARAMS)
        cache = BuildCache()
        cache.put(key, repro.build(points, 0, "polar-grid", **PARAMS))
        return {"cache": cache, "key": key, "serial": 0}

    def replay_op(self, state, events):
        """The server's ``update`` path, call by call."""
        line = encode_request({"op": "update", "key": state["key"],
                               "events": events})
        state["serial"] += 1
        with obs.span("wire.request_decode"):
            payload = json.loads(line)
        with obs.span("cache.lookup") as span:
            entry = state["cache"].get(payload["key"])
            span.set(hit=entry is not None)
        with obs.span("incremental.adopt"):
            engine = IncrementalGridTree(entry)
        with obs.span("incremental.events"):
            for i, event in enumerate(payload["events"]):
                if event["action"] == "join":
                    engine.join(f"u{state['serial']}-{i}",
                                np.asarray(event["coords"], dtype=np.float64))
                else:
                    engine.leave(engine.names[event["index"]])
        with obs.span("oracle.update_check"):
            engine.check().raise_if_failed()
        with obs.span("incremental.snapshot"):
            result = engine.to_build_result(builder="polar-grid")
        with obs.span("cache.key_hash"):
            key = canonical_key(result.tree.points, int(result.tree.root),
                                result.builder,
                                {"max_out_degree": int(result.max_out_degree)})
        with obs.span("cache.put"):
            state["cache"].put(key, result)
        with obs.span("service.reply_dict"):
            reply = UpdateResponse(key=key, old_key=payload["key"],
                                   result=result,
                                   events_applied=len(events)).to_dict()
        return wire_reply(reply)

    def replay_ok(self, events, reply):
        # The replay applies the TCP round's batches to the same tree,
        # so every key it reaches must be one the server answered.
        return self.reply_ok(events, reply) and reply["key"] in self.keys_seen


def median(values) -> float:
    """Median of ``values`` (0 when there are none)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


WORKLOADS = {
    cls.name: cls for cls in (TableOne, ServeFetch, ServePoints, ChurnUpdate)
}
