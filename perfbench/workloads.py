"""The four benchmark workloads; each runs in a fresh child process.

``run.py`` starts this script once per workload run::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --out RESULT.json

and reads ``RESULT.json`` back. The child makes its inputs from the seed,
sets up (several times, keeping the last), measures for ``S`` seconds,
then checks every output outside the timed region. Why each workload
exists, and which layers it stresses, is in ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import http.client
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stdout
from io import StringIO
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Setup repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3

#: Workloads that run the program in the workload process itself.
IN_PROCESS = ("paper-cold", "wide-catalog")

#: The tail percentile of each workload: the highest that keeps about ten
#: samples beyond it at the sample count an 18 s run gathers on a 2-core
#: host; for service-mixed, where that one swung by a third between runs,
#: a lower one (see README.md).
TAIL_PERCENTILE = {
    "paper-cold": 95,
    "wide-catalog": 85,
    "service-mixed": 90,
    "cli-ingest": 55,
}


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def percentile(samples, pct):
    """Nearest-rank percentile of ``samples`` (``pct`` in 0..100)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples):
    """``(value, percentile)`` at the highest percentile that keeps at
    least ten samples beyond it (the maximum when there are too few)."""
    ordered = sorted(samples)
    index = max(0, len(ordered) - 11)
    return ordered[index], round(100.0 * (index + 1) / len(ordered), 1)


def tgd_lines(candidates) -> list[str]:
    return [str(c.to_tgd(f"M{i}")) for i, c in enumerate(candidates, start=1)]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """What one workload run accumulates: timings, failures, op digests."""

    def __init__(self, args, tracer):
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = tracer
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.ops: list[list] = []  # [key, output digest, latency ms, ok]
        self.setup_reps: list[float] = []
        self.detail: dict = {}
        #: Per-layer values measured outside the spans (see layers.py).
        self.layer_extra: dict[str, float] = {}
        #: The server's span file and the base phase's time window.
        self.server_spans: tuple[str, float, float] | None = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def start_tracing(self) -> None:
        """Install the layer wrappers, once set-up is done."""
        if self.tracer is not None:
            layers.install(self.tracer)

    def op(self, name, **attrs):
        """An op-root span when tracing, else a no-op context."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.op(name, **attrs)

    def e2e(self, throughput, peak_rss_mb):
        samples = self.latencies_ms
        tail_pct = TAIL_PERCENTILE[self.name]
        self.detail["tail_percentile"] = tail_pct
        self.detail["samples"] = len(self.latencies_ms)
        self.detail["setup_reps_s"] = self.setup_reps
        # In-process workloads run the program in this process, so its
        # start and import are set-up work; the others only import it to
        # make and check inputs, and their program processes start during
        # setup.
        import_s = import_seconds() if self.name in IN_PROCESS else 0.0
        self.detail["import_s"] = import_s
        return {
            "setup_s": import_s + statistics.median(self.setup_reps),
            "peak_rss_mb": peak_rss_mb,
            "discover_p50_ms": statistics.median(samples),
            "discover_tail_ms": percentile(samples, tail_pct),
            "scenarios_per_s": throughput,
        }


def timed_setup(run: Run, build, discard=None):
    """Run ``build`` SETUP_REPS times and keep the last result; earlier
    results go to ``discard`` outside the timed region."""
    result = None
    for _ in range(SETUP_REPS):
        if result is not None and discard is not None:
            discard(result)
        result = None
        started = time.perf_counter()
        result = build()
        run.setup_reps.append(time.perf_counter() - started)
    return result


# ----------------------------------------------------------------------
# paper-cold
# ----------------------------------------------------------------------
def paper_cold(run: Run):
    """All 34 paper cases serially, datasets rebuilt and caches cleared
    before every pass; precision/recall scored outside the timed region."""
    import repro.perf as perf
    from repro.datasets.registry import load_all_datasets
    from repro.discovery.batch import Scenario
    from repro.evaluation.measures import precision_recall
    from repro.perf.invariants import EXPECTED_CANDIDATE_COUNTS

    def fresh_pairs():
        perf.clear_caches()
        return load_all_datasets()

    pairs = timed_setup(run, fresh_pairs)
    run.start_tracing()
    reference: dict[str, list[str]] = {}
    first_results = {}
    passes = 0
    measured = 0.0
    deadline = time.perf_counter() + run.seconds
    while passes == 0 or time.perf_counter() < deadline:
        pass_started = time.perf_counter()
        if passes:
            pairs = fresh_pairs()
        order = [(pair, case) for pair in pairs for case in pair.cases]
        run.rng.shuffle(order)
        seen_pairs = set()
        for pair, case in order:
            key = f"{pair.name}/{case.case_id}"
            scenario = Scenario.create(
                key, pair.source, pair.target, case.correspondences
            )
            run.attempted += 1
            with run.op(layers.OP_DISCOVER, kind="all"):
                started = time.perf_counter()
                result = scenario.run()
                elapsed = time.perf_counter() - started
            run.latencies_ms.append(elapsed * 1000.0)
            lines = tgd_lines(result.candidates)
            ok = True
            if len(result) != EXPECTED_CANDIDATE_COUNTS.get(key):
                run.fail(f"{key}: {len(result)} candidates, expected "
                         f"{EXPECTED_CANDIDATE_COUNTS.get(key)}")
                ok = False
            if key in reference and reference[key] != lines:
                run.fail(f"{key}: TGDs differ from the first pass")
                ok = False
            if pair.name not in seen_pairs:
                seen_pairs.add(pair.name)
                if not result.stats.get("translate_cache_misses", 0) > 0:
                    run.fail(f"{key}: first case of its pair ran warm")
                    ok = False
            reference.setdefault(key, lines)
            if passes == 0:
                first_results[key] = (pair, case, result)
            run.ops.append([key, digest(lines), elapsed * 1000.0, ok])
        measured += time.perf_counter() - pass_started
        passes += 1
    # Quality, outside the timed region: per-domain averages, as in
    # Figures 6 and 7 of the paper.
    per_domain: dict[str, list] = {}
    for key, (pair, case, result) in first_results.items():
        measures = precision_recall(
            result.candidates,
            case.benchmark,
            source_schema=pair.source.schema,
            target_schema=pair.target.schema,
        )
        per_domain.setdefault(pair.name, []).append(measures)
    domains = {
        name: {
            "precision": statistics.fmean(m.precision for m in rows),
            "recall": statistics.fmean(m.recall for m in rows),
        }
        for name, rows in per_domain.items()
    }
    run.detail.update(
        passes=passes,
        precision=statistics.fmean(d["precision"] for d in domains.values()),
        recall=statistics.fmean(d["recall"] for d in domains.values()),
        per_domain=domains,
    )
    return len(run.latencies_ms) / measured, max_rss_mb()


# ----------------------------------------------------------------------
# wide-catalog
# ----------------------------------------------------------------------
#: Chain length 499 and isa_fan length 199 give 1000 classes per side.
CHAIN_LENGTH = 499
FAN_LENGTH = 199
#: Marked-class positions are drawn from these depth ranges ``[low,
#: high)``. Search cost grows with depth while rewriting stays flat, so
#: these depths make Steiner search the larger share of the time (about
#: 60%) while keeping most scenarios under half a second, so that a run
#: gathers many of them.
POSITIONS = {"chain": (110, 160), "isa_fan": (60, 80)}
#: One round of scenarios: nine chain scenarios and one isa_fan one.
FAMILY_ROUND = ("chain",) * 9 + ("isa_fan",)
#: Every distinct scenario adds to the warm caches, so memory grows with
#: the scenario count; ``peak_rss_mb`` covers set-up and this many
#: scenarios, whatever number a run fits in.
RSS_SCENARIOS = 20
GOLDEN = (math.sqrt(5) - 1) / 2


def _depth_order(low: int, high: int):
    """Every ``(position, span)`` of one family once, in a fixed order.

    Positions follow a golden-ratio sequence, so any run of consecutive
    entries covers the depth range evenly; three rounds give each
    position each span of 2, 3 and 4 hops once.
    """
    width = high - low
    positions, n = [], 0
    while len(positions) < width:
        position = low + int(((n * GOLDEN) % 1.0) * width)
        n += 1
        if position not in positions:
            positions.append(position)
    return [(position, 2 + (rounds + index) % 3)
            for rounds in range(3) for index, position in enumerate(positions)]


def wide_scenarios(rng: random.Random):
    """Distinct ``(family, position, span)`` triples in rounds of
    :data:`FAMILY_ROUND`; ends when a family has no unused triple left.

    Which triples make up each round is the same for every seed, so runs
    of any seed measure the same depths; the seed shuffles the order
    within each round. The warm-up scenarios of the setup sit at depth 0,
    outside every range.
    """
    orders = {family: iter(_depth_order(*POSITIONS[family]))
              for family in POSITIONS}
    while True:
        block = []
        for family in FAMILY_ROUND:
            combo = next(orders[family], None)
            if combo is None:
                return
            block.append((family, *combo))
        rng.shuffle(block)
        yield from block


def settle_heap(young_only: bool = False) -> None:
    """Collect garbage and move every surviving object out of the
    collector's reach, between timed scenarios.

    Each distinct scenario leaves ~12 MB in the warm caches. Without
    this, the heap grows to ~300 MB over a run and a third of the
    scenarios absorb a full collection of it, 0.5-1 s each and growing
    with the number of scenarios the host happened to fit in before:
    the median and tail then measured the collector's schedule, not
    discovery. Collections of each scenario's own objects stay inside
    its timing.
    """
    gc.collect(1 if young_only else 2)
    gc.freeze()


def wide_catalog(run: Run):
    """Distinct 2-correspondence scenarios against two ~1000-class
    catalogs built once in setup; caches stay warm throughout."""
    import repro.perf as perf
    from repro.correspondences import CorrespondenceSet
    from repro.datasets import synthetic
    from repro.discovery.batch import Scenario
    from repro.semantics import design_schema

    prefixes = {"chain": "c", "isa_fan": "r"}

    def scenario(catalogs, family, position, span):
        p = prefixes[family]
        a, b = position, position + span
        correspondences = CorrespondenceSet.parse(
            [f"{p}{a}.a{a} <-> {p}{a}.a{a}", f"{p}{b}.a{b} <-> {p}{b}.a{b}"]
        )
        source, target = catalogs[family]
        return Scenario.create(
            f"{family}-{position}-{span}", source, target, correspondences
        )

    def build():
        catalogs = {
            "chain": tuple(
                design_schema(synthetic.chain_model(f"wide_{side}", CHAIN_LENGTH),
                              side).semantics
                for side in ("src", "tgt")
            ),
            "isa_fan": tuple(
                design_schema(synthetic.isa_fan_model(f"wide_{side}", FAN_LENGTH),
                              side).semantics
                for side in ("src", "tgt")
            ),
        }
        for family in catalogs:
            scenario(catalogs, family, 0, 2).run()
        return catalogs

    # Each set-up starts from cold caches; without this, the entries the
    # discarded catalogs left behind made the first timed scenario of each
    # family pay twice its cost.
    catalogs = timed_setup(run, build, discard=lambda _: perf.clear_caches())
    settle_heap()
    run.start_tracing()
    run.detail["classes_per_side"] = {
        family: synthetic.class_count(catalogs[family][0].model)
        for family in catalogs
    }
    triples = wide_scenarios(run.rng)
    kept = []
    peak = 0.0
    measured = 0.0
    deadline = time.perf_counter() + run.seconds
    while not run.latencies_ms or time.perf_counter() < deadline:
        triple = next(triples, None)
        if triple is None:
            run.detail["every_scenario_ran"] = True
            break
        family, position, span = triple
        item = scenario(catalogs, family, position, span)
        run.attempted += 1
        with run.op(layers.OP_DISCOVER, kind="all"):
            started = time.perf_counter()
            result = item.run()
            elapsed = time.perf_counter() - started
        measured += elapsed
        run.latencies_ms.append(elapsed * 1000.0)
        lines = tgd_lines(result.candidates)
        ok = len(result) >= 1
        if not ok:
            run.fail(f"{item.scenario_id}: no candidate")
        run.ops.append([item.scenario_id, digest(lines), elapsed * 1000.0, ok])
        if len(run.latencies_ms) == RSS_SCENARIOS:
            peak = max_rss_mb()
        if len(kept) < 3:
            kept.append(((family, position, span), lines))
        settle_heap(young_only=True)
    # Determinism, outside the timed region: a second pass over the
    # first scenarios, from cold caches, must give identical TGDs.
    perf.clear_caches()
    for triple, lines in kept:
        again = tgd_lines(scenario(catalogs, *triple).run().candidates)
        if again != lines:
            run.fail(f"{triple}: TGDs differ across passes")
            key = "-".join(map(str, triple))
            for op in run.ops:
                op[3] = op[3] and op[0] != key
    return len(run.latencies_ms) / measured, peak or max_rss_mb()


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
#: Base open-loop rate (requests/s) and the ladder of rates above it.
BASE_RATE = 12.0
LADDER = (18.0, 30.0)
#: Share of the run at the base rate. It sets how many rounds (see
#: :func:`service_mixed`) the base phase sends; each ladder rate sends
#: one.
BASE_SHARE = 0.25
#: The closed-loop capacity phase sends one round per this many seconds
#: of the run left after the open loops (six in an 18 s run): a count
#: fixed by the run length, so that every run does the same work and
#: leaves the same entries in the cache.
CLOSED_ROUND_SECONDS = 1.5
#: A rate passes when its p90 stays under this limit and the generator
#: ends the phase less than LATE_LIMIT_S behind its schedule.
LATENCY_LIMIT_MS = 250.0
LATE_LIMIT_S = 0.25
#: At most this many closed-loop rounds, so the hit set and every miss
#: of a run (11 per round) stay within the server's 256-entry cache.
MAX_CLOSED_ROUNDS = 15
#: Misses reuse the cases of these paper pairs under never-seen schema
#: names, so each is new to the server but costs what its case costs.
MISS_PAIRS = ("Hotel", "Network")


class Cycle:
    """Items in seeded shuffled rounds: every item once per round."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.queue = list(items), rng, []

    def next(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def request_plan(rng: random.Random, rate: float, count: int):
    """Send offsets (s) of one open-loop phase of ``count`` requests,
    seeded: a Poisson process at ``rate`` conditioned on its count, as
    sorted uniform offsets over ``count / rate`` seconds."""
    seconds = count / rate
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def _server_command(trace_path: str | None) -> list[str]:
    serve = ["serve", "--workers", "2", "--port", "0"]
    if trace_path is None:
        return [sys.executable, "-m", "repro", *serve]
    return [sys.executable, str(HERE / "serve_boot.py"), trace_path, *serve]


class Server:
    """A ``repro serve`` subprocess: start, wait until listening, stop."""

    def __init__(self, trace_path: str | None):
        self.process = subprocess.Popen(
            _server_command(trace_path),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            cwd=ROOT,
        )
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line for the server process")

    def get(self, path: str) -> str:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request("GET", path)
            return connection.getresponse().read().decode("utf-8")
        finally:
            connection.close()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)  # a clean shutdown
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def send(server: Server, bodies, offsets=None, connections=2):
    """POST each of ``bodies`` to ``/discover``, in order, over
    ``connections`` keep-alive connections.

    With ``offsets`` this is an open loop: body ``i`` is due at ``start +
    offsets[i]``, and its latency counts from then, so a stall also
    delays the requests behind it. Without, it is a closed loop: each
    connection sends its next body as soon as its last response arrives.

    Returns ``[(status, body bytes, latency s, lateness s)]`` and the
    wall time from the start to the last response.
    """
    results = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker():
        connection = http.client.HTTPConnection(server.host, server.port,
                                                timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                now = time.perf_counter()
                due = max(now, start) if offsets is None else start + offsets[index]
                if due > now:
                    time.sleep(due - now)
                sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/discover", bodies[index],
                        {"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    status, body = response.status, response.read()
                except (OSError, http.client.HTTPException) as error:
                    connection.close()
                    connection = http.client.HTTPConnection(
                        server.host, server.port, timeout=120)
                    status, body = 0, repr(error).encode()
                done = time.perf_counter()
                results[index] = (status, body, done - due, sent - due)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start


def service_mixed(run: Run):
    """Dataset-name hits, inline hits and never-seen inline misses against
    ``repro serve --workers 2``: an open loop at the base rate and at each
    ladder rate, then a closed loop for the server's capacity.

    Every phase sends whole rounds. A round is each of the 34 dataset-name
    hits, each pair's inline hit and each :data:`MISS_PAIRS` case as a new
    miss, once, in seeded order; so every seed sends the same requests,
    and only their order and timing differ. The end-to-end latencies are
    the closed loop's cache hits and the throughput its 200 responses per
    second; the open loops' per-class latencies and highest passing rate
    go to the report's detail.
    """
    from repro.datasets.registry import load_all_datasets
    from repro.mappings.serialize import candidate_from_dict
    from repro.service.metrics import parse_exposition
    from repro.service.wire import scenario_from_wire, semantics_to_wire

    pairs = load_all_datasets()
    cases = [(pair, case) for pair in pairs for case in pair.cases]
    wire_sides = {}

    def inline_spec(pair, case, schema_suffix=""):
        if pair.name not in wire_sides:
            wire_sides[pair.name] = (semantics_to_wire(pair.source),
                                     semantics_to_wire(pair.target))
        source, target = wire_sides[pair.name]
        if schema_suffix:
            source = dict(source, schema=dict(
                source["schema"], name=source["schema"]["name"] + schema_suffix))
        return {"source": source, "target": target,
                "correspondences": [str(c) for c in case.correspondences]}

    dataset_hits = [{"dataset": pair.name, "case": case.case_id}
                    for pair, case in cases]
    # One inline hit per pair, the same for every seed.
    inline_hits = [inline_spec(pair, pair.cases[0]) for pair in pairs]
    miss_cases = [(p, c) for p, c in cases if p.name in MISS_PAIRS]
    misses_made = 0

    def rounds_of_requests(rounds):
        nonlocal misses_made
        items = []
        for _ in range(rounds):
            block = [("dataset", spec) for spec in dataset_hits]
            block += [("inline", spec) for spec in inline_hits]
            for pair, case in miss_cases:
                misses_made += 1
                block.append(("miss", inline_spec(
                    pair, case, f"~{run.seed}-{misses_made}")))
            run.rng.shuffle(block)
            items += block
        return items

    def encode(spec):
        return json.dumps({"scenario": spec}).encode("utf-8")

    trace_path = None
    if run.tracer is not None:
        WORK.mkdir(exist_ok=True)
        trace_path = str(WORK / f"server-spans-{os.getpid()}.json")
    fill = [encode(spec) for spec in dataset_hits + inline_hits]

    def start_and_fill():
        server = Server(trace_path)
        results, _ = send(server, fill)
        if any(status != 200 for status, *_ in results):
            server.stop()
            raise RuntimeError("filling the hit set failed")
        return server

    round_size = len(dataset_hits) + len(inline_hits) + len(miss_cases)
    rounds = max(1, round(run.seconds * BASE_SHARE * BASE_RATE / round_size))
    open_loops = [(BASE_RATE, rounds)] + [(rate, 1) for rate in LADDER]
    closed_seconds = run.seconds - sum(
        count * round_size / rate for rate, count in open_loops)
    closed_rounds = min(MAX_CLOSED_ROUNDS,
                        max(1, round(closed_seconds / CLOSED_ROUND_SECONDS)))
    server = timed_setup(run, start_and_fill, discard=Server.stop)
    sent = []  # (phase, kind, spec, status, body, latency, lateness)
    rungs = []

    def phase(number, rate, count):
        """Send ``count`` rounds, open-loop at ``rate`` or closed-loop."""
        items = rounds_of_requests(count)
        offsets = None if rate is None else request_plan(run.rng, rate, len(items))
        started = time.perf_counter()
        results, wall = send(server, [encode(spec) for _, spec in items], offsets)
        for (kind, spec), result in zip(items, results):
            sent.append((number, kind, spec) + tuple(result))
        return started, results, wall

    try:
        counters_before = parse_exposition(server.get("/metrics"))
        for number, (rate, count) in enumerate(open_loops):
            started, results, wall = phase(number, rate, count)
            if number == 0 and trace_path is not None:
                run.server_spans = (trace_path, started, started + wall)
            latencies = [r[2] * 1000.0 for r in results]
            rungs.append({
                "rate": rate,
                "requests": len(results),
                "p50_ms": statistics.median(latencies),
                "p90_ms": percentile(latencies, 90),
                "final_lateness_s": results[-1][3],
                "completed_per_s": sum(1 for r in results if r[0] == 200) / wall,
            })
        _, results, wall = phase(len(open_loops), None, closed_rounds)
        closed = {
            "rounds": closed_rounds,
            "requests": len(results),
            "seconds": wall,
            "completed_per_s": sum(1 for r in results if r[0] == 200) / wall,
        }
        counters_after = parse_exposition(server.get("/metrics"))
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()

    # Checks, outside the timed region: every 200 body's TGDs must equal
    # an in-process discover of the same scenario.
    references = {}
    latencies = {"hit": [], "miss": []}
    closed_latencies = {"hit": [], "miss": []}
    for number, kind, spec, status, body, latency, lateness in sent:
        run.attempted += 1
        key = json.dumps(spec, sort_keys=True)
        if key not in references:
            references[key] = tgd_lines(scenario_from_wire(spec).run().candidates)
        lines = []
        if status != 200:
            run.fail(f"{kind} request: HTTP {status}")
        else:
            lines = tgd_lines(
                candidate_from_dict(d)
                for d in json.loads(body)["result"]["mapping"]["candidates"]
            )
            if lines != references[key]:
                run.fail(f"{kind} request: TGDs differ from in-process discover")
        ok = status == 200 and lines == references[key]
        label = spec.get("case") or f"{kind}:{digest([key])}"
        run.ops.append([f"{number}:{label}", digest(lines), latency * 1000.0, ok])
        if number == 0:
            latencies["miss" if kind == "miss" else "hit"].append(latency * 1000.0)
        elif number == len(open_loops):
            closed_latencies["miss" if kind == "miss" else "hit"].append(
                latency * 1000.0)
    max_rps = 0.0
    for rung in rungs:
        if (rung["p90_ms"] > LATENCY_LIMIT_MS
                or rung["final_lateness_s"] >= LATE_LIMIT_S):
            break
        max_rps = rung["rate"]
    hits, misses = latencies["hit"], latencies["miss"]
    # The end-to-end latencies are the closed loop's hits. Nearly every
    # closed-loop request waits on the delayed acknowledgement, which
    # adds the same ~40 ms to hits and misses; a miss's own work swings
    # with the host's speed far more than a hit's, so a tail over all
    # requests (p90 falls among the misses) spread by a third run to run.
    # The misses' cost shows in the closed loop's throughput.
    run.latencies_ms = closed_latencies["hit"]
    closed["miss_p50_ms"] = statistics.median(closed_latencies["miss"])
    closed["miss_tail_ms"] = tail(closed_latencies["miss"])
    run.detail.update(
        http_hit_p50_ms=statistics.median(hits),
        http_hit_tail_ms=tail(hits),
        http_miss_p50_ms=statistics.median(misses),
        http_miss_tail_ms=tail(misses),
        http_max_rps=max_rps,
        rungs=rungs,
        closed_loop=closed,
        hits=len(hits),
        misses=len(misses),
    )
    for name, series in (
        ("service.discovery_invocations", "discovery_invocations_total"),
        ("service.cache_hits", "cache_hits_total"),
        ("service.cache_misses", "cache_misses_total"),
        ("service.rejected_429", "jobs_rejected_total"),
    ):
        run.layer_extra[name] = (counters_after.get(f"repro_service_{series}", 0.0)
                                 - counters_before.get(f"repro_service_{series}", 0.0))
    run.layer_extra["client_ms.hit"] = statistics.fmean(hits)
    run.layer_extra["client_ms.miss"] = statistics.fmean(misses)
    return closed["completed_per_s"], peak_rss


# ----------------------------------------------------------------------
# cli-ingest
# ----------------------------------------------------------------------
#: Rows generated per table for the SQLite files and dumps.
ROWS_PER_TABLE = 40
#: The commands of one round, per pair: a ``map`` and an ``introspect``
#: over each backend, so ingest is two thirds of the commands.
CLI_ROUND = (("map", None), ("introspect", "pgdump"), ("introspect", "sqlite"))
#: Traced runs first replay this many commands untraced in-process: the
#: reference for the tracing overhead.
OVERHEAD_COMMANDS = 6


def write_fixtures(work: Path, pairs, data_seed: int) -> None:
    """Per pair: a SQLite file and a pg_dump file per side, from the same
    generated rows, plus one correspondence file per case."""
    from repro.datasets.instances import generate_instance
    from repro.ingest import materialize_sqlite, pgdump_ddl

    work.mkdir(parents=True)
    for pair in pairs:
        for side, semantics in (("s", pair.source), ("t", pair.target)):
            instance = generate_instance(
                semantics.schema, rows_per_table=ROWS_PER_TABLE, seed=data_seed)
            stem = work / f"{pair.name}-{side}"
            materialize_sqlite(semantics.schema, f"{stem}.db",
                               instance=instance).close()
            Path(f"{stem}.sql").write_text(
                pgdump_ddl(semantics.schema, instance=instance), encoding="utf-8")
        for case in pair.cases:
            (work / f"{case.case_id}.corr").write_text(
                "".join(f"{c}\n" for c in case.correspondences), encoding="utf-8")


def cli_plan(rng: random.Random, pairs, work: Path, count: int):
    """``count`` commands as ``(kind, pair, case, argv)``, seeded.

    Commands come in rounds of :data:`CLI_ROUND` for every pair; in each
    round ``--sample 20`` goes to one backend's ``introspect``,
    alternating from round to round. So every seed runs the same commands
    but for their cases, which the seed picks, and their order within a
    round, which it shuffles.
    """
    pickers = {pair.name: Cycle(pair.cases, rng) for pair in pairs}
    plan = []
    while len(plan) < count:
        sampled = ("pgdump", "sqlite")[len(plan) // len(CLI_ROUND) // len(pairs) % 2]
        block = []
        for pair in pairs:
            for kind, backend in CLI_ROUND:
                case = pickers[pair.name].next()
                if kind == "map":
                    block.append((kind, pair, case, ["map", pair.name, case.case_id]))
                    continue
                ext = "sql" if backend == "pgdump" else "db"
                argv = ["introspect", str(work / f"{pair.name}-s.{ext}"),
                        str(work / f"{pair.name}-t.{ext}"), "--backend", backend,
                        "--cm", pair.name,
                        "--correspondences", str(work / f"{case.case_id}.corr"),
                        "--discover"]
                if backend == sampled:
                    argv += ["--sample", "20"]
                block.append((kind, pair, case, argv))
        rng.shuffle(block)
        plan += block
    return plan[:count]


def run_command(argv):
    """One fresh ``python -m repro`` process: ``(exit code, stdout, wall
    seconds, peak RSS MB)``."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    with process.stdout:
        stdout = process.stdout.read()
    _, status, usage = os.wait4(process.pid, 0)
    elapsed = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, stdout, elapsed, usage.ru_maxrss / 1024.0


def cli_ingest(run: Run):
    """One fresh ``python -m repro`` process at a time: ``map NAME CASE``
    and ``introspect SRC TGT --backend B --cm NAME --correspondences F
    --discover [--sample N]`` over fixtures generated in setup."""
    from repro.datasets.registry import load_all_datasets
    from repro.discovery import discover_mappings

    work = WORK / f"cli-{os.getpid()}"
    data_seed = run.rng.randrange(1 << 30)

    def build():
        pairs = load_all_datasets()
        write_fixtures(work, pairs, data_seed)
        return pairs

    def discard(_pairs):
        shutil.rmtree(work)

    outputs = []
    peak = 0.0
    try:
        pairs = timed_setup(run, build, discard=discard)
        commands = cli_plan(run.rng, pairs, work, 1_000)
        plan = iter(commands)
        if run.tracer is not None:
            import repro.__main__ as cli
            import repro.perf as perf

            def replay(argv):
                # In-process with cold caches, as a fresh process runs it.
                perf.clear_caches()
                buffer = StringIO()
                started = time.perf_counter()
                with redirect_stdout(buffer):
                    code = cli.main(argv)
                return code, buffer.getvalue(), time.perf_counter() - started

            # The untraced in-process reference for the tracing overhead.
            run.detail["untraced_replay_ms"] = [
                1000.0 * replay(argv)[2]
                for *_, argv in commands[:OVERHEAD_COMMANDS]]
            run.start_tracing()
        deadline = time.perf_counter() + run.seconds
        while not outputs or time.perf_counter() < deadline:
            kind, pair, case, argv = next(plan)
            run.attempted += 1
            if run.tracer is None:
                code, stdout, elapsed, rss = run_command(argv)
                peak = max(peak, rss)
            else:
                with run.op(layers.OP_CLI, kind=kind):
                    code, stdout, elapsed = replay(argv)
            run.latencies_ms.append(elapsed * 1000.0)
            outputs.append((kind, pair, case, code, stdout, elapsed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Checks, outside the timed region: the printed TGDs must equal the
    # in-process authored path for the same correspondences.
    references = {}
    for kind, pair, case, code, stdout, elapsed in outputs:
        key = f"{pair.name}/{case.case_id}"
        if key not in references:
            references[key] = tgd_lines(discover_mappings(
                pair.source, pair.target, case.correspondences).candidates)
        printed = [line.strip() for line in stdout.splitlines()
                   if line.startswith("  M") and ": " in line]
        ok = code == 0 and printed == references[key]
        if not ok:
            run.fail(f"{kind} {key}: exit {code}, TGDs "
                     f"{'match' if printed == references[key] else 'differ'}")
        run.ops.append([f"{kind}:{key}", digest(printed), elapsed * 1000.0, ok])
    by_kind = {kind: [o[5] for o in outputs if o[0] == kind] or [0.0]
               for kind in ("map", "introspect")}
    run.detail.update(
        cli_map_p50_s=statistics.median(by_kind["map"]),
        cli_ingest_p50_s=statistics.median(by_kind["introspect"]),
        cli_tail_s=tail([o[5] for o in outputs]),
        commands=len(outputs),
    )
    if run.tracer is not None:
        peak = max_rss_mb()
    return len(outputs) / sum(o[5] for o in outputs), peak


# ----------------------------------------------------------------------
# Startup probes (traced runs)
# ----------------------------------------------------------------------
def command_wall(argv) -> float:
    """Wall seconds of one fresh process running ``argv``."""
    started = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)
    return time.perf_counter() - started


def import_seconds() -> float:
    """Interpreter start plus ``import repro``: the median of SETUP_REPS
    fresh processes."""
    return statistics.median(
        command_wall([sys.executable, "-c", "import repro"])
        for _ in range(SETUP_REPS))


def startup_probes(reps: int = 3) -> dict[str, float]:
    """Interpreter start, ``import repro`` and per-package import times."""
    interpreter = 1000.0 * statistics.median(
        command_wall([sys.executable, "-c", "pass"]) for _ in range(reps))
    imported = 1000.0 * statistics.median(
        command_wall([sys.executable, "-c", "import repro"]) for _ in range(reps))
    report = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import repro, repro.service, repro.ingest"],
        cwd=ROOT, check=True, capture_output=True, text=True).stderr
    metrics = {
        "startup.interpreter_ms": interpreter,
        "startup.import_ms": imported - interpreter,
    }
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = (part.strip() for part in line[12:].split("|"))
        if name in layers.IMPORT_PACKAGES and cumulative.isdigit():
            metrics[f"startup.import.{name}_ms"] = int(cumulative) / 1000.0
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
WORKLOADS = {
    "paper-cold": paper_cold,
    "wide-catalog": wide_catalog,
    "service-mixed": service_mixed,
    "cli-ingest": cli_ingest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = Run(args, tracer)
    throughput, peak_rss = WORKLOADS[args.workload](run)
    result = {
        "workload": args.workload,
        "attempted": run.attempted,
        "failed": sum(1 for op in run.ops if not op[3]),
        "failures": run.failures[:20],
        "e2e": run.e2e(throughput, peak_rss),
        "detail": run.detail,
        "ops": run.ops,
    }
    if tracer is not None:
        tracer.uninstall()
        extra = dict(run.layer_extra, **startup_probes())
        records = tracer.records()
        if run.server_spans is not None:
            path, first, last = run.server_spans
            with open(path, encoding="utf-8") as handle:
                records = json.load(handle)
            os.remove(path)
            # Server spans of the base-rate phase only: the client's
            # per-class latencies come from that phase.
            ops = {r[4] for r in records if r[3] == -1 and first <= r[1] <= last}
            records = [r for r in records if r[4] in ops]
        per_layer = result["per_layer"] = layers.layer_metrics(records, extra)
        result["shares"] = layers.family_shares(per_layer)
        if args.workload == "cli-ingest":
            # Startup plus catalog opening, as a share of command wall time.
            startup = per_layer["startup.interpreter_ms"] + per_layer["startup.import_ms"]
            opening = (per_layer["backends.open.pgdump.self_ms"]
                       + per_layer["backends.open.sqlite.self_ms"])
            wall = startup + statistics.fmean(run.latencies_ms)
            result["shares"]["import_and_open"] = (
                per_layer["startup.import_ms"] + opening) / wall
        result["spans"] = len(records)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
