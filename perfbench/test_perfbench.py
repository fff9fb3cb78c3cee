"""Tests of the benchmark itself: tracer coverage, self-time accounting,
seeded inputs and the metric vocabulary.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, function_bindings  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def self_time(records, index):
    """Reference self time: duration minus the children's intervals."""
    record = records[index]
    covered = sum(child[2] - child[1] for child in records if child[3] == index)
    return record[2] - record[1] - covered


@pytest.fixture
def tracer():
    tracer = Tracer()
    layers.install(tracer)
    yield tracer
    tracer.uninstall()


def test_every_binding_is_wrapped(tracer):
    import repro.queries.homomorphism as homomorphism
    import repro.queries.rewrite as rewrite

    assert len(tracer.wrappers) == len(layers.TARGETS)
    for target in layers.TARGETS:
        original = tracer.originals[target.key]
        wrapper = tracer.wrappers[target.key]
        # No loaded repro module still reaches the unwrapped function.
        assert function_bindings(original) == [], target.key
        owner, _, attr = target.qualname.rpartition(".")
        module = sys.modules[target.module]
        holder = getattr(module, owner) if owner else module
        assert holder.__dict__[attr] is wrapper, target.key
    assert rewrite.minimize is homomorphism.minimize
    assert rewrite.minimize is tracer.wrappers[
        "repro.queries.homomorphism.minimize"]


def test_uninstall_restores_every_binding():
    tracer = Tracer()
    layers.install(tracer)
    originals = dict(tracer.originals)
    tracer.uninstall()
    for target in layers.TARGETS:
        owner, _, attr = target.qualname.rpartition(".")
        module = sys.modules[target.module]
        holder = getattr(module, owner) if owner else module
        assert holder.__dict__[attr] is originals[target.key], target.key


def test_self_times_and_unattributed_sum_to_wall(tracer):
    from repro.datasets.registry import load_dataset
    from repro.discovery.batch import Scenario

    import repro.perf as perf

    perf.clear_caches()
    pair = load_dataset("Amalgam")
    for case in pair.cases[:4]:
        scenario = Scenario.create(
            case.case_id, pair.source, pair.target, case.correspondences)
        with tracer.op(layers.OP_DISCOVER, kind="all"):
            scenario.run()
    records = tracer.records()
    roots = [r for r in records if r[0] == layers.OP_DISCOVER]
    wall_ms = 1000.0 * sum(r[2] - r[1] for r in roots) / len(roots)
    metrics = layers.layer_metrics(records)
    discovery = sum(
        metrics[f"{layer}.self_ms"]
        for layer in layers.SEARCH_FAMILY + layers.REWRITE_FAMILY
        + layers.OTHER_DISCOVERY_LAYERS
    ) + metrics["engine.unattributed_ms"]
    assert discovery == pytest.approx(wall_ms, rel=0.05)
    # Every discovery layer records calls, so a wrapper that stops
    # matching cannot hide its time in the unattributed remainder ...
    calls = Counter(record[0] for record in records)
    for layer in (layers.SEARCH_FAMILY + layers.REWRITE_FAMILY
                  + layers.OTHER_DISCOVERY_LAYERS):
        assert calls[layer] > 0, layer
    # ... which stays a small share of the wall.
    assert metrics["engine.unattributed_ms"] < 0.15 * wall_ms
    # The incremental self time equals the one recomputed from children.
    for index in range(0, len(records), max(1, len(records) // 50)):
        assert records[index][5] == pytest.approx(
            self_time(records, index), abs=1e-9)


def test_job_spans_follow_the_request_that_created_them(tracer):
    from repro.service.server import MappingService, ServiceConfig

    service = MappingService(ServiceConfig(workers=1, quiet=True))
    try:
        body = {"scenario": {"dataset": "Hotel", "case": "hotel-room-of-hotel"}}
        first, _ = service.handle_discover(body)
        second, _ = service.handle_discover(body)
    finally:
        service.close()
    assert (first, second) == (200, 200)
    records = tracer.records()
    classes = layers.op_classes(records)
    assert sorted(classes.values()) == ["hit", "miss"]
    miss = next(op for op, kind in classes.items() if kind == "miss")
    discover = [r for r in records if r[0] == "jobs.discover"]
    assert discover and all(r[4] == miss for r in discover)
    metrics = layers.layer_metrics(records)
    assert metrics["jobs.discover_ms.hit"] == 0.0
    assert metrics["jobs.discover_ms.miss"] > 0.0


def test_same_seed_same_operations_and_inputs(tmp_path):
    def wide(seed, count=40):
        sequence = workloads.wide_scenarios(random.Random(seed))
        return [next(sequence) for _ in range(count)]

    assert wide(3) == wide(3)
    assert wide(3) != wide(4)
    # Every seed measures the same scenarios, round by round.
    size = len(workloads.FAMILY_ROUND)
    for start in range(0, 40, size):
        assert sorted(wide(3)[start:start + size]) == \
            sorted(wide(4)[start:start + size])
    every = list(workloads.wide_scenarios(random.Random(3)))
    assert len(every) == len(set(every)) > 100  # no scenario repeats

    def plan(seed):
        return workloads.request_plan(random.Random(seed), 12.0, 60)

    assert plan(5) == plan(5)
    assert plan(5) != plan(6)
    assert len(plan(5)) == 60 and max(plan(5)) < 5.0

    from repro.datasets.registry import load_dataset

    pairs = [load_dataset("Hotel"), load_dataset("UT")]
    texts = []
    for name in ("a", "b"):
        workloads.write_fixtures(tmp_path / name, pairs, data_seed=11)
        texts.append((tmp_path / name / "Hotel-s.sql").read_text())
    assert texts[0] == texts[1]
    first = workloads.cli_plan(random.Random(9), pairs, tmp_path, 12)
    again = workloads.cli_plan(random.Random(9), pairs, tmp_path, 12)
    other = workloads.cli_plan(random.Random(10), pairs, tmp_path, 12)
    assert [c[3] for c in first] == [c[3] for c in again]
    # Other seeds run the same kinds of command over the same pairs.

    def shape(plan):
        return sorted(
            (kind, pair.name, "--sample" in argv,
             argv[argv.index("--backend") + 1] if "--backend" in argv else "")
            for kind, pair, case, argv in plan)

    assert shape(first) == shape(other)
    assert sum(1 for c in first if c[0] == "introspect") == 8


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(100))
    value, pct = workloads.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == 90.0
    assert workloads.percentile(samples, 50) == 49


def test_metric_names_units_and_directions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in spec[kind]]
    assert len(names) == len(set(names))
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            assert NAME.fullmatch(metric["name"]), metric
            assert metric["unit"] and metric["better"] in ("lower", "higher")
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
