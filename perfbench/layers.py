"""The layers the traced run wraps, and the per-layer metrics built from them.

Each :class:`~tracer.Target` names one public function (or method) of a
``repro`` module and the span name its calls record; several functions
can share a layer. :func:`layer_metrics` turns span records into the
``per_layer`` metrics of ``BENCHMARK.json``: self times in milliseconds
and counts, each a mean per operation of the workload (one discovery,
one HTTP request or one CLI command). Layers a workload never reaches
read 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import Target

#: ``DiscoveryResult.stats`` counters reported per operation.
STATS = (
    "translate_cache_hits",
    "translate_cache_misses",
    "oracle_sweeps",
    "astar_expansions",
    "bound_prunes",
    "tied_paths_dropped",
    "required_subtree_prunes",
)

#: Packages whose cumulative import time ``-X importtime`` reports.
IMPORT_PACKAGES = (
    "networkx",
    "repro.cm",
    "repro.discovery",
    "repro.service",
    "repro.ingest",
    "repro.mappings",
)

SERVICE_CLASSES = ("hit", "miss")
SERVICE_LAYERS = (
    "wire.parse",
    "validation",
    "fingerprint",
    "cache.get",
    "cache.put",
    "wire.serialize",
)
INGEST_LAYERS = (
    "backends.open.pgdump",
    "backends.open.sqlite",
    "introspect",
    "recover",
    "sample",
    "correspond.seed",
)
SEARCH_LAYERS = ("csg.target", "csg.source", "csg.lossy")
REWRITE_FAMILY = (
    "rewrite",
    "normalize.key_chase",
    "homomorphism.minimize",
    "homomorphism.keep_maximal",
)
SEARCH_FAMILY = SEARCH_LAYERS + ("steiner.functional", "steiner.lossy")
OTHER_DISCOVERY_LAYERS = (
    "translate",
    "lav.views",
    "compatibility",
    "correspondences.lift",
    "expression.rank",
)

#: Op-root span names, one per kind of workload operation.
OP_DISCOVER = "op.discover"
OP_CLI = "op.cli"
OP_HTTP = "http.handle"


def _stats(tracer, args, kwargs, result, before):
    return {name: result.stats.get(name, 0) for name in STATS}


def _views_built(tracer, args, kwargs):
    return args[0]._views is None


def _job_created(tracer, args, kwargs, result, before):
    tracer.job_ops[id(args[0])] = tracer.current_op()
    return None


def _job_starting(tracer, args, kwargs):
    # The worker thread runs the job on behalf of the request that
    # created it: its discovery spans belong to that request's op.
    tracer.set_op(tracer.job_ops.get(id(args[0]), 0))


def _queue_wait(tracer, args, kwargs, result, before):
    job = args[0]
    return {"queue_wait": job.started_at - job.submitted_at}


def _http_outcome(tracer, args, kwargs, result, before):
    status, body = result
    return {"status": status, "cached": bool(body.get("cached"))}


def _backend_span(args, kwargs):
    backend = args[1] if len(args) > 1 else kwargs.get("backend", "sqlite")
    return f"backends.open.{backend}"


TARGETS = (
    # Search.
    Target("repro.discovery.csg", "find_target_csgs", "csg.target"),
    Target("repro.discovery.csg", "find_source_functional_csgs", "csg.source"),
    Target("repro.discovery.csg", "extend_partial_trees", "csg.source"),
    Target("repro.discovery.csg", "extend_with_lossy_paths", "csg.lossy"),
    Target("repro.discovery.csg", "find_source_lossy_csgs", "csg.lossy"),
    Target(
        "repro.discovery.steiner",
        "minimal_functional_trees",
        "steiner.functional",
    ),
    Target("repro.discovery.steiner", "minimally_lossy_paths", "steiner.lossy"),
    # Rewrite.
    Target(
        "repro.queries.rewrite",
        "rewrite_query",
        "rewrite",
        observe=lambda t, a, k, result, b: {"out": len(result)},
    ),
    Target(
        "repro.queries.normalize",
        "chase_with_keys",
        "normalize.key_chase",
        observe=lambda t, a, k, result, b: {"dropped": result is None},
    ),
    Target("repro.queries.homomorphism", "minimize", "homomorphism.minimize"),
    Target(
        "repro.queries.homomorphism",
        "keep_maximal",
        "homomorphism.keep_maximal",
        observe=lambda t, a, k, result, b: {
            "in": len(a[0]),
            "kept": len(result),
        },
    ),
    # Translate and the rest of discovery.
    Target("repro.discovery.translate", "translate_csg", "translate"),
    Target("repro.discovery.translate", "csg_to_cm_query", "translate"),
    Target(
        "repro.semantics.lav",
        "SchemaSemantics.views",
        "lav.views",
        before=_views_built,
        observe=lambda t, a, k, result, built: {"builds": built},
    ),
    Target(
        "repro.discovery.compatibility",
        "compatibility_violation",
        "compatibility",
        observe=lambda t, a, k, result, b: {"rejected": result is not None},
    ),
    Target("repro.correspondences", "CorrespondenceSet.lift", "correspondences.lift"),
    Target("repro.mappings.expression", "deduplicate_candidates", "expression.rank"),
    Target("repro.mappings.expression", "trim_redundant_joins", "expression.rank"),
    Target(
        "repro.discovery.mapper", "SemanticMapper.discover", "engine", observe=_stats
    ),
    # Service.
    Target(
        "repro.service.server",
        "MappingService.handle_discover",
        OP_HTTP,
        observe=_http_outcome,
        op_root=True,
    ),
    Target("repro.service.wire", "discover_request_from_wire", "wire.parse"),
    Target("repro.validation", "validate_scenario", "validation"),
    Target("repro.discovery.fingerprint", "scenario_fingerprint", "fingerprint"),
    Target(
        "repro.service.cache",
        "ResultCache.get",
        "cache.get",
        observe=lambda t, a, k, result, b: {"hit": result is not None},
    ),
    Target("repro.service.cache", "ResultCache.put", "cache.put"),
    Target("repro.service.wire", "result_to_wire", "wire.serialize"),
    Target("repro.service.jobs", "Job.__init__", "jobs.job", observe=_job_created),
    Target(
        "repro.service.jobs",
        "Job.mark_running",
        "jobs.start",
        before=_job_starting,
        observe=_queue_wait,
    ),
    Target("repro.discovery.batch", "discover_many", "jobs.discover"),
    # Ingest.
    Target("repro.ingest.backends", "backend_for", _backend_span),
    Target(
        "repro.ingest.introspect",
        "introspect_backend",
        "introspect",
        observe=lambda t, a, k, result, b: {"diagnostics": len(result.diagnostics)},
    ),
    Target("repro.ingest.recover", "recover_introspected", "recover"),
    Target("repro.ingest.scenario", "sample_instance_from_backend", "sample"),
    Target("repro.ingest.correspond", "seed_correspondences", "correspond.seed"),
)


def install(tracer) -> None:
    """Wrap every target; the job-to-op map lives on the tracer."""
    tracer.job_ops = {}
    tracer.install(TARGETS)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = [
        ("csg.target.self_ms", "ms"),
        ("csg.source.self_ms", "ms"),
        ("csg.lossy.self_ms", "ms"),
        ("steiner.functional.self_ms", "ms"),
        ("steiner.functional.calls", "count"),
        ("steiner.lossy.self_ms", "ms"),
        ("steiner.lossy.calls", "count"),
        ("rewrite.self_ms", "ms"),
        ("rewrite.calls", "count"),
        ("rewrite.out", "count"),
        ("normalize.key_chase.self_ms", "ms"),
        ("normalize.key_chase.calls", "count"),
        ("normalize.key_chase.dropped", "count"),
        ("homomorphism.minimize.self_ms", "ms"),
        ("homomorphism.minimize.calls", "count"),
        ("homomorphism.keep_maximal.self_ms", "ms"),
        ("homomorphism.keep_maximal.in", "count"),
        ("homomorphism.keep_maximal.kept", "count"),
        ("translate.self_ms", "ms"),
        ("translate.calls", "count"),
        ("lav.views.self_ms", "ms"),
        ("lav.views.builds", "count"),
        ("compatibility.self_ms", "ms"),
        ("compatibility.calls", "count"),
        ("compatibility.rejected", "count"),
        ("correspondences.lift.self_ms", "ms"),
        ("expression.rank.self_ms", "ms"),
        ("engine.unattributed_ms", "ms"),
    ]
    names += [(f"stats.{name}", "count") for name in STATS]
    for layer in SERVICE_LAYERS:
        names += [(f"{layer}.self_ms.{cls}", "ms") for cls in SERVICE_CLASSES]
    names.append(("cache.hit_ratio", "ratio"))
    for metric in ("http.other_ms", "jobs.queue_wait_ms", "jobs.discover_ms"):
        names += [(f"{metric}.{cls}", "ms") for cls in SERVICE_CLASSES]
    names += [
        ("service.discovery_invocations", "count"),
        ("service.cache_hits", "count"),
        ("service.cache_misses", "count"),
        ("service.rejected_429", "count"),
        ("startup.interpreter_ms", "ms"),
        ("startup.import_ms", "ms"),
    ]
    names += [(f"startup.import.{pkg}_ms", "ms") for pkg in IMPORT_PACKAGES]
    names += [(f"{layer}.self_ms", "ms") for layer in INGEST_LAYERS]
    names += [
        ("ingest.diagnostics", "count"),
        ("cli.other_ms", "ms"),
        ("trace.overhead_ms", "ms"),
    ]
    return names


def _totals(records, ops):
    """``span name -> [self seconds, calls, attribute sums, wall seconds]``."""
    totals = defaultdict(lambda: [0.0, 0, Counter(), 0.0])
    for name, start, end, _parent, op, self_seconds, attrs in records:
        if op not in ops:
            continue
        entry = totals[name]
        entry[0] += self_seconds
        entry[1] += 1
        entry[3] += end - start
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    entry[2][key] += value
    return totals


def op_classes(records) -> dict[int, str]:
    """``op id -> class`` from the op-root spans.

    Discovery ops are ``all``; CLI ops carry their command kind; HTTP
    ops are ``hit`` or ``miss`` by whether the response was cached.
    """
    classes = {}
    for name, _start, _end, parent, op, _self, attrs in records:
        if parent != -1:
            continue
        if name == OP_HTTP:
            classes[op] = "hit" if attrs and attrs.get("cached") else "miss"
        elif name in (OP_DISCOVER, OP_CLI):
            classes[op] = (attrs or {}).get("kind", "all")
    return classes


def layer_metrics(records, extra: dict | None = None) -> dict[str, float]:
    """Per-layer metrics, each a mean per operation (see module docs).

    ``extra`` supplies what spans cannot: measured startup times, scraped
    service counters, client-side latencies per class
    (``client_ms.<class>``) and the tracing overhead.
    """
    extra = dict(extra or {})
    classes = op_classes(records)
    metrics = {name: 0.0 for name, _unit in per_layer_names()}
    if classes:
        ops = set(classes)
        count = len(ops)
        totals = _totals(records, ops)

        def ms(name):
            return 1000.0 * totals[name][0] / count if name in totals else 0.0

        def calls(name):
            return totals[name][1] / count if name in totals else 0.0

        def attr(name, key):
            return totals[name][2][key] / count if name in totals else 0.0

        for layer in SEARCH_LAYERS + REWRITE_FAMILY + OTHER_DISCOVERY_LAYERS:
            metrics[f"{layer}.self_ms"] = ms(layer)
        for layer in ("steiner.functional", "steiner.lossy"):
            metrics[f"{layer}.self_ms"] = ms(layer)
            metrics[f"{layer}.calls"] = calls(layer)
        for layer in ("rewrite", "normalize.key_chase", "homomorphism.minimize",
                      "translate", "compatibility"):
            metrics[f"{layer}.calls"] = calls(layer)
        metrics["rewrite.out"] = attr("rewrite", "out")
        metrics["normalize.key_chase.dropped"] = attr("normalize.key_chase", "dropped")
        metrics["homomorphism.keep_maximal.in"] = attr("homomorphism.keep_maximal", "in")
        metrics["homomorphism.keep_maximal.kept"] = attr(
            "homomorphism.keep_maximal", "kept"
        )
        metrics["lav.views.builds"] = attr("lav.views", "builds")
        metrics["compatibility.rejected"] = attr("compatibility", "rejected")
        # Discovery wall time not inside a named layer: the engine's own
        # self time plus, for in-process discovery ops, the op root's.
        metrics["engine.unattributed_ms"] = ms("engine") + ms(OP_DISCOVER)
        for name in STATS:
            metrics[f"stats.{name}"] = attr("engine", name)
        for layer in INGEST_LAYERS:
            metrics[f"{layer}.self_ms"] = ms(layer)
        metrics["ingest.diagnostics"] = attr("introspect", "diagnostics")
        metrics["cli.other_ms"] = ms(OP_CLI)
        gets = totals["cache.get"][1] if "cache.get" in totals else 0
        if gets:
            metrics["cache.hit_ratio"] = totals["cache.get"][2]["hit"] / gets
        for cls in SERVICE_CLASSES:
            cls_ops = {op for op, kind in classes.items() if kind == cls}
            if not cls_ops:
                continue
            cls_totals = _totals(records, cls_ops)
            n = len(cls_ops)
            for layer in SERVICE_LAYERS:
                if layer in cls_totals:
                    metrics[f"{layer}.self_ms.{cls}"] = (
                        1000.0 * cls_totals[layer][0] / n
                    )
            if "jobs.start" in cls_totals:
                metrics[f"jobs.queue_wait_ms.{cls}"] = (
                    1000.0 * cls_totals["jobs.start"][2]["queue_wait"] / n
                )
            if "jobs.discover" in cls_totals:
                metrics[f"jobs.discover_ms.{cls}"] = (
                    1000.0 * cls_totals["jobs.discover"][3] / n
                )
            client = extra.pop(f"client_ms.{cls}", None)
            if client is not None and OP_HTTP in cls_totals:
                metrics[f"http.other_ms.{cls}"] = (
                    client - 1000.0 * cls_totals[OP_HTTP][3] / n
                )
    for name, value in extra.items():
        if name in metrics:
            metrics[name] = value
    return metrics


def family_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Shares of discovery time taken by the rewrite and search families."""
    discovery = sum(
        metrics[f"{layer}.self_ms"]
        for layer in SEARCH_FAMILY + REWRITE_FAMILY + OTHER_DISCOVERY_LAYERS
    ) + metrics["engine.unattributed_ms"]
    if not discovery:
        return {"rewrite": 0.0, "search": 0.0}
    return {
        "rewrite": sum(metrics[f"{l}.self_ms"] for l in REWRITE_FAMILY) / discovery,
        "search": sum(metrics[f"{l}.self_ms"] for l in SEARCH_FAMILY) / discovery,
    }
