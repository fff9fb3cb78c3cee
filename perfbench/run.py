"""The repository benchmark: one seeded command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each workload runs in a fresh child process (``workloads.py``) with the
program imported from ``src/``, ``REPRO_CACHE_DIR`` removed and no cache
directory, so every run starts cold. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the workload twice, untraced and
then with the layer wrappers installed, for the per-layer metrics and
the tracing overhead. Human-readable lines go to standard error; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full report, with the host
it ran on, is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("paper-cold", "wide-catalog", "service-mixed", "cli-ingest")
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def host(seed: int) -> dict:
    """Where and on what code the run happened."""

    def git(*argv):
        try:
            return subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None

    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode())
        sources.update(path.read_bytes())
    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": sources.hexdigest(),
        "seed": seed,
    }


def child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh process and return its result."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f".child-{os.getpid()}-{workload}-{int(trace)}.json"
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    process = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise SystemExit(f"{workload}: timed out after {CHILD_TIMEOUT_S}s")
    if code != 0 or not out.exists():
        raise SystemExit(f"{workload}: child exited with {code}")
    try:
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        out.unlink()


def traced(workload: str, seed: int, seconds: float) -> dict:
    """Untraced then traced run of the same operations; compare outputs."""
    plain = child(workload, seed, seconds / 2, trace=False)
    result = child(workload, seed, seconds / 2, trace=True)
    common = min(len(plain["ops"]), len(result["ops"]))
    for mine, theirs in zip(result["ops"][:common], plain["ops"][:common]):
        if mine[:2] != theirs[:2]:
            result["failures"].append(f"traced output differs: {mine[0]}")
            mine[3] = False
    result["failed"] = sum(1 for op in result["ops"] if not op[3])
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    layer = result["per_layer"]

    def mean(ops):
        return sum(op[2] for op in ops) / len(ops) if ops else 0.0

    if workload == "cli-ingest":
        # The traced commands replay in-process; so does their reference.
        reference = result["detail"].pop("untraced_replay_ms")
        traced_ms = mean(result["ops"][:len(reference)])
        layer["trace.overhead_ms"] = traced_ms - sum(reference) / len(reference)
    else:
        # The service compares its base-rate phase (ops "0:..."), whose
        # requests the two runs send alike; later phases depend on speed.
        same = [i for i in range(common) if workload != "service-mixed"
                or result["ops"][i][0].startswith("0:")]
        layer["trace.overhead_ms"] = (mean([result["ops"][i] for i in same])
                                      - mean([plain["ops"][i] for i in same]))
    result["detail"]["untraced"] = plain["e2e"]
    return result


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result = traced(workload, seed, seconds) if trace else child(
        workload, seed, seconds, trace=False)
    result["host"] = host(seed)
    result["seconds"] = seconds
    result.pop("ops")
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repo benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("no program to benchmark: src/repro is missing", file=sys.stderr)
        return 2
    config = spec()
    seconds = args.seconds or config["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in config[kind]}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = report(name, args.seed, seconds, bool(args.trace))
        values = result["per_layer"] if args.trace else result["e2e"]
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        for failure in result["failures"]:
            print(f"{name}: FAIL {failure}", file=sys.stderr)
        for metric, unit in units.items():
            print(f"{name:14} {metric:36} {values[metric]:14.4f} {unit}",
                  file=sys.stderr)
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": values[metric], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
