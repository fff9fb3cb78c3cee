"""Run ``python -m repro serve ...`` with the layer wrappers installed.

Usage::

    python3 perfbench/serve_boot.py SPANS.json serve --workers 2 --port 0

The traced ``service-mixed`` run starts the server through this script
instead of ``python -m repro``, so the server keeps its process layout
while every listed function records spans. SIGINT or SIGTERM stops the
server; the spans are then written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import signal
import sys

import layers
from tracer import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    signal.signal(signal.SIGTERM, _interrupt)
    import repro.__main__ as cli

    tracer = Tracer()
    layers.install(tracer)
    try:
        return cli.main(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.records(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
