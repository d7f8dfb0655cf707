"""``repro serve`` with the benchmark's spans installed, for the traced run.

    python perfbench/traced_serve.py TRACE.json serve MODEL --listen ...

Runs the ``repro`` command line in this process after wrapping each layer
(:mod:`spans`), then writes every snapshot the admin stats op took, and a
final one, to ``TRACE.json``.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer, install


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    status = repro_main(argv)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"snapshots": tracer.snapshots, "end": tracer.snapshot()}, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
