"""One bulk-annotation process, started fresh for each round.

It makes the public calls ``repro annotate MODEL corpus.jsonl`` makes:
``load_annotator``, then ``AnnotationEngine.annotate_stream`` over the
corpus file, then ``AnnotationResult.to_dict`` and one JSON line per table.
After a warm-up corpus it annotates the timed corpus until ``--seconds``
have passed (whole batches only) and prints one JSON line with its
timings: wall time, and the CPU time of this process over the timed phase
and over each batch of ``BATCH_SIZE`` tables.  The CPU clock leaves out
the time the host gave the virtual CPU to other guests (steal), which the
wall clock counts.  After each batch it runs one chunk of the reference
computation (``calibrate.py``), timed apart from the batches, so that the
parent can scale the figures by the host's speed over the same stretch.
The parent takes set-up time from its own start of this process to
``timed_start``.

    python perfbench/bulk.py --model BUNDLE --warmup W.jsonl \
        --corpus C.jsonl --seconds 3 --out answers.jsonl [--precision int8]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

BATCH_SIZE = 8  # the `repro annotate` default


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident memory (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--warmup", required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--precision", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    from calibrate import reference_chunk
    from repro import load_annotator
    from repro.io import iter_tables_jsonl
    from repro.serving import AnnotationEngine, AnnotationOptions, EngineConfig

    annotator = load_annotator(args.model)
    engine = AnnotationEngine(
        annotator.trainer,
        EngineConfig(batch_size=BATCH_SIZE, precision=args.precision),
    )
    options = AnnotationOptions(with_embeddings=False, top_k=3, score_threshold=None)

    def answer_line(result) -> str:
        return json.dumps(result.to_dict(with_embeddings=False)) + "\n"

    if tracer is not None:
        answer_line = tracer.wrap("request.line", answer_line)

    with open(args.out, "w", encoding="utf-8") as out:
        for result in engine.annotate_stream(iter_tables_jsonl(args.warmup), options):
            answer_line(result)
        stats_start = dataclasses.asdict(engine.stats)
        trace_start = tracer.snapshot() if tracer is not None else None
        batch_cpu_ms = []
        reference_s = 0.0
        count = 0
        timed_start = time.monotonic()
        cpu_start = time.process_time()
        deadline = timed_start + args.seconds
        batch_cpu_start = cpu_start
        for result in engine.annotate_stream(iter_tables_jsonl(args.corpus), options):
            out.write(answer_line(result))
            count += 1
            if count % BATCH_SIZE == 0:
                cpu_now = time.process_time()
                batch_cpu_ms.append((cpu_now - batch_cpu_start) * 1000.0)
                reference_chunk()
                batch_cpu_start = time.process_time()
                reference_s += batch_cpu_start - cpu_now
                if time.monotonic() >= deadline:
                    break
        out.flush()
        elapsed = time.monotonic() - timed_start
        cpu_s = time.process_time() - cpu_start - reference_s

    print(json.dumps({
        "timed_start": timed_start,
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "reference_ms": 1000.0 * reference_s / max(1, len(batch_cpu_ms)),
        "tables": count,
        "batch_cpu_ms": batch_cpu_ms,
        "peak_rss_mb": peak_rss_mb(),
        "stats_start": stats_start,
        "stats_end": dataclasses.asdict(engine.stats),
        "trace_start": trace_start,
        "trace_end": tracer.snapshot() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
