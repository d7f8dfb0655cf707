"""Benchmark of the DODUO annotation stack: three workloads, one command.

    python3 perfbench/run.py --workload annotate-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``annotate-cold`` -- distinct WikiTable-style tables through the public
  calls ``repro annotate corpus.jsonl`` makes, float32, no result cache.
* ``serve-open-loop`` -- ``repro serve --listen`` with a fresh result cache,
  driven over two connections: Poisson arrivals at a fixed rate, then a
  saturation phase with a bounded window.
* ``annotate-lake-int8`` -- a single-column model at ``precision="int8"``
  with the column cache, over tables drawn from a shared pool of columns.

Each run makes ``ROUNDS[workload]`` rounds; every round starts a fresh
program process and gives it fresh cache directories, and the run reports
medians over the rounds (latency percentiles over all of a run's samples).
Work is measured in CPU time of the annotating process, scaled by the
host's speed on a reference computation run alongside (``calibrate.py``).
The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every answer is
checked; a failed check, a crashed program process or a server that does
not start prints ``"correct": false`` and exits 1.  ``--smoke`` makes one
short round of each workload with smaller checks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from bulk import BATCH_SIZE, peak_rss_mb
from calibrate import host_factor

# One BLAS/OpenMP thread in this process and in every process it starts:
# with the library defaults, throughput on a 2-core host swung by a third
# between runs of identical code.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("annotate-cold", "serve-open-loop", "annotate-lake-int8")

# Rounds per run: each starts a fresh process, so set-up is measured that
# many times, and the run reports medians over them.  A fresh server's CPU
# time per table differed by up to a sixth from one process to the next
# (README.md), so serve takes the most rounds.
ROUNDS = {"annotate-cold": 8, "serve-open-loop": 10, "annotate-lake-int8": 8}
MODEL_SEED = 0
BULK_WARMUP_TABLES = 1000
# Timed corpora hold this many tables per second of a round, about five
# times the reference rates (README.md).  A faster program ends its rounds
# on the corpus instead of the clock: the rate is then measured over a
# shorter phase, never capped.
BULK_RATE_CAP = {"annotate-cold": 16000, "annotate-lake-int8": 32000}
LAKE_POOL_COLUMNS = 2400
REFERENCE_SAMPLE = 200
INT8_F1_TABLES = 2000

SERVE_CONNECTIONS = 2
SERVE_RATE = 150.0  # offered tables/s of the open-loop phase
SERVE_WINDOW = 32  # requests in flight during the saturation phase
# Share of a round's seconds in the saturation phase; the rest is open
# loop.  At --seconds 20 the open loop sends 10 x 105 = 1,050 requests per
# run, ten of them beyond their 99th percentile.
SERVE_SATURATION_SHARE = 0.65
# Saturation requests drawn per second of that phase, about three times the
# reference rate; as with BULK_RATE_CAP, running out ends the phase early.
SERVE_RATE_CAP = 6000
# Long enough that a fresh server has proved the kernel shapes the open
# loop meets (README.md, proof-sidecar fault).
SERVE_WARMUP_TABLES = 800
# Traffic mix of the timed serve requests.  The Zipf exponent is the upper
# end of the 0.64-0.83 that Breslau et al. measured on six web proxy traces
# ("Web Caching and Zipf-like Distributions", INFOCOM 1999).  The hot set
# size and the share of requests going to it are assumptions; README.md
# shows how the serve metrics move across a range of all three.
HOT_TABLES = 200
HOT_SHARE = 0.5
ZIPF_EXPONENT = 0.8

# Work is measured in CPU time of the annotating process, scaled by the
# host's speed on a reference computation run alongside it (calibrate.py),
# not in wall time: on a busy shared host, wall-clock rates of identical
# code spread by a quarter to a half between runs (README.md, "Why CPU
# time").  The CPU clock leaves out steal and run-queue waits; the scaling
# takes out the host running all code slower for a while.
END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_table": "ms",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# Timed phases end on the clock, so a layer's totals grow whenever any
# layer gets faster.  Every figure of a unit ending in "/table" is a total
# over the timed phase divided by the tables it annotated, so its better
# direction holds whatever the other layers do.
PER_LAYER = {
    "persistence.load_s": "s",
    "text.tokenize_s": "s/table",
    "text.tokenize_calls": "count/table",
    "serialization.segments_s": "s/table",
    "encoding.encode_s": "s/table",
    "encoding.segment_hits": "count/table",
    "encoding.segment_misses": "count/table",
    "encoding.batches": "count/table",
    "encoding.real_tokens": "count/table",
    "encoding.padded_tokens": "count/table",
    "inference.forward_s": "s/table",
    "inference.int8_forward_s": "s/table",
    "trainer.heads_s": "s/table",
    "engine.self_s": "s/table",
    "request.to_dict_s": "s/table",
    "colcache.hits": "count/table",
    "colcache.misses": "count/table",
    "diskcache.get_s": "s/table",
    "diskcache.put_s": "s/table",
    "diskcache.hits": "count/table",
    "diskcache.misses": "count/table",
    "proofs.sidecar_writes": "count",
    "proofs.sidecar_write_s": "s",
    "queue.wait_ms_p50": "ms",
    "queue.drain_size_mean": "count",
    "queue.dedup_hits": "count/table",
    "protocol.decode_s": "s/table",
    "protocol.encode_s": "s/table",
    "loadgen.late_ms_p99": "ms",
    "timed.tables": "count",
    # The tail is reported here, not among the end-to-end metrics: on
    # serve-open-loop it is set by proof-sidecar stalls and spread more
    # between runs than any end-to-end bound allows (README.md).
    "latency.p99_ms": "ms",
}


@dataclass
class Mix:
    """Traffic mix of the timed serve requests."""

    hot_share: float = HOT_SHARE
    hot_tables: int = HOT_TABLES
    zipf_exponent: float = ZIPF_EXPONENT


class Settings:
    """Sizes of one invocation (``--smoke`` shrinks them)."""

    def __init__(self, workload: str, seconds: float, smoke: bool, mix: Mix) -> None:
        self.rounds = 1 if smoke else ROUNDS[workload]
        self.round_seconds = seconds / self.rounds
        self.reference_sample = 20 if smoke else REFERENCE_SAMPLE
        self.int8_f1_tables = 200 if smoke else INT8_F1_TABLES
        self.mix = mix


class Tally:
    """Operations a workload attempted and those that failed: tables
    annotated in bulk timed phases, requests sent to the server.  A
    program process that crashes or does not start counts as one failed
    operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def cache_root() -> Path:
    """Where trained bundles and run directories live."""
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve() / "perfbench"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: List[float], share: float) -> float:
    """The ``share`` quantile, by the nearest-rank rule."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def filesystem_of(path: Path) -> str:
    """Type of the file system holding ``path`` (longest mount prefix)."""
    best, kind = "", "unknown"
    with open("/proc/self/mounts", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            mount = fields[1]
            if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------------
# Bulk workloads: annotate-cold and annotate-lake-int8
# ----------------------------------------------------------------------------


def run_bulk_round(bundle, warmup, corpus, out, settings, precision, trace) -> Dict:
    command = [
        sys.executable, str(HERE / "bulk.py"), "--model", str(bundle),
        "--warmup", str(warmup), "--corpus", str(corpus),
        "--seconds", repr(settings.round_seconds), "--out", str(out),
    ]
    if precision:
        command += ["--precision", precision]
    if trace:
        command.append("--trace")
    started = time.monotonic()
    proc = subprocess.run(
        command, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bulk process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["timed_start"] - started
    return result


def bulk_workload(name, seed, settings, root, run_dir, trace, tally):
    import inputs

    model = "wikitable" if name == "annotate-cold" else "viznet-scol"
    bundle = inputs.model_bundle(root, model, MODEL_SEED)
    exclude = inputs.training_fingerprints(model, MODEL_SEED)
    timed_count = math.ceil(settings.round_seconds * BULK_RATE_CAP[name])
    total = BULK_WARMUP_TABLES + timed_count
    if model == "wikitable":
        corpus = inputs.wikitable_corpus(total, 1000 + seed, MODEL_SEED, exclude, "t")
    else:
        corpus = inputs.lake_corpus(total, 2000 + seed, LAKE_POOL_COLUMNS, exclude, "t")
    warm = inputs.Corpus(*(part[:BULK_WARMUP_TABLES] for part in vars(corpus).values()))
    timed = inputs.Corpus(*(part[BULK_WARMUP_TABLES:] for part in vars(corpus).values()))
    inputs.write_corpus(warm, run_dir / "warmup.jsonl")
    inputs.write_corpus(timed, run_dir / "timed.jsonl")

    precision = "int8" if model == "viznet-scol" else None
    rounds, answers = [], []
    for r in range(settings.rounds):
        out = run_dir / f"answers-{r}.jsonl"
        try:
            rounds.append(run_bulk_round(
                bundle, run_dir / "warmup.jsonl", run_dir / "timed.jsonl", out,
                settings, precision, trace,
            ))
        except Exception:
            tally.attempted += 1
            tally.failed += 1
            raise
        with open(out, encoding="utf-8") as handle:
            answers.append(handle.readlines())
        tally.attempted += len(answers[-1])
        if rounds[-1]["tables"] == len(timed):
            log(f"round {r} ended on its corpus of {len(timed)} tables, not on the clock")

    for r in rounds:
        r["factor"] = host_factor("bulk", r["reference_ms"])
    log("rounds: " + "; ".join(
        f"setup {r['setup_s']:.3f} s, {r['tables'] / r['elapsed_s']:.1f} tables/s, "
        f"CPU {r['cpu_s'] / r['elapsed_s']:.1%} of wall, "
        f"{1000.0 * r['cpu_s'] / r['tables']:.4f} CPU ms/table, "
        f"reference chunk {r['reference_ms']:.4f} ms, host factor {r['factor']:.3f}" for r in rounds
    ))
    check_bulk(model, bundle, timed, rounds, answers, settings, seed)
    batch_ms = [value * r["factor"] for r in rounds for value in r["batch_cpu_ms"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "cpu_ms_per_table": statistics.median(
            1000.0 * r["cpu_s"] / r["tables"] * r["factor"] for r in rounds
        ),
        "latency_p50_ms": percentile(batch_ms, 0.50),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    log(f"batch CPU time p99 {percentile(batch_ms, 0.99):.3f} ms over {len(batch_ms)} batches")
    layers = [bulk_layers(r) for r in rounds] if trace else []
    for values in layers:
        values["latency.p99_ms"] = percentile(batch_ms, 0.99)
    return metrics, layers


def check_bulk(model, bundle, timed, rounds, answers, settings, seed) -> None:
    import numpy as np

    import checks
    from repro import load_annotator
    from repro.serving import AnnotationEngine, AnnotationOptions, EngineConfig

    for result, lines in zip(rounds, answers):
        if len(lines) != result["tables"]:
            raise checks.CheckFailed(
                f"{len(lines)} answer lines for {result['tables']} tables annotated"
            )
    longest = max(answers, key=len)
    for lines in answers:
        checks.check_identical("rounds agree", lines, longest[: len(lines)])
    records = [json.loads(line) for line in longest]
    checks.check_table_ids(records, [t.table_id for t in timed.tables])
    f1 = checks.type_f1(records, timed.gold_types)
    checks.check_floor("type micro-F1", f1, checks.TYPE_F1_FLOOR[model])
    log(f"checks: {len(records)} answers, type micro-F1 {f1:.4f}")
    if model == "wikitable":
        rel = checks.relation_f1(records, timed.gold_relations)
        checks.check_floor("relation micro-F1", rel, checks.RELATION_F1_FLOOR)
        log(f"checks: relation micro-F1 {rel:.4f}")

    options = AnnotationOptions(with_embeddings=False, top_k=3, score_threshold=None)
    rng = np.random.default_rng(seed)
    annotator = load_annotator(bundle)

    def line_of(result) -> str:
        return json.dumps(result.to_dict(with_embeddings=False)) + "\n"

    if model == "wikitable":
        # Float32 answers against the reference kernels, one table at a time.
        engine = AnnotationEngine(annotator.trainer, EngineConfig(batch_size=BATCH_SIZE, kernels="reference"))
        sample = sorted(rng.choice(len(longest), size=min(settings.reference_sample, len(longest)), replace=False))
        expected = [line_of(engine.annotate_batch([timed.tables[i]], options)[0]) for i in sample]
        checks.check_identical("reference kernels", [longest[i] for i in sample], expected)
        log(f"checks: {len(sample)} answers identical to the reference kernels")
        return

    for result in rounds:
        checks.check_no_fallbacks(result["stats_end"]["quant_fallbacks"])
    # Type F1 of int8 within INT8_F1_DRIFT of float32 on the same tables.
    count = min(settings.int8_f1_tables, len(records))
    float_engine = AnnotationEngine(annotator.trainer, EngineConfig(batch_size=BATCH_SIZE))
    float_records = [
        r.to_dict(with_embeddings=False)
        for r in float_engine.annotate_stream(timed.tables[:count], options)
    ]
    int8_f1 = checks.type_f1(records[:count], timed.gold_types)
    float_f1 = checks.type_f1(float_records, timed.gold_types)
    checks.check_int8_drift(int8_f1, float_f1)
    log(f"checks: int8 type F1 {int8_f1:.4f} vs float32 {float_f1:.4f} on {count} tables")
    # Column-cached answers against an engine without the column cache, on
    # the same batches (annotate_stream chunks the corpus by BATCH_SIZE).
    plain = AnnotationEngine(
        annotator.trainer,
        EngineConfig(batch_size=BATCH_SIZE, precision="int8", column_cache_size=0),
    )
    batches = len(longest) // BATCH_SIZE
    picks = sorted(rng.choice(batches, size=min(settings.reference_sample // BATCH_SIZE, batches), replace=False))
    got, expected = [], []
    for b in picks:
        chunk = slice(b * BATCH_SIZE, (b + 1) * BATCH_SIZE)
        got.extend(longest[chunk])
        expected.extend(line_of(r) for r in plain.annotate_batch(timed.tables[chunk], options))
    checks.check_identical("column cache off", got, expected)
    log(f"checks: {len(got)} answers identical without the column cache")


def span_delta(start, end, name, index) -> float:
    before = start["spans"].get(name, [0.0, 0.0, 0])[index] if start else 0.0
    return end["spans"].get(name, [0.0, 0.0, 0])[index] - before


def count_delta(start, end, name) -> int:
    return end["counts"].get(name, 0) - (start["counts"].get(name, 0) if start else 0)


def per_table(values: Dict[str, float]) -> Dict[str, float]:
    """Divide the totals of the "/table" metrics by ``timed.tables``."""
    tables = values["timed.tables"]
    return {
        key: value / tables if PER_LAYER[key].endswith("/table") else value
        for key, value in values.items()
    }


def layer_values(start, end, stats_start, stats_end) -> Dict[str, float]:
    """Per-layer totals of one round's timed phase from its trace snapshots
    and engine counters; load and proof-sidecar figures cover the whole
    process."""
    values = {
        "persistence.load_s": span_delta(None, end, "persistence.load", 0),
        "text.tokenize_s": span_delta(start, end, "text.tokenize", 0),
        "text.tokenize_calls": span_delta(start, end, "text.tokenize", 2),
        "serialization.segments_s": span_delta(start, end, "serialization.segments", 0),
        "encoding.encode_s": span_delta(start, end, "encoding.encode", 0),
        "inference.forward_s": span_delta(start, end, "inference.forward", 0),
        "inference.int8_forward_s": span_delta(start, end, "inference.int8_forward", 0),
        "trainer.heads_s": span_delta(start, end, "trainer.annotate_batch", 1),
        "engine.self_s": span_delta(start, end, "engine.annotate_batch", 1),
        "request.to_dict_s": span_delta(start, end, "request.to_dict", 0)
        + span_delta(start, end, "request.line", 1),
        "colcache.hits": count_delta(start, end, "colcache.hits"),
        "colcache.misses": count_delta(start, end, "colcache.misses"),
        "diskcache.get_s": span_delta(start, end, "diskcache.get", 0),
        "diskcache.put_s": span_delta(start, end, "diskcache.put", 0),
        "diskcache.hits": count_delta(start, end, "diskcache.hits"),
        "diskcache.misses": count_delta(start, end, "diskcache.misses"),
        "proofs.sidecar_writes": count_delta(None, end, "proofs.sidecar_writes"),
        "proofs.sidecar_write_s": span_delta(None, end, "proofs.sidecar_write", 0),
        "protocol.decode_s": span_delta(start, end, "protocol.decode", 0),
        "protocol.encode_s": span_delta(start, end, "protocol.encode", 0),
    }
    for key, stat in (
        ("encoding.segment_hits", "segment_hits"),
        ("encoding.segment_misses", "segment_misses"),
        ("encoding.batches", "batches"),
        ("encoding.real_tokens", "real_tokens"),
        ("encoding.padded_tokens", "padded_tokens"),
    ):
        values[key] = stats_end[stat] - stats_start[stat]
    waits = end["samples"].get("queue.wait_ms", [])[len(start["samples"].get("queue.wait_ms", [])):]
    values["queue.wait_ms_p50"] = statistics.median(waits) if waits else 0.0
    values["queue.drain_size_mean"] = 0.0
    values["queue.dedup_hits"] = 0
    values["loadgen.late_ms_p99"] = 0.0
    return values


def bulk_layers(result: Dict) -> Dict[str, float]:
    values = layer_values(
        result["trace_start"], result["trace_end"], result["stats_start"], result["stats_end"]
    )
    values["timed.tables"] = result["tables"]
    return per_table(values)


# ----------------------------------------------------------------------------
# serve-open-loop
# ----------------------------------------------------------------------------


def serve_traffic(seed, settings, exclude):
    """Corpus and traffic of one run: for each round, the warm-up,
    open-loop and saturation requests as table indices into the corpus,
    and the open-loop send offsets.

    A share ``mix.hot_share`` of a round's timed requests goes to a hot
    set of ``mix.hot_tables`` tables with Zipf popularity, the rest to
    tables never sent to that round's server before; the warm-up tables
    appear in neither.  Every round starts a fresh server, so the rounds
    share one corpus and each draws its own requests from it.
    """
    import numpy as np

    import inputs

    mix = settings.mix
    rng = np.random.default_rng(3000 + seed)
    saturation_seconds = settings.round_seconds * SERVE_SATURATION_SHARE
    n_open = round(SERVE_RATE * (settings.round_seconds - saturation_seconds))
    total = n_open + math.ceil(SERVE_RATE_CAP * saturation_seconds)
    popularity = 1.0 / np.arange(1, mix.hot_tables + 1) ** mix.zipf_exponent
    popularity /= popularity.sum()
    draws = [
        (rng.random(total) < mix.hot_share, rng.choice(mix.hot_tables, size=total, p=popularity))
        for _ in range(settings.rounds)
    ]
    first_fresh = SERVE_WARMUP_TABLES + mix.hot_tables
    n_fresh = max(int((~hot).sum()) for hot, _ in draws)
    corpus = inputs.wikitable_corpus(first_fresh + n_fresh, 4000 + seed, MODEL_SEED, exclude, "s")
    warm = list(range(SERVE_WARMUP_TABLES))
    traffic = []
    for hot, ranks in draws:
        fresh = np.zeros(total, dtype=np.int64)
        fresh[~hot] = first_fresh + rng.permutation(n_fresh)[: int((~hot).sum())]
        indices = np.where(hot, SERVE_WARMUP_TABLES + ranks, fresh).tolist()
        offsets = np.cumsum(rng.exponential(1.0 / SERVE_RATE, size=n_open)).tolist()
        traffic.append((warm, indices[:n_open], offsets, indices[n_open:]))
    return corpus, traffic


def cpu_seconds(pid: int) -> float:
    """CPU time a process and all its threads, live or ended, have used
    (``utime + stime`` of ``/proc/PID/stat``; steal left out)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def drive_server(pid, host, port, records, warm, open_loop, offsets, saturation, settings):
    from loadgen import LoadGenerator

    gen = await LoadGenerator.connect(host, port, SERVE_CONNECTIONS)
    ids = iter(range(10**9))

    def requests(indices):
        return [(next(ids), index) for index in indices]

    def encoded(pairs):
        return [
            (rid, (json.dumps({**records[index], "id": rid}) + "\n").encode("utf-8"))
            for rid, index in pairs
        ]

    warm_requests = requests(warm)
    await gen.closed_window(encoded(warm_requests), SERVE_WINDOW)
    warmed = time.monotonic()
    stats_start = await gen.admin_op("stats", "stats-start")
    open_requests = requests(open_loop)
    latencies, late = await gen.open_loop(encoded(open_requests), offsets)
    await gen.admin_op("stats", "stats-mid")
    saturation_requests = requests(saturation)
    encoded_saturation = encoded(saturation_requests)
    cpu_start = cpu_seconds(pid)
    answered, seconds, sent = await gen.saturate(
        encoded_saturation, SERVE_WINDOW, settings.round_seconds * SERVE_SATURATION_SHARE,
    )
    # saturate() returns once every request it sent has been answered.
    saturation_cpu_s = cpu_seconds(pid) - cpu_start
    stats_end = await gen.admin_op("stats", "stats-end")
    return gen, {
        "warmed": warmed,
        "sent": warm_requests + open_requests + saturation_requests[:sent],
        "exhausted": sent == len(saturation_requests),
        "saturation_answers": answered,
        "saturation_s": seconds,
        "saturation_sent": sent,
        "saturation_cpu_s": saturation_cpu_s,
        "reference_ms": statistics.mean(gen.reference_ms),
        "latencies": latencies,
        "late": late,
        "stats_start": stats_start,
        "stats_end": stats_end,
    }


async def finish(gen) -> None:
    await gen.admin_op("shutdown", "shutdown")
    await gen.close()


def run_serve_round(bundle, round_dir, records, traffic, settings, trace) -> Dict:
    cache_dir = round_dir / "cache"
    serve_args = ["serve", str(bundle), "--listen", "127.0.0.1:0", "--cache-dir", str(cache_dir)]
    trace_path = round_dir / "trace.json"
    if trace:
        command = [sys.executable, str(HERE / "traced_serve.py"), str(trace_path)] + serve_args
    else:
        command = [sys.executable, "-m", "repro.cli"] + serve_args
    started = time.monotonic()
    proc = subprocess.Popen(
        command, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stderr.readline()
        if not banner.startswith("listening on "):
            raise RuntimeError(f"server did not start: {banner}{proc.stderr.read()[-2000:]}")
        host, port = banner.split()[-1].rsplit(":", 1)

        async def session():
            gen, result = await drive_server(proc.pid, host, int(port), records, *traffic, settings)
            result["peak_rss_mb"] = peak_rss_mb(str(proc.pid))
            await finish(gen)
            result["answers"] = gen.lines
            return result

        result = asyncio.run(session())
        proc.wait(timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"server exited {proc.returncode}: {proc.stderr.read()[-2000:]}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    result["setup_s"] = result["warmed"] - started
    if trace:
        with open(trace_path, encoding="utf-8") as handle:
            result["trace"] = json.load(handle)
    return result


def serve_workload(seed, settings, root, run_dir, trace, tally):
    import checks
    import inputs
    from repro.io import table_to_dict

    bundle = inputs.model_bundle(root, "wikitable", MODEL_SEED)
    exclude = inputs.training_fingerprints("wikitable", MODEL_SEED)
    corpus, traffic = serve_traffic(seed, settings, exclude)
    records = [table_to_dict(table) for table in corpus.tables]
    rounds = []
    for r in range(settings.rounds):
        round_dir = run_dir / f"round-{r}"
        round_dir.mkdir()
        try:
            rounds.append(run_serve_round(bundle, round_dir, records, traffic[r], settings, trace))
        except Exception:
            tally.attempted += 1
            tally.failed += 1
            raise
        shutil.rmtree(round_dir / "cache", ignore_errors=True)
        rounds[-1]["answers"], rounds[-1]["error_answers"] = checks.split_errors(rounds[-1]["answers"])
        errors = len(rounds[-1]["error_answers"])
        tally.attempted += len(rounds[-1]["sent"])
        tally.failed += errors
        if errors:
            log(f"round {r}: {errors} requests answered with an error")
        if rounds[-1]["exhausted"]:
            log(f"round {r}: the saturation phase ended on its corpus of "
                f"{len(traffic[r][3])} requests, not on the clock")

    check_serve(bundle, corpus.tables, rounds)
    for r in rounds:
        r["factor"] = host_factor("loadgen", r["reference_ms"])
    latencies = [value for r in rounds for value in r["latencies"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "cpu_ms_per_table": statistics.median(
            1000.0 * r["saturation_cpu_s"] / r["saturation_sent"] * r["factor"] for r in rounds
        ),
        "latency_p50_ms": percentile(latencies, 0.50),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    log("rounds: " + "; ".join(
        f"setup {r['setup_s']:.3f} s, {r['saturation_answers'] / r['saturation_s']:.1f} tables/s, "
        f"server CPU {r['saturation_cpu_s'] / r['saturation_s']:.1%} of wall, "
        f"{1000.0 * r['saturation_cpu_s'] / r['saturation_sent']:.3f} CPU ms/table, "
        f"reference chunk {r['reference_ms']:.4f} ms, host factor {r['factor']:.3f}, "
        f"drain {drain_size(r):.2f}, "
        f"open-loop p99 {percentile(r['latencies'], 0.99):.1f} ms" for r in rounds
    ))
    hits = misses = dedup = 0
    for r in rounds:
        start, end = r["stats_start"]["gateway"], r["stats_end"]["gateway"]
        hits += end["disk_hits"] - start["disk_hits"]
        misses += end["disk_misses"] - start["disk_misses"]
        dedup += end["dedup_hits"] - start["dedup_hits"]
    log(f"timed phases: result cache answered {hits} of {hits + misses} lookups "
        f"({hits / max(1, hits + misses):.1%}), queue dedup {dedup}")
    late = [value for r in rounds for value in r["late"]]
    log(
        f"open loop: {len(latencies)} requests at {SERVE_RATE:g}/s, "
        f"p99 {percentile(latencies, 0.99):.1f} ms with "
        f"{len(latencies) - math.ceil(0.99 * len(latencies))} beyond it; "
        f"generator late by p50 {percentile(late, 0.5):.3f} ms, p99 {percentile(late, 0.99):.3f} ms, "
        f"max {max(late):.3f} ms"
    )
    layers = []
    if trace:
        for r in rounds:
            snapshots = r["trace"]["snapshots"]
            values = layer_values(
                snapshots[0], snapshots[-1],
                _engine_stats(r["stats_start"]), _engine_stats(r["stats_end"]),
            )
            values["persistence.load_s"] = span_delta(None, r["trace"]["end"], "persistence.load", 0)
            values["proofs.sidecar_writes"] = count_delta(None, r["trace"]["end"], "proofs.sidecar_writes")
            values["proofs.sidecar_write_s"] = span_delta(None, r["trace"]["end"], "proofs.sidecar_write", 0)
            start, end = r["stats_start"]["gateway"], r["stats_end"]["gateway"]
            values["queue.drain_size_mean"] = drain_size(r)
            values["queue.dedup_hits"] = end["dedup_hits"] - start["dedup_hits"]
            values["timed.tables"] = end["completed"] - start["completed"]
            values["latency.p99_ms"] = percentile(latencies, 0.99)
            values["loadgen.late_ms_p99"] = percentile(r["late"], 0.99)
            layers.append(per_table(values))
            writes = [count_delta(None, snap, "proofs.sidecar_writes") for snap in snapshots]
            log(f"proof sidecar writes by timed start {writes[0]}, after open loop {writes[1]}, "
                f"after saturation {writes[2]}, "
                f"in all {values['proofs.sidecar_writes']} taking {values['proofs.sidecar_write_s']:.3f} s")
    return metrics, layers


def drain_size(result: Dict) -> float:
    """Mean requests per engine batch over a round's timed phases."""
    start, end = result["stats_start"]["gateway"], result["stats_end"]["gateway"]
    batches = end["batches"] - start["batches"]
    return (end["completed"] - start["completed"]) / batches if batches else 0.0


def _engine_stats(answer: Dict) -> Dict:
    engines = answer["gateway"]["engines"]
    if len(engines) != 1:
        raise RuntimeError(f"expected one engine in the stats answer, got {sorted(engines)}")
    return next(iter(engines.values()))


def check_serve(bundle, tables, rounds) -> None:
    """Every answer that is not an error answer against in-process
    ``AnnotationEngine.annotate`` of the same table; error answers were
    counted as failed operations."""
    import checks
    from repro import load_annotator
    from repro.serving import AnnotationEngine, AnnotationOptions, AnnotationRequest, EngineConfig, protocol

    annotator = load_annotator(bundle)
    engine = AnnotationEngine(annotator.trainer, EngineConfig(batch_size=BATCH_SIZE))
    options = AnnotationOptions(with_embeddings=False, top_k=3, score_threshold=None)
    results = {}
    checked = 0
    for r in rounds:
        sent = dict(r["sent"])
        checks.check_one_answer_each(list(sent), r["answers"] + r["error_answers"])
        got, expected = [], []
        for line in r["answers"]:
            rid = json.loads(line)["id"]
            table = tables[sent[rid]]
            if table.table_id not in results:
                results[table.table_id] = engine.annotate(AnnotationRequest(table, options))
            got.append(line)
            expected.append(protocol.encode_line(
                protocol.encode_result(results[table.table_id], record_id=rid)
            ))
        checks.check_identical("socket vs in-process", got, expected)
        checked += len(got)
    log(f"checks: {checked} socket answers identical to in-process annotate ({len(results)} tables)")


# ----------------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------------


def run_workload(name, seed, settings, root, trace, tally):
    run_dir = root / "runs" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log(f"{name}: run directory on {filesystem_of(run_dir)}")
    try:
        if name == "serve-open-loop":
            return serve_workload(seed, settings, root, run_dir, trace, tally)
        return bulk_workload(name, seed, settings, root, run_dir, trace, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the DODUO annotation stack.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short round per workload")
    mix = parser.add_argument_group("serve traffic mix (to measure its effect; README.md)")
    mix.add_argument("--hot-share", type=float, default=HOT_SHARE)
    mix.add_argument("--hot-tables", type=int, default=HOT_TABLES)
    mix.add_argument("--zipf-exponent", type=float, default=ZIPF_EXPONENT)
    args = parser.parse_args()
    if not 0.0 <= args.hot_share <= 1.0 or args.hot_tables < 1:
        parser.error("--hot-share must be in [0, 1] and --hot-tables at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"error: no repro package under {SRC}")
        return 2
    sys.path[:0] = [str(SRC)]

    mix = Mix(args.hot_share, args.hot_tables, args.zipf_exponent)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        settings = Settings(name, args.seconds, args.smoke, mix)
        tally = Tally()
        try:
            metrics, layers = run_workload(name, args.seed, settings, cache_root(), args.trace, tally)
        except Exception:  # noqa: BLE001 - reported as an incorrect run
            log(f"{name}: FAILED\n{traceback.format_exc()}")
            print(json.dumps({
                "correct": False, "attempted": max(1, tally.attempted),
                "failed": tally.failed, "metrics": {},
            }), flush=True)
            status = 1
            continue
        log(f"{name}: " + ", ".join(f"{k} {v:.6g}" for k, v in metrics.items()))
        if args.trace:
            values = {
                key: {"value": statistics.median(layer[key] for layer in layers), "unit": unit}
                for key, unit in PER_LAYER.items()
            }
        else:
            values = {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END.items()}
        print(json.dumps({
            "correct": True, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": values,
        }), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
