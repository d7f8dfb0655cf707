"""Per-layer spans and counters for the traced run.

:func:`install` wraps the public call into each layer of the stack, so the
spans come from the benchmark's own code and the program runs unchanged.
Each wrapped call is a span; a span's self time is its duration minus the
time of the traced spans it caused on the same thread.  Spans are summed
per name in memory (a run makes hundreds of thousands) and written out when
the process ends.  Queue wait is kept as samples, to report its median.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from typing import Callable, Dict, List


class Tracer:
    """Named span totals, counters and samples, safe across threads."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [seconds, self seconds, calls]
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.snapshots: List[Dict] = []

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time of this span's traced children
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += seconds
                self.add_span(name, seconds, seconds - children)

        return traced

    def add_span(self, name: str, seconds: float, self_seconds: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0.0, 0.0, 0])
            entry[0] += seconds
            entry[1] += self_seconds
            entry[2] += 1

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def snapshot(self) -> Dict:
        """A copy of everything recorded so far."""
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counts": dict(self.counts),
                "samples": {name: list(values) for name, values in self.samples.items()},
            }


def _replace_function(module_name: str, attr: str, wrapper_for: Callable) -> None:
    """Wrap a module-level function everywhere it is bound in ``repro``."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, attr, None
        ) is original:
            setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public call into each layer with a span or a counter."""
    from repro.core.inference import InferenceSession, QuantizedInferenceSession
    from repro.core.serialization import TableSerializer
    from repro.core.trainer import DoduoTrainer
    from repro.encoding import EncodingPipeline
    from repro.serving import AnnotationEngine, AnnotationResult
    from repro.serving.colcache import ColumnCache
    from repro.serving.diskcache import DiskCache
    from repro.serving.queue import EngineWorker
    from repro.text import WordPieceTokenizer

    def method(cls, attr, name):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))

    method(WordPieceTokenizer, "encode", "text.tokenize")
    method(TableSerializer, "column_segments", "serialization.segments")
    method(EncodingPipeline, "encode_cached", "encoding.encode")
    method(DoduoTrainer, "annotate_batch", "trainer.annotate_batch")
    method(AnnotationResult, "to_dict", "request.to_dict")
    method(DiskCache, "put", "diskcache.put")
    method(QuantizedInferenceSession, "encode_batch", "inference.int8_forward")

    # The int8 session's own forward runs through the float32 method via
    # super(); only a float32 session's calls are float32 forwards.
    float_forward = InferenceSession.encode_batch
    traced_float = tracer.wrap("inference.forward", float_forward)

    def encode_batch(self, *args, **kwargs):
        if type(self) is InferenceSession:
            return traced_float(self, *args, **kwargs)
        return float_forward(self, *args, **kwargs)

    InferenceSession.encode_batch = encode_batch

    disk_get = tracer.wrap("diskcache.get", DiskCache.get)

    def get(self, key):
        payload = disk_get(self, key)
        tracer.count("diskcache.hits" if payload is not None else "diskcache.misses")
        return payload

    DiskCache.get = get

    lookup = ColumnCache.lookup

    def counted_lookup(self, fingerprint, width):
        state = lookup(self, fingerprint, width)
        tracer.count("colcache.hits" if state is not None else "colcache.misses")
        return state

    ColumnCache.lookup = counted_lookup

    # Queue wait: stamped when a request enters its model's worker, read
    # when the engine call that serves it starts.
    submitted: Dict[int, float] = {}
    submit = EngineWorker.submit

    def stamped_submit(self, item, *args, **kwargs):
        submitted[id(item)] = time.perf_counter()
        return submit(self, item, *args, **kwargs)

    EngineWorker.submit = stamped_submit
    engine_batch = tracer.wrap("engine.annotate_batch", AnnotationEngine.annotate_batch)

    def annotate_batch(self, items, *args, **kwargs):
        now = time.perf_counter()
        for item in items:
            stamp = submitted.pop(id(item), None)
            if stamp is not None:
                tracer.sample("queue.wait_ms", (now - stamp) * 1000.0)
        return engine_batch(self, items, *args, **kwargs)

    AnnotationEngine.annotate_batch = annotate_batch

    # Proof sidecar: a write is a call after which the file is a new one.
    persist = tracer.wrap("proofs.persist", AnnotationEngine._persist_proofs)

    def persist_proofs(self):
        path = self._proofs_path()
        before = _file_identity(path)
        start = time.perf_counter()
        persist(self)
        seconds = time.perf_counter() - start
        if path is not None and _file_identity(path) != before:
            tracer.count("proofs.sidecar_writes")
            tracer.add_span("proofs.sidecar_write", seconds, seconds)

    AnnotationEngine._persist_proofs = persist_proofs

    _replace_function(
        "repro.core.persistence", "load_annotator",
        lambda fn: tracer.wrap("persistence.load", fn),
    )
    _replace_function(
        "repro.serving.protocol", "decode_record",
        lambda fn: tracer.wrap("protocol.decode", fn),
    )
    for attr in ("encode_result", "encode_line"):
        _replace_function(
            "repro.serving.protocol", attr,
            lambda fn: tracer.wrap("protocol.encode", fn),
        )

    # The admin stats op marks the phases of a served run: the tracer takes
    # a snapshot each time one is answered.
    def snapshot_on_stats(fn):
        @functools.wraps(fn)
        def handle(record, gateway):
            if record.op == "stats":
                tracer.snapshots.append(tracer.snapshot())
            return fn(record, gateway)

        return handle

    _replace_function("repro.serving.protocol", "handle_admin", snapshot_on_stats)


def _file_identity(path):
    if path is None:
        return None
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)
