"""A fixed reference computation that gauges how fast the host runs.

The benchmark runs on virtual CPUs of a shared host.  When the host's
other guests are busy, the same code takes more CPU time: in one noisy
stretch a round's CPU time per table swung by a fifth either way between
rounds of identical code, with no steal accounted (README.md, "Why CPU
time, scaled by a reference").  So the process that measures also runs
``reference_chunk`` interleaved with the work it measures (between batches
in the bulk process, every few milliseconds in the load generator), and
the figures are scaled by ``REFERENCE_MS[where] / its mean chunk time``.
They then read as CPU time on a host where a chunk takes
``REFERENCE_MS[where]``.  The chunk mixes what the annotation stack spends
its time on with a model this small: short Python string and dict work,
small float32 matrix products, JSON.  It is benchmark code, so a change to
the program does not move it.
"""

from __future__ import annotations

import json

import numpy as np

# Mean CPU ms of one chunk on a quiet host (an AMD EPYC guest), in each
# process that runs it: the bulk process between batches, the load
# generator while it keeps the server saturated (where the chunk shares
# its caches with the generator's own work).  Chosen so that scaled
# figures read close to the CPU ms measured there when the host is quiet.
REFERENCE_MS = {"bulk": 0.06, "loadgen": 0.09}

_WEIGHTS = np.random.default_rng(0).standard_normal((32, 96)).astype(np.float32)
_CELLS = [f"cell {i % 211} value {i % 17}" for i in range(60)]


def reference_chunk() -> str:
    """One chunk of the reference computation (about 0.05-0.1 ms)."""
    counts: dict = {}
    for text in _CELLS:
        for word in text.split():
            counts[word] = counts.get(word, 0) + 1
    x = np.full((8, 32), 0.01, dtype=np.float32)
    for _ in range(8):
        h = x @ _WEIGHTS
        x = np.tanh(h[:, :32] + h[:, 32:64] * h[:, 64:])
    return json.dumps({"words": sorted(counts)[:20], "sum": float(x.sum())})


def host_factor(where: str, chunk_ms: float) -> float:
    """Scale factor for CPU figures measured alongside chunks that took
    ``chunk_ms`` on average in process ``where`` ("bulk" or "loadgen")."""
    return REFERENCE_MS[where] / chunk_ms
