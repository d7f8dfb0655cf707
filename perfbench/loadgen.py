"""Asyncio load generator of the serve-open-loop workload.

It speaks the newline-delimited JSON protocol of ``repro serve --listen``
over a few connections.  Table requests carry integer ids and admin
requests string ids, so every answer line is filed by the id it echoes.
Request lines are encoded before a phase starts, so sending costs the
generator as little as possible.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Sequence, Tuple

from calibrate import reference_chunk

REFERENCE_EVERY_S = 0.002


class LoadGenerator:
    """Requests out over ``connections``, answers in, each answer timed."""

    def __init__(self, connections: Sequence[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]):
        self.connections = list(connections)
        self.lines: List[str] = []  # every table answer, as received
        self.admin: Dict[str, Dict] = {}
        self._waiting: Dict[object, asyncio.Future] = {}
        self._next = 0
        self.reference_ms: List[float] = []  # chunk times of the last saturate()
        self._readers = [
            asyncio.ensure_future(self._read(reader)) for reader, _ in self.connections
        ]

    @classmethod
    async def connect(cls, host: str, port: int, count: int) -> "LoadGenerator":
        connections = [await asyncio.open_connection(host, port) for _ in range(count)]
        return cls(connections)

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = time.monotonic()
            text = line.decode("utf-8")
            rid = json.loads(text).get("id")
            if isinstance(rid, str):
                self.admin[rid] = json.loads(text)
            else:
                self.lines.append(text)
            waiter = self._waiting.pop(rid, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(received)

    def send(self, rid: object, line: bytes) -> "asyncio.Future":
        """Send one encoded request line; the future resolves to the
        monotonic time its answer arrived.  Connections take turns."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiting[rid] = waiter
        _, writer = self.connections[self._next % len(self.connections)]
        self._next += 1
        writer.write(line)
        return waiter

    async def admin_op(self, op: str, rid: str) -> Dict:
        """One admin operation on the first connection; returns its answer."""
        self._next = 0
        await self.send(rid, (json.dumps({"op": op, "id": rid}) + "\n").encode("utf-8"))
        return self.admin[rid]

    async def closed_window(self, requests: Sequence[Tuple[int, bytes]], window: int) -> None:
        """Send every request, never more than ``window`` unanswered."""
        slots = asyncio.Semaphore(window)
        waiters = []
        for rid, line in requests:
            await slots.acquire()
            waiter = self.send(rid, line)
            waiter.add_done_callback(lambda _: slots.release())
            waiters.append(waiter)
        await asyncio.gather(*waiters)

    async def saturate(
        self, requests: Sequence[Tuple[int, bytes]], window: int, seconds: float
    ) -> Tuple[int, float, int]:
        """Keep ``window`` requests in flight for ``seconds``.  Returns the
        answers that arrived in that time, the seconds from the start to
        the last of them, and the requests sent.  Requests still in flight
        at the end are awaited but not counted.  If ``requests`` run out
        first, the phase ends with them: the rate is then taken over a
        shorter time, and is never capped by their number.

        Meanwhile a chunk of the reference computation runs every
        ``REFERENCE_EVERY_S`` (``calibrate.py``); its CPU times are left in
        ``reference_ms``."""
        slots = asyncio.Semaphore(window)
        waiters = []
        stop = asyncio.Event()
        gauge = asyncio.ensure_future(self._gauge(stop))
        start = time.monotonic()
        deadline = start + seconds
        for rid, line in requests:
            await slots.acquire()
            if time.monotonic() >= deadline:
                slots.release()
                break
            waiter = self.send(rid, line)
            waiter.add_done_callback(lambda _: slots.release())
            waiters.append(waiter)
        in_time = [received for received in await asyncio.gather(*waiters) if received <= deadline]
        stop.set()
        await gauge
        return len(in_time), max(in_time) - start, len(waiters)

    async def _gauge(self, stop: asyncio.Event) -> None:
        self.reference_ms = []
        while not stop.is_set():
            before = time.process_time()
            reference_chunk()
            self.reference_ms.append((time.process_time() - before) * 1000.0)
            await asyncio.sleep(REFERENCE_EVERY_S)

    async def open_loop(
        self, requests: Sequence[Tuple[int, bytes]], offsets: Sequence[float]
    ) -> Tuple[List[float], List[float]]:
        """Send request ``k`` at ``offsets[k]`` seconds from now, whatever
        is still unanswered.  Returns each request's latency from when it
        was due, and how late each was sent, in ms."""
        start = time.monotonic() + 0.01
        waiters, late = [], []
        for (rid, line), offset in zip(requests, offsets):
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.monotonic() - due) * 1000.0)
            waiters.append(self.send(rid, line))
        done = await asyncio.gather(*waiters)
        latencies = [
            (received - (start + offset)) * 1000.0 for received, offset in zip(done, offsets)
        ]
        return latencies, late

    async def close(self) -> None:
        for _, writer in self.connections:
            writer.close()
        for _, writer in self.connections:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for task in self._readers:
            await task
