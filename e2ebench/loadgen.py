"""Open-loop HTTP load generator for the sign-off server.

One process, at most ``connections`` keep-alive connections, and a seeded
schedule of due times: independent users do not wait for each other, so a
request is sent when it is due (or as soon as a connection frees up) and
its latency is timed from its due time, which charges a stall to every
request queued behind it.  ``late`` is how far behind schedule the send
actually happened.  Times come from ``time.monotonic`` (the event loop's
clock), which on Linux is comparable across processes.
"""

from __future__ import annotations

import asyncio
import json
import math


class Response:
    __slots__ = ("status", "payload", "due", "sent", "done")

    def __init__(self, status, payload, due, sent, done) -> None:
        self.status = status
        self.payload = payload
        self.due = due
        self.sent = sent
        self.done = done

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency_ms(self) -> float:
        """Due time to answer; a failed request never meets a limit."""
        return 1e3 * (self.done - self.due) if self.ok else math.inf

    @property
    def late_ms(self) -> float:
        return 1e3 * (self.sent - self.due)


def encode(method: str, path: str, body=None) -> bytes:
    data = b"" if body is None else json.dumps(body).encode()
    return (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: keep-alive\r\n\r\n").encode() + data


async def _read_response(reader: asyncio.StreamReader) -> tuple:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed by server")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, json.loads(body) if body else None


class Connection:
    """One keep-alive connection; requests on it run one at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def request(self, method: str, path: str, body=None) -> tuple:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        try:
            self.writer.write(encode(method, path, body))
            await self.writer.drain()
            return await _read_response(self.reader)
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            await self.close()
            raise

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
            self.reader = self.writer = None


async def run_schedule(conns, requests, start: float) -> list:
    """Send ``requests`` (dicts with ``due_s``, ``path``, ``body``) on time.

    ``start`` is the monotonic time of the first due time.  Returns one
    :class:`Response` per request, in request order; transport errors
    become status 0.
    """
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    results: list = [None] * len(requests)

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            i, due = item
            sent = loop.time()
            try:
                status, payload = await conn.request(
                    "POST", requests[i]["path"], requests[i]["body"])
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    ValueError):
                status, payload = 0, None
            results[i] = Response(status, payload, due, sent, loop.time())

    workers = [asyncio.create_task(worker(c)) for c in conns]
    for i, req in enumerate(requests):
        due = start + req["due_s"]
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((i, due))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return results
