"""Load generation for the served workload: one event-loop thread, at most
two keep-alive HTTP/1.1 connections.

The open loop sends request ``i`` when it is due, ``start + i / rate``,
over whichever connection is free.  Its latency runs from the due time to
the full reply, so a stall that delays later sends is charged to them;
how late each send left is reported separately as the generator's lag.
The closed loop sends the next request on a connection as soon as the
previous reply on it has arrived.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Optional, Sequence, Tuple

#: A send: request index -> (HTTP status, reply body); status -1 on a
#: connection error.
Send = Callable[[int], Awaitable[Tuple[int, bytes]]]


@dataclass(frozen=True, slots=True)
class Sample:
    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        """Due time to full reply."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator sent the request."""
        return self.sent - self.due


async def open_loop(
    sends: Sequence[Send],
    n: int,
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> List[Sample]:
    """Send ``n`` requests due at ``rate`` per second, one connection per
    entry of ``sends``; returns the samples in request order."""
    start = clock()
    samples: List[Optional[Sample]] = [None] * n
    next_index = 0

    async def connection(send: Send) -> None:
        nonlocal next_index
        while next_index < n:
            i = next_index
            next_index += 1
            due = start + i / rate
            wait = due - clock()
            if wait > 0:
                await sleep(wait)
            sent = clock()
            status, body = await send(i)
            samples[i] = Sample(i, due, sent, clock(), status, body)

    await asyncio.gather(*(connection(send) for send in sends))
    return [s for s in samples if s is not None]


async def closed_loop(
    sends: Sequence[Send],
    n: int,
    seconds: float,
    min_requests: int,
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[List[Sample], float]:
    """Keep every connection busy until ``seconds`` have passed and at
    least ``min_requests`` were sent (or ``n`` are used up); returns the
    samples and the wall time from start to the last reply."""
    start = clock()
    samples: List[Sample] = []
    next_index = 0

    async def connection(send: Send) -> None:
        nonlocal next_index
        while next_index < n and (
            next_index < min_requests or clock() - start < seconds
        ):
            i = next_index
            next_index += 1
            sent = clock()
            status, body = await send(i)
            samples.append(Sample(i, sent, sent, clock(), status, body))

    await asyncio.gather(*(connection(send) for send in sends))
    samples.sort(key=lambda s: s.index)
    end = max((s.done for s in samples), default=start)
    return samples, end - start


class HttpConnection:
    """One keep-alive HTTP/1.1 connection on the running event loop."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self._host, self._port
                )
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            )
            self._writer.write(head.encode("ascii") + body)
            await self._writer.drain()
            status_line = await self._reader.readline()
            status = int(status_line.split()[1])
            length = 0
            close = False
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, __, value = line.decode("latin-1").partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = int(value)
                elif name == "connection" and value.strip().lower() == "close":
                    close = True
            payload = await self._reader.readexactly(length)
            if close:
                await self.close()
            return status, payload
        except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
            await self.close()
            return -1, b""

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
