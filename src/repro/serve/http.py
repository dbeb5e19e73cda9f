"""Minimal HTTP/1.1 framing over asyncio streams.

The gateway speaks plain HTTP/1.1 with JSON bodies so any client — curl,
``http.client``, a browser — can drive it, but it must not grow a
dependency beyond the standard library.  This module is the complete
wire layer: parse one request from a :class:`asyncio.StreamReader`,
serialise one response to a :class:`asyncio.StreamWriter`.  Connections
are persistent (HTTP/1.1 keep-alive) unless either side sends
``Connection: close``; bodies are always ``Content-Length``-delimited
(no chunked encoding — every payload we produce or accept is a small
JSON document whose size is known up front).

Bounds (``MAX_HEADER_BYTES``, ``MAX_BODY_BYTES``) cap what a single
connection can make the server buffer, so a misbehaving client cannot
balloon gateway memory before admission control even sees the request.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "json_response",
    "read_request",
    "write_response",
    "MAX_HEADER_BYTES",
    "MAX_BODY_BYTES",
]

#: Cap on the request line plus all header lines, in bytes.
MAX_HEADER_BYTES = 16_384

#: Cap on a request body, in bytes.  The largest legitimate payload is an
#: ``/v1/infer_batch`` of a few hundred trajectories — far below this.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed request; carries the status the server should answer.

    Raised by :func:`read_request` mid-parse.  The connection is not
    recoverable afterwards (framing may be lost), so handlers answer with
    ``Connection: close`` and drop the socket.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    def json(self):
        """The body decoded as strict RFC 8259 JSON.

        Raises:
            HttpError: 400 when the body is not valid JSON, including the
                ``NaN``/``Infinity``/``-Infinity`` constants that Python's
                decoder accepts by default.
        """
        try:
            return json.loads(
                self.body.decode("utf-8"), parse_constant=_reject_constant
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


@dataclass(slots=True)
class Response:
    """One HTTP response ready for :func:`write_response`."""

    status: int
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)
    close: bool = False


def json_response(
    status: int,
    payload,
    headers: Optional[Dict[str, str]] = None,
    close: bool = False,
) -> Response:
    """Serialise ``payload`` as a JSON response body."""
    body = (json.dumps(payload) + "\n").encode("utf-8")
    hdrs = {"Content-Type": "application/json"}
    if headers:
        hdrs.update(headers)
    return Response(status=status, body=body, headers=hdrs, close=close)


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF before the request line.

    Raises:
        HttpError: On malformed framing (bad request line, oversized
            headers or body, non-integer ``Content-Length``).
        asyncio.IncompleteReadError: On EOF mid-request.
    """
    try:
        raw_line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long")
    if len(raw_line) > MAX_HEADER_BYTES:
        raise HttpError(400, "request line too long")
    line = raw_line.decode("latin-1").strip()
    if not line:
        raise HttpError(400, "empty request line")
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]

    headers: Dict[str, str] = {}
    header_bytes = len(raw_line)
    while True:
        raw = await reader.readuntil(b"\n")
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        decoded = raw.decode("latin-1").strip()
        if not decoded:
            break
        name, sep, value = decoded.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {decoded!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise HttpError(400, f"bad Content-Length: {length_header!r}")
        if length < 0:
            raise HttpError(400, "negative Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length)
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    # Strip the query string: the API carries every parameter in the body.
    path = target.split("?", 1)[0]
    return Request(method=method, path=path, headers=headers, body=body)


async def write_response(writer: asyncio.StreamWriter, response: Response) -> None:
    """Serialise one response, honouring keep-alive vs ``close``."""
    reason = _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    headers = dict(response.headers)
    headers["Content-Length"] = str(len(response.body))
    headers["Connection"] = "close" if response.close else "keep-alive"
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
    writer.write(response.body)
    await writer.drain()
