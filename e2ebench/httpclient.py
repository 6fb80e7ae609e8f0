"""A closed-loop HTTP client over ``http.client`` that times each request's parts.

The connection is kept whenever the daemon allows it: ``http.client``
asks for keep-alive under HTTP/1.1 and drops the socket after a
response that says ``Connection: close``, and the next request connects
again.  Each request is split into three timed parts: connect (zero on
a kept connection), first byte (send until the status line and headers
are in) and body.
"""

from __future__ import annotations

import http.client
import time


class Response:
    __slots__ = ("status", "body", "connect_s", "first_byte_s", "body_s")

    def __init__(self, status, body, connect_s, first_byte_s, body_s):
        self.status = status
        self.body = body
        self.connect_s = connect_s
        self.first_byte_s = first_byte_s
        self.body_s = body_s


class Client:
    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self.connects = 0

    def close(self) -> None:
        self._conn.close()

    def get(self, path: str) -> Response:
        conn = self._conn
        begin = time.perf_counter()
        if conn.sock is None:
            conn.connect()
            self.connects += 1
        connected = time.perf_counter()
        conn.request("GET", path)
        resp = conn.getresponse()
        headed = time.perf_counter()
        body = resp.read()
        end = time.perf_counter()
        return Response(resp.status, body, connected - begin, headed - connected, end - headed)
