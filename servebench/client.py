"""Closed-loop HTTP load generator: keep-alive connections, one request each.

Every connection sends its next request only after the previous reply's
last byte has arrived.  Requests are taken in order from one prepared
list, so the same seed offers the same sequence.  Nothing but sending,
receiving and time-stamping happens inside the window; replies are kept
whole and checked afterwards.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Request:
    method: str
    path: str
    body: bytes = field(repr=False)
    #: Request class, e.g. ``"enc-gray-lossless"``; used by the guards.
    kind: str
    #: Megapixels credited when the reply is correct.
    mpix: float
    #: Key into the workload's oracle table.
    check: str


@dataclass
class Reply:
    index: int
    t_send: float
    t_end: float
    status: int
    headers: dict
    body: bytes = field(repr=False)

    @property
    def latency(self) -> float:
        return self.t_end - self.t_send


@dataclass
class Window:
    replies: list[Reply]
    t_start: float
    t_end: float
    #: True when the prepared request list ran out before the deadline.
    exhausted: bool

    @property
    def seconds(self) -> float:
        return self.t_end - self.t_start


def connect(port: int, timeout: float = 120.0) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    conn.connect()
    return conn


def _get(conn: http.client.HTTPConnection, path: str):
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, {k.lower(): v for k, v in resp.getheaders()}, resp.read()


def open_connections(port: int, count: int, shards: int) -> list:
    """Open ``count`` keep-alive connections, spread over every shard.

    With ``SO_REUSEPORT`` the kernel hashes each connection to a shard;
    left to chance, both connections land on one shard half the time and
    the other shard idles.  Reconnect until the shards are covered evenly
    so every run measures the same placement.
    """
    conns: list[http.client.HTTPConnection] = []
    per_shard: dict[str, int] = {}
    quota = -(-count // max(1, shards))
    for _ in range(64 * count):
        if len(conns) == count:
            break
        conn = connect(port)
        if shards <= 1:
            conns.append(conn)
            continue
        _, headers, _ = _get(conn, "/healthz")
        shard = headers.get("x-shard", "?")
        if per_shard.get(shard, 0) < quota:
            per_shard[shard] = per_shard.get(shard, 0) + 1
            conns.append(conn)
        else:
            conn.close()
    if len(conns) != count:
        for conn in conns:
            conn.close()
        raise RuntimeError(f"could not place {count} connections on {shards} shards")
    return conns


def get_each(conns: list, path: str) -> list:
    """GET ``path`` once per connection; connections may share a shard."""
    return [_get(c, path) for c in conns]


def run_window(port: int, conns: list, requests: list[Request],
               seconds: float) -> Window:
    """Drive ``requests`` closed-loop over ``conns`` for ``seconds``."""
    lock = threading.Lock()
    cursor = [0]
    exhausted = [False]
    replies: list[list[Reply]] = [[] for _ in conns]
    start = threading.Barrier(len(conns) + 1)
    t0_box = [0.0]

    def take() -> int | None:
        with lock:
            i = cursor[0]
            if i >= len(requests):
                exhausted[0] = True
                return None
            cursor[0] = i + 1
            return i

    def loop(ci: int) -> None:
        conn = conns[ci]
        start.wait()
        deadline = t0_box[0] + seconds
        while time.perf_counter() < deadline:
            i = take()
            if i is None:
                return
            req = requests[i]
            t_send = time.perf_counter()
            try:
                conn.request(req.method, req.path, body=req.body,
                             headers={"Content-Type": "application/octet-stream"})
                resp = conn.getresponse()
                body = resp.read()
                status = resp.status
                headers = {k.lower(): v for k, v in resp.getheaders()}
            except (OSError, http.client.HTTPException) as exc:
                status, headers, body = 0, {"x-client-error": repr(exc)}, b""
                conn.close()
                conn = conns[ci] = connect(port)
            replies[ci].append(Reply(i, t_send, time.perf_counter(),
                                     status, headers, body))

    threads = [threading.Thread(target=loop, args=(ci,), daemon=True)
               for ci in range(len(conns))]
    for t in threads:
        t.start()
    t0_box[0] = time.perf_counter()
    start.wait()
    for t in threads:
        t.join()
    t_end = time.perf_counter()
    merged = sorted((r for rs in replies for r in rs), key=lambda r: r.index)
    return Window(merged, t0_box[0], t_end, exhausted[0])
