"""Launch, probe and tear down one ``repro serve`` process tree.

``setup`` is timed from ``Popen`` until every shard has answered
``/healthz``: the pool warms up before a server binds, so a healthy reply
means a warm pool.  Teardown is bounded: SIGTERM, wait, then SIGKILL every
process of the tree that is still alive; a teardown that needed the kill
is reported as an overrun so the run can be failed instead of hanging.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket
import subprocess
import sys
import time

from procs import descendants

#: Seconds a launch may take before it counts as failed.
START_TIMEOUT_S = 60.0
#: Seconds a SIGTERMed server gets to drain before the tree is killed.
DRAIN_BOUND_S = 15.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class ServerError(RuntimeError):
    """The server did not come up, or died while being measured."""


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def get_json(port: int, path: str, timeout: float = 10.0):
    """One GET on a fresh connection; returns (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` tree; ``traced`` runs it under the span wrappers."""

    def __init__(self, serve_args: list[str], env: dict, log_path: str,
                 shards: int = 1, traced: bool = False) -> None:
        self.serve_args = list(serve_args)
        self.shards = shards
        self.env = env
        self.log_path = log_path
        self.traced = traced
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> float:
        """Launch and wait until healthy; returns the set-up seconds.

        A cluster is up when every shard has answered: with ``SO_REUSEPORT``
        a shard gets connections only once it listens, so probing until
        all shard ids were seen waits for the slowest one.
        """
        self.port = free_port()
        entry = (
            [os.path.join(BENCH_DIR, "traced_serve.py")] if self.traced
            else ["-m", "repro"]
        )
        cmd = [sys.executable, *entry, "serve", "--port", str(self.port),
               "--quiet", *self.serve_args]
        log = open(self.log_path, "ab")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                stdin=subprocess.DEVNULL,
            )
        finally:
            log.close()
        deadline = t0 + START_TIMEOUT_S
        healthy: set[str] = set()
        while True:
            if self.proc.poll() is not None:
                raise ServerError(
                    f"server exited with {self.proc.returncode} during start; "
                    f"see {self.log_path}"
                )
            try:
                status, headers, _ = get_json(self.port, "/healthz", timeout=2.0)
                if status == 200:
                    healthy.add(headers.get("X-Shard", "0"))
                    if len(healthy) >= self.shards:
                        return time.perf_counter() - t0
            except (OSError, http.client.HTTPException):
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise ServerError("server did not become healthy in time")
            time.sleep(0.005)

    def tree(self) -> list[int]:
        return descendants(self.proc.pid) if self.proc else []

    def log_text(self) -> str:
        try:
            with open(self.log_path, errors="replace") as fh:
                return fh.read()
        except OSError:
            return ""

    def stop(self) -> tuple[float, bool]:
        """SIGTERM and wait; returns (drain seconds, bound overrun)."""
        if self.proc is None:
            return 0.0, False
        pids = self.tree()
        t0 = time.perf_counter()
        overran = False
        try:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=DRAIN_BOUND_S)
        except subprocess.TimeoutExpired:
            overran = True
        drain_s = time.perf_counter() - t0
        # Kill whatever is left of the tree: the root on overrun, and any
        # orphaned worker either way.
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=DRAIN_BOUND_S)
        except subprocess.TimeoutExpired:
            overran = True
        for pid in pids[1:]:
            _wait_gone(pid)
        self.proc = None
        return drain_s, overran


def _wait_gone(pid: int, timeout: float = 5.0) -> None:
    """Wait until a non-child ``pid`` has left the process table."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            return
        if state in ("Z", "X"):
            return
        time.sleep(0.01)
