"""Span wrappers for a traced ``repro serve``: calls and self time per layer.

:func:`install` imports the service stack, wraps each layer's entry
points (:data:`LAYERS`) and rebinds every ``repro`` module attribute that
still points at an original — ``encoder.py`` imports ``run_frontend`` by
name, ``repro.service`` imports ``encode`` by name, and a wrapper bound
only where the function is defined would never run.  It must run before
the server forks its pool, so the workers inherit the wrappers.

Each process keeps running totals per layer: calls, total seconds, self
seconds (total minus the spans nested inside it on the same thread) and a
few named extras.  Whenever a thread leaves its outermost span, the
process appends the totals gathered since its last write to
``<trace dir>/<pid>.jsonl`` — one ``os.write`` per top-level span, so a
worker killed at teardown loses nothing it finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

#: layer -> "module:qualname" entry points.
LAYERS = {
    "http": ["repro.service.http:ServiceRequestHandler.do_POST"],
    "image": ["repro.image:parse_image"],
    "service": ["repro.service:EncodeService.encode_image"],
    "cache": ["repro.service.cache:ResultCache.get",
              "repro.service.cache:ResultCache.put"],
    "cachebus": ["repro.service.sharding.cachebus:CacheBusClient.get",
                 "repro.service.sharding.cachebus:CacheBusClient.lease",
                 "repro.service.sharding.cachebus:CacheBusClient.put"],
    "batching": ["repro.service.sharding.batching:MicroBatcher.submit"],
    "scheduler": ["repro.service.scheduler:EncodeScheduler.job",
                  "repro.service.scheduler:SchedulerJob.imap_unordered"],
    "plan": ["repro.plan:resolve_plan"],
    "encoder": ["repro.jpeg2000.encoder:encode"],
    "frontend": ["repro.jpeg2000.dwt_fast:run_frontend"],
    "workpool": ["repro.core.workpool:_SharedPlanes.__init__",
                 "repro.core.workpool:publish_shared_bytes",
                 "repro.core.workpool:CodeBlockWorkQueue.encode_plane_blocks",
                 "repro.core.workpool:CodeBlockWorkQueue.encode_plane_groups"],
    "tier1_enc": ["repro.jpeg2000.tier1:encode_codeblock",
                  "repro.jpeg2000.tier1_batch:encode_codeblocks_batched"],
    "rate": ["repro.jpeg2000.rate:RateModel.__init__",
             "repro.jpeg2000.rate:RateModel.choose"],
    "tier2": ["repro.jpeg2000.encoder:_assemble_packets",
              "repro.jpeg2000.codestream:write_codestream"],
    "decoder": ["repro.jpeg2000.decoder:decode"],
    "tier1_dec": ["repro.jpeg2000.tier1_dec_vec:decode_codeblocks_batched",
                  "repro.jpeg2000.tier1_dec_vec:decode_codeblock_fast"],
    "idwt": ["repro.jpeg2000.dwt_fast:run_inverse_frontend"],
    "verify": ["repro.verify.roundtrip:verify_encode",
               "repro.verify.roundtrip:verify_roundtrip"],
}

TRACE_DIR_ENV = "SERVEBENCH_TRACE_DIR"


class _Recorder:
    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.lock = threading.Lock()
        self.local = threading.local()
        self.pending: dict[str, list[float]] = {}

    def reset_after_fork(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.pending = {}

    def stack(self) -> list:
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def add(self, key: str, calls: int, total: float, self_s: float) -> None:
        with self.lock:
            acc = self.pending.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s

    def flush(self) -> None:
        with self.lock:
            if not self.pending:
                return
            pending, self.pending = self.pending, {}
        line = json.dumps(pending, separators=(",", ":")) + "\n"
        path = os.path.join(self.out_dir, f"{os.getpid()}.jsonl")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)


_REC: _Recorder | None = None


def _begin():
    st = _REC.stack()
    frame = [0.0]  # child seconds
    st.append(frame)
    return st, frame, time.perf_counter()


def _end(layer: str, name: str, st: list, frame: list, t0: float) -> None:
    dt = time.perf_counter() - t0
    # Remove by identity: an abandoned generator may end out of order.
    for i in range(len(st) - 1, -1, -1):
        if st[i] is frame:
            del st[i]
            break
    if st:
        st[-1][0] += dt
    _REC.add(layer, 1, dt, dt - frame[0])
    _REC.add(name, 1, dt, dt - frame[0])
    if not st:
        _REC.flush()


def _symbols(result) -> int:
    """Coded symbols in a Tier-1 result (one block or a list of them)."""
    if isinstance(result, list):
        return sum(getattr(r, "total_symbols", 0) for r in result)
    return getattr(result, "total_symbols", 0)


def _wrap(fn, layer: str):
    # Each span also counts under "layer:qualname" for the run record.
    name = f"{layer}:{fn.__qualname__}"
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            st, frame, t0 = _begin()
            try:
                yield from fn(*args, **kwargs)
            finally:
                _end(layer, name, st, frame, t0)
        gen_wrapper.__servebench_original__ = fn
        return gen_wrapper

    count_symbols = layer == "tier1_enc"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st, frame, t0 = _begin()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            # Counted before the span ends, so the flush includes it.
            if count_symbols:
                _REC.add("tier1_enc.symbols", _symbols(result), 0.0, 0.0)
            _end(layer, name, st, frame, t0)
    wrapper.__servebench_original__ = fn
    return wrapper


def _install_extras() -> None:
    """Wait-time probes that are not spans of their own."""
    from repro.service import scheduler as sched_mod
    from repro.service.sharding import batching

    dispatch = batching.MicroBatcher._dispatch

    def timed_dispatch(self, batch):
        now = time.monotonic()
        _REC.add("batching.window_wait",
                 len(batch), sum(now - item.enqueued_at for item in batch), 0.0)
        return dispatch(self, batch)

    batching.MicroBatcher._dispatch = timed_dispatch

    class _TimedDeque(sched_mod.deque):
        """A lane's pending blocks, stamped on entry and timed on exit."""

        def __init__(self, *args):
            super().__init__(*args)
            self.stamps = sched_mod.deque()

        def extend(self, items):
            items = list(items)
            now = time.perf_counter()
            self.stamps.extend([now] * len(items))
            super().extend(items)

        def popleft(self):
            _REC.add("scheduler.wait",
                     1, time.perf_counter() - self.stamps.popleft(), 0.0)
            return super().popleft()

    lane_init = sched_mod._Lane.__init__

    def timed_lane_init(self, job_id, priority):
        lane_init(self, job_id, priority)
        self.pending = _TimedDeque()

    sched_mod._Lane.__init__ = timed_lane_init


def install(out_dir: str) -> None:
    global _REC
    _REC = _Recorder(out_dir)
    os.register_at_fork(after_in_child=_REC.reset_after_fork)
    # Import everything a layer names so the rebinding scan below sees
    # every module that imported an entry point by name.
    for specs in LAYERS.values():
        for spec in specs:
            importlib.import_module(spec.split(":")[0])
    for mod in ("repro.service.http", "repro.service.sharding.frontend",
                "repro.verify", "repro.jpeg2000"):
        importlib.import_module(mod)
    originals: dict[int, object] = {}
    for layer, specs in LAYERS.items():
        for spec in specs:
            mod_name, qual = spec.split(":")
            owner = importlib.import_module(mod_name)
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if path else getattr(owner, attr)
            wrapped = _wrap(fn, layer)
            setattr(owner, attr, wrapped)
            if not path:
                originals[id(fn)] = wrapped
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and value is not wrapped:
                setattr(module, attr, wrapped)
    _install_extras()


def load(out_dir: str) -> dict[str, list[float]]:
    """Sum every process's span totals: key -> [calls, total_s, self_s].

    Keys are layers, ``layer:qualname`` entry points, and the extras
    ``batching.window_wait``, ``scheduler.wait`` and ``tier1_enc.symbols``.
    """
    totals: dict[str, list[float]] = {}
    for entry in sorted(os.listdir(out_dir)):
        if not entry.endswith(".jsonl"):
            continue
        with open(os.path.join(out_dir, entry)) as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn last line of a killed process
                for key, (calls, total, self_s) in record.items():
                    acc = totals.setdefault(key, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += total
                    acc[2] += self_s
    return totals
