"""Closed-loop benchmark of ``repro serve`` over real HTTP.

    python3 servebench/run.py --workload encode-cold --seed 1 --seconds 45 --trace 0

Run from the repository root.  One run: build the seeded inputs and
their expected outputs, launch the server a few times to time set-up,
warm the last launch up, drive it closed-loop for ``--seconds`` over one
keep-alive connection per core, tear it down, launch a few more times
for set-up, then check every reply.
``--trace 1`` adds a half-length window against a server whose layers
are wrapped in spans and reports the per-layer figures instead.  The last
line of standard output is one JSON object; a full record (environment
included) is written under ``servebench/runs/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = os.path.join(BENCH_DIR, ".tmp")
RUNS_DIR = os.path.join(BENCH_DIR, "runs")
#: Server launches per run before and after the window; ``setup_s`` is
#: the median of all of them, so it samples the host at both ends of the
#: run rather than in one short stretch.
LAUNCHES = (5, 6)


def _spec() -> dict:
    """Metric names and units: ``BENCHMARK.json`` is their one definition."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _fail(message: str, code: int = 2) -> None:
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def _prepare_env() -> dict:
    """Environment shared by this process and every server it starts.

    Temporary files (the native kernels' build cache, shard sockets) stay
    inside the checkout, and the planner reads its pinned default
    calibration instead of whatever ``~/.cache/repro`` holds.  The package
    is compiled to bytecode here, before any launch, as an installed one
    would be; the servers only read it, so without this every timed launch
    would compile the whole package again.
    """
    tmp = os.path.join(STATE_DIR, "t")
    os.makedirs(tmp, exist_ok=True)
    if len(tmp) > 60:
        # A shard cluster binds a unix socket below TMPDIR, and socket
        # paths are limited to 107 bytes.
        _fail(f"checkout path too deep for the shard socket: {tmp}")
    calibration = os.path.join(STATE_DIR, "calibration-pinned-defaults.json")
    if os.path.exists(calibration):
        os.unlink(calibration)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "REPRO_CALIBRATION_PATH": calibration,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    for knob in ("REPRO_MQ_NATIVE", "REPRO_TIER1_BACKEND", "REPRO_DEC_BACKEND",
                 "REPRO_SHM", "XDG_CACHE_HOME"):
        env.pop(knob, None)
    os.environ.update(env)
    compileall.compile_dir(os.path.join(ROOT, "src", "repro"), quiet=1)
    return env


def _load_natives() -> dict:
    """Compile (or load) the native kernels before any server is timed.

    The servers share this process's ``TMPDIR``, so they find the shared
    objects already built.
    """
    from repro.jpeg2000 import _mq_native, _t1_dec_native

    return {
        "native_mq": _mq_native.native_encode_run is not None,
        "native_t1_dec": _t1_dec_native.native_decode_block is not None,
    }


def _environment(natives: dict, listener: str) -> dict:
    """What a comparison must hold equal between two sets of runs."""
    import numpy

    from repro.plan.calibration import get_calibration

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **natives,
        "listener": listener,
        "calibration": get_calibration().source,
    }


def _listener(server, shards: int) -> str:
    if shards <= 1:
        return "single"
    for token in server.log_text().split():
        if token.startswith("listener="):
            return token.split("=", 1)[1].rstrip(",")
    return "unknown"


def _window(server, plan, seconds: float, shards: int, trace_dir=None):
    """Warm up, then measure one closed-loop window; returns its figures."""
    from client import get_each, open_connections, run_window
    from layers import shard_views
    from procs import cpu_seconds, peak_rss_mb, steal_seconds
    from server import ServerError

    nconn = os.cpu_count() or 1
    conns = open_connections(server.port, nconn, shards)
    try:
        for conn in conns:  # every connection, so every shard, warms up
            warm = run_window(server.port, [conn], plan.warmup, 3600.0)
            bad = [r for r in warm.replies if not 200 <= r.status < 300]
            if bad:
                raise ServerError(
                    f"warm-up request failed: HTTP {bad[0].status} "
                    f"{bad[0].body[:200]!r}"
                )
        # Spans are flushed before each reply, so this is exactly the
        # warm-up's share of the trace.
        warm_spans = tracing.load(trace_dir) if trace_dir else {}
        m0 = shard_views(get_each(conns, "/metrics"))
        s0 = shard_views(get_each(conns, "/stats"))
        pids0 = server.tree()
        cpu0 = cpu_seconds(pids0)
        steal0 = steal_seconds()
        window = run_window(server.port, conns, plan.requests, seconds)
        steal = steal_seconds() - steal0
        pids1 = server.tree()
        cpu1 = cpu_seconds(pids1)
        rss = peak_rss_mb(pids1)
        m1 = shard_views(get_each(conns, "/metrics"))
        s1 = shard_views(get_each(conns, "/stats"))
    finally:
        # Every client connection closes before SIGTERM: an idle
        # keep-alive client would otherwise hold the drain open.
        for conn in conns:
            conn.close()
    lost = [p for p in pids0 if p not in cpu1]
    cpu = sum(cpu1.values()) - sum(v for p, v in cpu0.items() if p in cpu1)
    return {
        "window": window, "cpu_s": cpu, "rss_mb": rss, "lost_pids": lost,
        "steal_s": steal,
        "m0": m0, "m1": m1, "s0": s0, "s1": s1, "warm_spans": warm_spans,
    }


def _probe_launches(serve_args, env, log_path, shards, traced, count):
    from server import Server, ServerError

    setups = []
    for _ in range(count):
        probe = Server(serve_args, env, log_path, shards, traced)
        try:
            setups.append(probe.start())
        finally:
            _, overran = probe.stop()
        if overran:
            raise ServerError("an idle server overran its drain bound")
    return setups


def _run_server(serve_args, env, plan, seconds, shards, launches=(1, 0),
                traced=False, trace_dir=None):
    """Launch ``launches[0]`` servers, measure on the last, then ``launches[1]`` more."""
    from server import Server
    from stats import median

    log_path = os.path.join(STATE_DIR, "server.log")
    if os.path.exists(log_path):
        os.unlink(log_path)
    if traced:
        env = dict(env, SERVEBENCH_TRACE_DIR=trace_dir)
    before, after = launches
    setups = _probe_launches(serve_args, env, log_path, shards, traced,
                             before - 1)
    server = Server(serve_args, env, log_path, shards, traced)
    setups.append(server.start())
    try:
        listener = _listener(server, shards)
        fig = _window(server, plan, seconds, shards, trace_dir)
    finally:
        drain_s, overran = server.stop()
    setups += _probe_launches(serve_args, env, log_path, shards, traced, after)
    fig.update(setup_s=median(setups), setups=setups, drain_s=drain_s,
               overran=overran, listener=listener)
    return fig


def _end_to_end(fig, plan, oks) -> dict:
    from stats import quantile

    window = fig["window"]
    good = [(r, plan.requests[r.index]) for r, ok in zip(window.replies, oks)
            if ok]
    mpix = sum(req.mpix for _, req in good)
    lat = [r.latency for r, _ in good]
    return {
        "throughput_mpix_s": mpix / window.seconds,
        "latency_p50_s": quantile(lat, 0.5),
        "latency_p90_s": quantile(lat, 0.9),
        "cpu_s_per_mpix": fig["cpu_s"] / mpix if mpix else 0.0,
        "peak_rss_mb": fig["rss_mb"],
        "setup_s": fig["setup_s"],
    }


def _plans_seen(replies, requests) -> dict:
    """Per request class, how often each execution strategy was chosen."""
    seen: dict[str, dict[str, int]] = {}
    for rep in replies:
        choice = rep.headers.get("x-plan") or rep.headers.get("x-backend")
        if choice:
            per = seen.setdefault(requests[rep.index].kind, {})
            per[choice] = per.get(choice, 0) + 1
    return seen


def _guards(fig, plan, oks) -> None:
    from stats import GuardError, check_boundary, check_tail

    window = fig["window"]
    samples = [(r.latency, plan.requests[r.index].kind)
               for r, ok in zip(window.replies, oks) if ok]
    for q in (0.5, 0.9):
        check_tail(len(samples), q, "latency")
        check_boundary(samples, q, "latency")
    if plan.cold:
        hits = sum(r.headers.get("x-cache") == "HIT" for r in window.replies)
        if hits:
            raise GuardError(f"cold workload served {hits} cache hits")
    if fig["lost_pids"]:
        raise GuardError(
            f"server processes {fig['lost_pids']} exited inside the window; "
            "their CPU time is lost"
        )


def _traced_layers(trace_dir: str, fig, untraced_tput: float, plan, oks):
    totals = tracing.load(trace_dir)
    for key, (calls, total, self_s) in fig["warm_spans"].items():
        acc = totals[key]
        totals[key] = [acc[0] - calls, acc[1] - total, acc[2] - self_s]
    window = fig["window"]
    n = max(1, len(window.replies))
    out = {}
    for layer in tracing.LAYERS:
        calls, _total, self_s = totals.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls / n
        out[f"{layer}.self_s"] = self_s / n
    out["cachebus.lease_wait_s"] = totals.get(
        "cachebus:CacheBusClient.lease", (0, 0.0, 0.0))[1] / n
    out["batching.window_wait_s"] = totals.get(
        "batching.window_wait", (0, 0.0, 0.0))[1] / n
    out["scheduler.wait_s"] = totals.get("scheduler.wait", (0, 0.0, 0.0))[1] / n
    symbols = totals.get("tier1_enc.symbols", (0, 0.0, 0.0))[0]
    t1_total = totals.get("tier1_enc", (0, 0.0, 0.0))[1]
    out["tier1_enc.ns_per_symbol"] = t1_total / symbols * 1e9 if symbols else 0.0
    mpix = sum(plan.requests[r.index].mpix
               for r, ok in zip(window.replies, oks) if ok)
    traced_tput = mpix / window.seconds
    out["trace.overhead_share"] = (
        1.0 - traced_tput / untraced_tput if untraced_tput else 0.0
    )
    http_s = totals.get("http", (0, 0.0, 0.0))[1]
    client_s = sum(r.latency for r in window.replies)
    out["trace.coverage_share"] = http_s / client_s if client_s else 0.0
    return out, totals


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail(f"no repro sources under {ROOT}/src; run from a full checkout")
    sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]
    env = _prepare_env()
    natives = _load_natives()

    from layers import recorded
    from oracle import check_replies
    from stats import GuardError
    from workloads import WORKLOADS

    spec = _spec()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    t_begin = time.perf_counter()
    plan = workload.build(args.seed)
    serve_args = list(workload.serve_args)

    from server import ServerError

    try:
        fig = _run_server(serve_args, env, plan, args.seconds, workload.shards,
                          LAUNCHES)
    except ServerError as exc:
        _fail(f"server failure: {exc}", code=4)
    oks, problems = check_replies(fig["window"].replies, plan.requests,
                                  plan.checks)
    guard_error = None
    try:
        _guards(fig, plan, oks)
    except GuardError as exc:
        guard_error = str(exc)
    e2e = _end_to_end(fig, plan, oks)
    layer = recorded(fig["window"], plan.requests, oks, fig["m0"], fig["m1"],
                     fig["s0"], fig["s1"], fig["drain_s"])
    attempted = len(fig["window"].replies)
    failed = attempted - sum(oks)
    if fig["overran"]:
        problems.append("server teardown overran its drain bound")
        failed += 1
    env_record = _environment(natives, fig["listener"])

    traced = spans = None
    if args.trace and guard_error is None:
        trace_dir = os.path.join(STATE_DIR, "trace")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        # Half a window is plenty for per-request layer shares and keeps
        # a traced run within 1.5 times an untraced one.
        try:
            tfig = _run_server(serve_args, env, plan, args.seconds / 2,
                               workload.shards, traced=True,
                               trace_dir=trace_dir)
        except ServerError as exc:
            _fail(f"traced server failure: {exc}", code=4)
        toks, tproblems = check_replies(tfig["window"].replies, plan.requests,
                                        plan.checks)
        problems += [f"traced: {p}" for p in tproblems]
        attempted += len(toks)
        failed += len(toks) - sum(toks) + int(tfig["overran"])
        traced, spans = _traced_layers(trace_dir, tfig,
                                       e2e["throughput_mpix_s"], plan, toks)

    for p in problems[:20]:
        print(f"servebench: {p}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record,
        "attempted": attempted, "failed": failed,
        "window_s": fig["window"].seconds,
        "steal_s": fig["steal_s"],
        "exhausted": fig["window"].exhausted,
        "setups_s": fig["setups"],
        "end_to_end": e2e, "layers": layer, "traced": traced,
        "spans": spans,
        "guard_error": guard_error, "wall_s": time.perf_counter() - t_begin,
        "latencies": [[round(r.latency, 6), plan.requests[r.index].kind,
                       round(r.t_send - fig["window"].t_start, 4)]
                      for r in fig["window"].replies],
        "plans": _plans_seen(fig["window"].replies, plan.requests),
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(RUNS_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if guard_error is not None:
        _fail(f"steadiness guard: {guard_error}", code=3)

    if args.trace:
        values, units = {**layer, **traced}, spec["per_layer"]
    else:
        values, units = e2e, spec["end_to_end"]
    if set(values) != set(units):
        _fail(f"metrics computed {sorted(values)} differ from BENCHMARK.json "
              f"{sorted(units)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
