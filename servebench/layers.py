"""Per-layer figures every run records, from headers, ``/metrics`` and ``/stats``.

No server code is instrumented for these: response headers give each
request's queue wait, codec seconds and cache source; the service's own
histograms give the codec stage split.  ``/metrics`` and ``/stats`` are
read over every connection, and each distinct shard's live numbers are
summed once here rather than trusting the heartbeat-delayed cluster
aggregate.  Units are the ones ``BENCHMARK.json`` gives.
"""

from __future__ import annotations

import json

from stats import median, quantile

ENCODE_STAGES = {
    "encoder.frontend_s_per_mpix": ("levelshift_mct", "dwt", "quantize"),
    "encoder.tier1_s_per_mpix": ("tier1",),
    "encoder.rate_control_s_per_mpix": ("rate_control",),
    "encoder.tier2_s_per_mpix": ("tier2",),
}

def shard_views(answers: list) -> list[dict]:
    """The live part of ``/metrics`` or ``/stats``, one view per shard.

    Several connections may share a shard (a single server answers all of
    them), so answers are keyed by ``X-Shard`` — absent on an unsharded
    server — and each shard counts once.
    """
    views: dict[str, dict] = {}
    for _status, headers, body in answers:
        doc = json.loads(body)
        views.setdefault(headers.get("x-shard", ""),
                         doc["shard"] if "shard" in doc else doc)
    return list(views.values())


def _hist(metrics: list[dict], name: str, field: str) -> float:
    return sum(m.get(name, {}).get(field, 0) for m in metrics)


def _delta(before, after, name: str, field: str = "value") -> float:
    return _hist(after, name, field) - _hist(before, name, field)


def _stats_delta(before, after, block: str, field: str) -> int:
    """Change of one ``/stats`` counter across the window, over all shards."""
    return (sum(v.get(block, {}).get(field, 0) for v in after)
            - sum(v.get(block, {}).get(field, 0) for v in before))


def recorded(window, requests, oks, m0, m1, s0, s1, drain_s: float) -> dict:
    """The per-layer figures of one untraced window, by metric name."""
    replies = window.replies
    n = len(replies)
    overhead, qwait = [], []
    hits = remote = misses = batched = 0
    enc_mpix = 0.0
    for rep, ok in zip(replies, oks):
        h = rep.headers
        codec = float(h.get("x-encode-seconds") or 0)
        wait = float(h.get("x-queue-wait-seconds") or 0)
        overhead.append(rep.latency - wait - codec)
        if h.get("x-cache") == "HIT":
            if h.get("x-cache-source") == "remote":
                remote += 1
            else:
                hits += 1
            continue
        misses += 1
        if "x-queue-wait-seconds" in h:
            qwait.append(wait)
        if not ok:
            continue
        if h.get("x-batched") == "1":
            batched += 1  # batched encodes report no stage split
        else:
            enc_mpix += requests[rep.index].mpix
    out = {
        "http.overhead_s_p50": median(overhead),
        "admission.queue_wait_s_p50": quantile(qwait, 0.5),
        "admission.queue_wait_s_p90": quantile(qwait, 0.9),
        "admission.rejected": _delta(m0, m1, "rejected_total"),
        "cache.hit_share": hits / n if n else 0.0,
        "cachebus.hit_share": remote / n if n else 0.0,
        "batching.batched_share": batched / misses if misses else 0.0,
    }
    for name, stages in ENCODE_STAGES.items():
        secs = sum(_delta(m0, m1, f"stage_{s}_seconds", "sum") for s in stages)
        out[name] = secs / enc_mpix if enc_mpix else 0.0
    # Count-weighted mean of the per-shard medians (exact with one shard).
    vcount = [m.get("verify_seconds", {}).get("count", 0) for m in m1]
    out["verify.seconds_p50"] = (
        sum(c * m.get("verify_seconds", {}).get("p50", 0.0)
            for c, m in zip(vcount, m1)) / sum(vcount)
        if sum(vcount) else 0.0
    )
    out["plan.decisions"] = _stats_delta(s0, s1, "plan", "decisions")
    out["pool.respawns"] = _stats_delta(s0, s1, "pool", "respawns")
    out["teardown.drain_s"] = drain_s
    return out
