"""Tier-1 hot-path benchmark: scalar vs. vectorized vs. native, serial vs. pooled.

Measures the Tier-1 encode backends and records the numbers to
``BENCH_tier1.json`` so the performance trajectory is tracked across PRs:

* ``encode_codeblock`` on a dense 64x64 block: ``reference``,
  ``vectorized`` and the compiled whole-block kernel (``native``, what
  ``auto`` runs), each with its ns per coded symbol (the paper's "EBCOT
  Tier-1 dominates" kernel);
* a many-small-blocks image (16x16 code blocks), per-block ``vectorized``
  vs. whole-image ``batched`` at one worker, with ``batched`` timed both
  on the kernel (``native``) and on its NumPy stacked passes;
* full-image encode at worker counts {1, 2, 4, 8} through the real
  multiprocessing work queue (the executable analogue of the paper's
  SPE scaling study, Figures 4/5);
* a 512x512x3 lossless encode at 1 and 2 workers, ``vectorized`` vs.
  ``native``: whole-encode and Tier-1 stage seconds, and the kernel's ns
  per symbol beside the simulator's per-symbol instruction-mix estimate
  (:mod:`repro.kernels.tier1_kernel`).

Usage::

    PYTHONPATH=src python benchmarks/bench_tier1_hotpath.py           # full
    PYTHONPATH=src python benchmarks/bench_tier1_hotpath.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_tier1_hotpath.py \
        --gate-batched    # quick CI gate: batched >= 1.5x on small blocks
    PYTHONPATH=src python benchmarks/bench_tier1_hotpath.py \
        --gate-native     # CI gate: native Tier-1 >= 5x vectorized, 512^2x3

``--smoke`` shrinks repetitions and the image so the whole thing runs in
well under a minute on a single-core CI runner.  Worker scaling is
machine-dependent: on a single-core container the pool *cannot* beat
serial (process start-up is pure overhead), so the JSON records
``cpu_count`` alongside every number — read speedups only against it.
"""

from __future__ import annotations

import argparse
import os
import statistics
from contextlib import contextmanager, nullcontext

import numpy as np

from _util import add_repeats_flag, bench_report, check_repeats, time_fn, write_bench_json
from repro.cell.ppe import PPECore
from repro.cell.spe import SPECore
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import _t1_enc_native
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.tier1 import encode_codeblock
from repro.kernels.tier1_kernel import tier1_symbol_mix

WORKER_COUNTS = (1, 2, 4, 8)

#: Acceptance floor for the batched backend on the many-small-blocks
#: image at one worker (``--gate-batched``).
BATCHED_MIN_SPEEDUP = 1.5

#: Acceptance floor for the native kernel's Tier-1 stage time against the
#: vectorized backend, 512x512x3 lossless at one worker (``--gate-native``).
NATIVE_MIN_SPEEDUP = 5.0
NATIVE_GATE_SIZE = 512


def _speedup(slow: float, fast: float) -> float:
    return slow / fast if fast > 0 else float("inf")


@contextmanager
def _kernel_disabled():
    """Run the NumPy paths that ``auto``/``batched`` use without a kernel."""
    saved = _t1_enc_native.native_encode_block
    _t1_enc_native.native_encode_block = None
    try:
        yield
    finally:
        _t1_enc_native.native_encode_block = saved


def model_per_symbol() -> dict:
    """The Cell simulator's Tier-1 cost per coded symbol, for comparison."""
    mix = tier1_symbol_mix()
    return {
        "ops_per_symbol": DEFAULT_CALIBRATION.tier1_ops_per_symbol,
        "branches_per_symbol": DEFAULT_CALIBRATION.tier1_branches_per_symbol,
        "ppe_ns_per_symbol": PPECore().seconds_per_element(mix) * 1e9,
        "spe_ns_per_symbol": SPECore().seconds_per_element(mix) * 1e9,
    }


def bench_codeblock(repeats: int) -> dict:
    """Dense 64x64 block: reference, vectorized and native backends."""
    rng = np.random.default_rng(42)
    cb = rng.integers(-2000, 2000, size=(64, 64)).astype(np.int32)
    symbols = encode_codeblock(cb, "HL", backend="reference").total_symbols
    out = {"symbols": symbols}
    backends = ["reference", "vectorized"]
    if _t1_enc_native.native_encode_block is not None:
        backends.append("native")  # what "auto" runs for this block
    for backend in backends:
        b = "auto" if backend == "native" else backend
        out[backend] = time_fn(
            lambda b=b: encode_codeblock(cb, "HL", backend=b), repeats
        )
        out[backend]["ns_per_symbol"] = (
            out[backend]["median_s"] * 1e9 / symbols
        )
    ref, vec = out["reference"]["median_s"], out["vectorized"]["median_s"]
    out["speedup"] = _speedup(ref, vec)
    if "native" in out:
        out["native_speedup_vs_vectorized"] = _speedup(
            vec, out["native"]["median_s"]
        )
    return out


def bench_batched_small_blocks(size: int, repeats: int) -> dict:
    """Many 16x16 blocks: per-block vectorized vs. whole-image batched.

    This is the regime the batched backend exists for — hundreds of tiny
    blocks where the fixed NumPy overhead per pass per block dominates.
    Acceptance (ISSUE 6): batched >= 1.5x vectorized at one worker.
    """
    img = watch_face_image(size, size, channels=3)
    out = {"image": f"{size}x{size}x3", "codeblock_size": 16, "backends": {},
           "native_kernel": _t1_enc_native.native_encode_block is not None}
    streams = {}
    for backend in ("vectorized", "batched", "batched_numpy"):
        if backend == "batched_numpy" and not out["native_kernel"]:
            continue  # "batched" already ran the NumPy stacked passes
        params = EncoderParams(
            levels=3, codeblock_size=16, workers=1,
            tier1_backend=backend.replace("_numpy", ""),
        )
        with (_kernel_disabled() if backend == "batched_numpy"
              else nullcontext()):
            out["backends"][backend] = time_fn(
                lambda p=params: encode(img, p), repeats
            )
            result = encode(img, params)
        streams[backend] = result.codestream
        if backend == "batched":
            out["batch_groups"] = result.stats.tier1_batch_groups
            out["batch_blocks"] = result.stats.tier1_batch_blocks
            out["batch_occupancy"] = result.stats.tier1_batch_occupancy
    vec = out["backends"]["vectorized"]["median_s"]
    bat = out["backends"]["batched"]["median_s"]
    out["speedup"] = _speedup(vec, bat)
    if "batched_numpy" in out["backends"]:
        out["native_speedup_vs_batched_numpy"] = _speedup(
            out["backends"]["batched_numpy"]["median_s"], bat
        )
    out["codestreams_identical"] = len(set(streams.values())) == 1
    return out


def bench_full_image(size: int, repeats: int) -> dict:
    """Full lossless encode through the work queue at several widths."""
    img = watch_face_image(size, size, channels=3)
    out = {"image": f"{size}x{size}x3", "workers": {}}
    codestreams = {}
    for workers in WORKER_COUNTS:
        params = EncoderParams(levels=3, workers=workers)
        result = time_fn(lambda p=params: encode(img, p), repeats)
        codestreams[workers] = encode(img, params).codestream
        out["workers"][str(workers)] = result
    base = out["workers"]["1"]["median_s"]
    for workers in WORKER_COUNTS:
        w = out["workers"][str(workers)]
        w["speedup_vs_1"] = base / w["median_s"] if w["median_s"] > 0 else 0.0
    first = codestreams[WORKER_COUNTS[0]]
    out["codestreams_identical"] = all(
        codestreams[w] == first for w in WORKER_COUNTS
    )
    return out


def bench_native_full_image(size: int, repeats: int,
                            workers_list=(1, 2)) -> dict:
    """Lossless ``size`` x ``size`` x 3 encode, vectorized vs. native.

    ``native`` is the default ``auto`` backend with the kernel loaded
    (whole-image batched groups, each block coded by the kernel);
    ``vectorized`` is the per-block NumPy coder.  Each row records the
    median whole-encode and Tier-1 stage seconds over ``repeats`` runs
    after one warm-up, and the native row its ns per coded symbol.
    """
    img = watch_face_image(size, size, channels=3)
    out = {"image": f"{size}x{size}x3", "lossless": True,
           "model_per_symbol": model_per_symbol(), "workers": {}}
    streams = set()
    for workers in workers_list:
        row = {}
        for backend in ("vectorized", "native"):
            params = EncoderParams(
                workers=workers,
                tier1_backend="auto" if backend == "native" else backend,
            )
            encode(img, params)  # warm-up: pools, caches, kernel load
            totals, tier1 = [], []
            for _ in range(repeats):
                result = encode(img, params)
                totals.append(result.timings.total)
                tier1.append(result.timings.tier1)
            streams.add(result.codestream)
            symbols = sum(b.total_symbols for b in result.stats.blocks)
            row[backend] = {
                "median_s": statistics.median(totals),
                "tier1_median_s": statistics.median(tier1),
                "repeats": repeats,
                "symbols": symbols,
                "tier1_ns_per_symbol":
                    statistics.median(tier1) * 1e9 / symbols,
                "tier1_dispatch": result.stats.tier1_dispatch,
            }
        row["tier1_speedup"] = _speedup(row["vectorized"]["tier1_median_s"],
                                        row["native"]["tier1_median_s"])
        row["encode_speedup"] = _speedup(row["vectorized"]["median_s"],
                                         row["native"]["median_s"])
        out["workers"][str(workers)] = row
    out["codestreams_identical"] = len(streams) == 1
    return out


def gate_native(repeats: int) -> int:
    """Fail unless the kernel loaded and its Tier-1 time is >= 5x faster."""
    if _t1_enc_native.native_encode_block is None:
        print("gate-native: FAIL (the native Tier-1 encode kernel did not "
              "load: no C compiler, failed build, or REPRO_MQ_NATIVE=0)")
        return 1
    res = bench_native_full_image(NATIVE_GATE_SIZE, repeats, (1,))
    row = res["workers"]["1"]
    print(f"{res['image']} lossless, 1 worker, Tier-1: "
          f"vectorized {row['vectorized']['tier1_median_s']:.3f} s"
          f"  native {row['native']['tier1_median_s']:.3f} s"
          f" ({row['native']['tier1_ns_per_symbol']:.0f} ns/symbol)"
          f"  speedup {row['tier1_speedup']:.1f}x"
          f"  (floor {NATIVE_MIN_SPEEDUP}x, "
          f"identical={res['codestreams_identical']})")
    ok = (res["codestreams_identical"]
          and row["tier1_speedup"] >= NATIVE_MIN_SPEEDUP)
    print("gate-native:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny image + few repeats (CI)")
    ap.add_argument("--gate-batched", action="store_true",
                    help="run only the many-small-blocks comparison and "
                         f"fail unless batched >= {BATCHED_MIN_SPEEDUP}x "
                         "vectorized at 1 worker (CI quick gate)")
    ap.add_argument("--gate-native", action="store_true",
                    help="run only the 512x512x3 one-worker comparison and "
                         f"fail unless native Tier-1 >= {NATIVE_MIN_SPEEDUP}x "
                         "vectorized (fails if the kernel did not load)")
    ap.add_argument("--output", default=None,
                    help="JSON path (default: BENCH_tier1.json at repo root)")
    add_repeats_flag(ap)
    args = ap.parse_args(argv)
    repeats = check_repeats(args.repeats)

    block_repeats = max(repeats, 3 if args.smoke else 9)
    image_size = 96 if args.smoke else 192
    image_repeats = repeats

    if args.gate_batched:
        sb = bench_batched_small_blocks(96, max(repeats, 3))
        print(f"{sb['image']} codeblock=16: "
              f"vectorized {sb['backends']['vectorized']['median_s']:.3f} s"
              f"  batched {sb['backends']['batched']['median_s']:.3f} s"
              f"  speedup {sb['speedup']:.2f}x"
              f"  (floor {BATCHED_MIN_SPEEDUP}x, "
              f"identical={sb['codestreams_identical']})")
        ok = sb["codestreams_identical"] and sb["speedup"] >= BATCHED_MIN_SPEEDUP
        print("gate-batched:", "PASS" if ok else "FAIL")
        return 0 if ok else 1
    if args.gate_native:
        return gate_native(repeats)

    from repro.jpeg2000 import _mq_native

    report = bench_report(
        "tier1_hotpath",
        machine_extra={
            "mq_native_kernel": _mq_native.native_encode_run is not None,
            "t1_enc_native_kernel":
                _t1_enc_native.native_encode_block is not None,
        },
        smoke=args.smoke,
        codeblock_64x64_dense=bench_codeblock(block_repeats),
        batched_small_blocks=bench_batched_small_blocks(
            image_size, image_repeats
        ),
        full_image_encode=bench_full_image(image_size, image_repeats),
        native_full_image=bench_native_full_image(
            96 if args.smoke else NATIVE_GATE_SIZE, image_repeats
        ),
    )

    cb = report["codeblock_64x64_dense"]
    sb = report["batched_small_blocks"]
    fi = report["full_image_encode"]
    nf = report["native_full_image"]
    for backend in ("reference", "vectorized", "native"):
        if backend in cb:
            r = cb[backend]
            print(f"dense 64x64 block, {backend:10s}: "
                  f"{r['median_s']*1e3:8.2f} ms"
                  f"  {r['ns_per_symbol']:8.0f} ns/symbol")
    print(f"{sb['image']} codeblock=16 ({sb['batch_blocks']} blocks, "
          f"{sb['batch_groups']} groups): "
          + "  ".join(f"{name} {r['median_s']:.3f} s"
                      for name, r in sb["backends"].items())
          + f"  batched/vectorized speedup {sb['speedup']:.2f}x")
    model = nf["model_per_symbol"]
    for w, row in nf["workers"].items():
        print(f"{nf['image']} lossless, {w} worker(s), Tier-1: "
              f"vectorized {row['vectorized']['tier1_median_s']:.3f} s"
              f"  native {row['native']['tier1_median_s']:.3f} s"
              f" ({row['native']['tier1_ns_per_symbol']:.0f} ns/symbol)"
              f"  speedup {row['tier1_speedup']:.1f}x")
    print(f"simulator estimate: {model['ops_per_symbol']:.0f} ops/symbol, "
          f"PPE {model['ppe_ns_per_symbol']:.0f} ns/symbol, "
          f"SPE {model['spe_ns_per_symbol']:.0f} ns/symbol at 3.2 GHz")
    for w in WORKER_COUNTS:
        r = fi["workers"][str(w)]
        print(f"{fi['image']} encode, {w} worker(s): {r['median_s']:8.2f} s"
              f"  ({r['speedup_vs_1']:.2f}x vs 1)")
    print(f"codestreams identical across worker counts: "
          f"{fi['codestreams_identical']}  (cpu_count={os.cpu_count()})")

    write_bench_json(report, "BENCH_tier1.json", args.output)

    if not (fi["codestreams_identical"] and sb["codestreams_identical"]
            and nf["codestreams_identical"]):
        return 1  # determinism is an acceptance criterion, fail loudly
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
