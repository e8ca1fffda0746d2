"""Differential tests: the compiled whole-block Tier-1 encoder vs. the oracle.

The kernel in :mod:`repro.jpeg2000._t1_enc_native` replaces the NumPy
pass logic under ``auto`` and ``batched``.  Rate control consumes every
byte, pass length, symbol count and distortion float it produces, so each
field must equal :func:`encode_codeblock_reference` exactly.  ``pass_dist``
is compared through ``float.hex()``: unlike ``==`` it tells ``-0.0`` from
``0.0``, and a failure shows the differing bits.  Whole-path tests pin
the batched coder and pooled encodes to the bytes they give with the
kernel switched off.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.workpool import CodeBlockTask, CodeBlockWorkQueue
from repro.image.synthetic import watch_face_image
from repro.jpeg2000 import _t1_enc_native, tier1_geom
from repro.jpeg2000.encoder import encode
from repro.jpeg2000.params import EncoderParams
from repro.jpeg2000.tier1 import encode_codeblock, encode_codeblock_reference
from repro.jpeg2000.tier1_batch import BatchOccupancy, encode_codeblocks_batched
from repro.service.pool import PersistentWorkerPool

pytestmark = pytest.mark.skipif(
    _t1_enc_native.native_encode_block is None,
    reason="native Tier-1 encode kernel unavailable (no compiler or "
           "REPRO_MQ_NATIVE=0)",
)

BANDS = ["LL", "LH", "HL", "HH"]
SHAPES = [(1, 1), (2, 2), (3, 5), (4, 64), (5, 7), (63, 64), (64, 64)]


def native(cb, band):
    return _t1_enc_native.native_encode_block(np.asarray(cb), band)


def assert_same(got, ref):
    assert got is not None, "kernel refused a block inside its limits"
    assert got.data == ref.data
    assert got.msbs == ref.msbs
    assert got.num_passes == ref.num_passes
    assert got.pass_types == ref.pass_types
    assert got.pass_lengths == ref.pass_lengths
    assert got.pass_symbols == ref.pass_symbols
    assert [d.hex() for d in got.pass_dist] == [d.hex() for d in ref.pass_dist]


def content(kind: str, shape, rng) -> np.ndarray:
    h, w = shape
    if kind == "zero":
        return np.zeros(shape, dtype=np.int32)
    if kind == "single":
        cb = np.zeros(shape, dtype=np.int32)
        cb[h // 2, w // 2] = -37
        return cb
    if kind == "sparse":
        cb = rng.integers(-60, 61, size=shape)
        return (cb * (rng.random(shape) < 0.06)).astype(np.int32)
    if kind == "dense":
        return rng.integers(-2000, 2001, size=shape).astype(np.int32)
    if kind == "negative":
        return -rng.integers(1, 500, size=shape).astype(np.int32)
    if kind == "huge":
        # Magnitudes from 2**30 up to the kernel's 62-plane limit.
        cb = rng.integers(-(2**40), 2**40, size=shape, dtype=np.int64)
        cb.flat[0] = 2**30
        cb.flat[-1] = -(2**_t1_enc_native.MAX_MSBS - 1)
        return cb
    raise AssertionError(kind)


class TestKernelVsReference:
    @pytest.mark.parametrize("band", BANDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_shapes_and_bands(self, shape, band):
        rng = np.random.default_rng(shape[0] * 131 + shape[1])
        cb = content("dense", shape, rng)
        assert_same(native(cb, band), encode_codeblock_reference(cb, band))

    @pytest.mark.parametrize("kind",
                             ["zero", "single", "sparse", "dense", "negative"])
    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (16, 16), (32, 20)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_content_kinds(self, kind, shape):
        rng = np.random.default_rng(sum(map(ord, kind)) * 97 + shape[0])
        cb = content(kind, shape, rng)
        for band in BANDS:
            assert_same(native(cb, band), encode_codeblock_reference(cb, band))

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 9)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_magnitudes_past_2_to_30(self, shape):
        rng = np.random.default_rng(30)
        cb = content("huge", shape, rng)
        ref = encode_codeblock_reference(cb, "HH")
        assert ref.msbs == _t1_enc_native.MAX_MSBS
        assert_same(native(cb, "HH"), ref)

    def test_int32_extremes(self):
        cb = np.array([[2**31 - 1, -(2**31) + 1], [0, -(2**31)]],
                      dtype=np.int64)
        assert_same(native(cb, "LL"), encode_codeblock_reference(cb, "LL"))

    def test_random_sweep(self):
        rng = np.random.default_rng(2008)
        for trial in range(40):
            shape = tuple(int(v) for v in rng.integers(1, 25, size=2))
            kind = ["sparse", "dense", "negative"][trial % 3]
            band = BANDS[trial % 4]
            cb = content(kind, shape, rng)
            assert_same(native(cb, band), encode_codeblock_reference(cb, band))

    def test_results_are_independent_objects(self):
        cb = content("dense", (8, 8), np.random.default_rng(1))
        a, b = native(cb, "LL"), native(cb, "LL")
        a.pass_lengths.append(-1)
        a.pass_types.append("X")
        assert b == encode_codeblock_reference(cb, "LL")

    def test_concurrent_threads(self):
        # The GIL is released during the kernel call; each thread must
        # code into its own buffers.
        rng = np.random.default_rng(17)
        blocks = [(content("dense", (16, 8 + k % 24), rng), BANDS[k % 4])
                  for k in range(64)]
        expected = [native(cb, band) for cb, band in blocks]
        with ThreadPoolExecutor(max_workers=4) as ex:
            for _ in range(3):
                got = list(ex.map(lambda item: native(*item), blocks))
                assert got == expected

    def test_unknown_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            native(np.ones((4, 4), np.int32), "XX")


class TestLimits:
    """Blocks just past the kernel's limits fall back, never overflow."""

    def test_too_many_bit_planes_falls_back(self):
        cb = np.zeros((8, 8), dtype=np.int64)  # auto's kernel-size minimum
        cb[0, 1] = 2**_t1_enc_native.MAX_MSBS  # one plane past the limit
        cb[5, 2] = -5
        assert native(cb, "HL") is None
        ref = encode_codeblock_reference(cb, "HL")
        assert ref.msbs == _t1_enc_native.MAX_MSBS + 1
        assert encode_codeblock(cb, "HL") == ref
        (batched,) = encode_codeblocks_batched([(cb, "HL")])
        assert batched == ref

    def test_output_bound_is_exact(self, monkeypatch):
        # With no per-sample allowance the capacity is OUT_SLACK alone:
        # find the smallest one that codes this block, then check one byte
        # less is refused and the auto path still gives the oracle bytes.
        cb = content("dense", (16, 16), np.random.default_rng(5))
        ref = encode_codeblock_reference(cb, "LH")
        monkeypatch.setattr(_t1_enc_native, "OUT_BYTES_PER_SAMPLE", 0)
        lo, hi = 0, len(ref.data) + 64
        monkeypatch.setattr(_t1_enc_native, "OUT_SLACK", hi)
        assert_same(native(cb, "LH"), ref)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            monkeypatch.setattr(_t1_enc_native, "OUT_SLACK", mid)
            if native(cb, "LH") is None:
                lo = mid
            else:
                hi = mid
        assert hi >= len(ref.data)
        monkeypatch.setattr(_t1_enc_native, "OUT_SLACK", hi)
        assert_same(native(cb, "LH"), ref)
        monkeypatch.setattr(_t1_enc_native, "OUT_SLACK", hi - 1)
        assert native(cb, "LH") is None
        assert encode_codeblock(cb, "LH") == ref
        assert encode_codeblocks_batched([(cb, "LH")]) == [ref]

    def test_c_kernel_never_writes_past_capacity(self):
        cb = np.ascontiguousarray(
            content("dense", (32, 32), np.random.default_rng(9)),
            dtype=np.int64,
        )
        cap = 40
        out = np.full(cap + 256, 0xA5, dtype=np.uint8)
        meta = np.zeros(1 + 2 * (3 * _t1_enc_native.MAX_MSBS - 2),
                        dtype=np.int64)
        dist = np.zeros(3 * _t1_enc_native.MAX_MSBS - 2, dtype=np.float64)
        fn = _t1_enc_native._lib.t1_encode_block
        ptr = _t1_enc_native._ptr
        ret = fn(ptr(cb), 32, 32, ptr(tier1_geom.sig_lut_array("HL")),
                 ptr(tier1_geom.geometry(32, 32).nbr), ptr(out), cap,
                 ptr(meta), ptr(dist))
        assert ret == -1
        assert (out[cap:] == 0xA5).all()


def _without_kernel(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(_t1_enc_native, "native_encode_block", None)
        return fn()


class TestWholePaths:
    def test_batched_mixed_and_ragged_stacks(self, monkeypatch):
        rng = np.random.default_rng(11)
        shapes = [(16, 16), (16, 1), (1, 16), (3, 16), (16, 5), (7, 11),
                  (64, 64), (63, 64)]
        blocks = []
        for k in range(24):
            shape = shapes[k % len(shapes)]
            kind = ["sparse", "dense", "negative", "zero"][k % 4]
            blocks.append((content(kind, shape, rng), BANDS[(k // 2) % 4]))
        occ_on, occ_off = BatchOccupancy(), BatchOccupancy()
        with_kernel = encode_codeblocks_batched(blocks, occ_on)
        without = _without_kernel(
            monkeypatch, lambda: encode_codeblocks_batched(blocks, occ_off)
        )
        assert with_kernel == without
        assert occ_on == occ_off
        for got, (cb, band) in zip(with_kernel[:8], blocks):
            assert_same(got, encode_codeblock_reference(cb, band))

    @pytest.mark.parametrize("kw", [dict(), dict(lossless=False, rate=0.25)],
                             ids=["lossless", "rate0.25"])
    def test_pooled_encode_identical_on_and_off(self, kw, monkeypatch):
        monkeypatch.setenv("REPRO_TIER1_AUTO_SERIAL", "0")
        img = watch_face_image(80, 72, channels=3)
        params = EncoderParams(levels=3, workers=2, **kw)
        on = encode(img, params)
        off = _without_kernel(monkeypatch, lambda: encode(img, params))
        assert on.codestream == off.codestream
        assert on.stats.tier1_dispatch == off.stats.tier1_dispatch
        assert on.stats.tier1_dispatch.startswith("batched")
        serial = encode(img, EncoderParams(levels=3, **kw))
        assert serial.codestream == on.codestream

    def test_persistent_pool_blocks_identical_on_and_off(self, monkeypatch):
        # The service's per-block path: workers run encode_codeblock(auto).
        rng = np.random.default_rng(3)
        tasks = [
            CodeBlockTask(i, content(["dense", "sparse"][i % 2],
                                     (16 + i, 24), rng), BANDS[i % 4])
            for i in range(6)
        ]
        with PersistentWorkerPool(workers=2) as pool:
            on = CodeBlockWorkQueue(pool=pool).encode_all(tasks)
        off = _without_kernel(
            monkeypatch,
            lambda: [encode_codeblock(t.coeffs, t.band, backend="vectorized")
                     for t in tasks],
        )
        assert on == off
        for got, t in zip(on, tasks):
            assert_same(got, encode_codeblock_reference(t.coeffs, t.band))
