"""Optional compiled kernel for whole-block Tier-1 encoding.

The NumPy encoders (:mod:`repro.jpeg2000.tier1_vec`,
:mod:`repro.jpeg2000.tier1_batch`) batch the context modelling of each
pass but still pay Python and NumPy dispatch per pass per block, and
that — not the MQ coder — is where nearly all of their time goes.  This
module compiles the *entire* encoder of one code block to native code:
SPP/MRP/CUP over every bit plane, the MQ encoder, each pass's safe
truncation length, symbol count and distortion, the SETBITS flush,
trailing-0xFF trim and pass-length clipping.  It is the host analogue of
the paper's Tier-1 SPE kernel, which codes one 64x64 block per call.

Design constraints mirror :mod:`repro.jpeg2000._t1_dec_native`:

* **Byte-exact**: the C code transliterates
  :func:`repro.jpeg2000.tier1.encode_codeblock_reference`, with the same
  incremental neighbour-count keys as the decode kernel.  The MQ tables,
  context constants and sign LUT are generated from
  :mod:`repro.jpeg2000.mq`, :mod:`repro.jpeg2000.tier1` and
  :mod:`repro.jpeg2000.tier1_geom`; the neighbour tables are
  ``tier1_geom.geometry(h, w).nbr``.  ``pass_dist`` is a float64 sum in
  scan order of the reference's own expressions (``v*v - e1*e1``,
  ``e0*e0 - e1*e1``), built without FMA contraction (see
  :mod:`repro.jpeg2000._native_build`), because PCRD-opt slopes and so
  the lossy bytes are built from it.
* **Bounded**: every output write is bounds-checked in C.  A block with
  more than :data:`MAX_MSBS` magnitude bit planes, or whose coded data
  would exceed :data:`OUT_BYTES_PER_SAMPLE` bytes per sample (plus a
  fixed slack), is refused: :func:`native_encode_block` returns ``None``
  and the caller codes it with the NumPy path instead.
* **Optional**: with no compiler, a failed build, or ``REPRO_MQ_NATIVE=0``,
  :data:`native_encode_block` is ``None`` and every caller runs exactly
  as it would without this module.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from repro.jpeg2000 import tier1_geom
from repro.jpeg2000._native_build import load_library
from repro.jpeg2000.mq import STATE_TABLE
from repro.jpeg2000.tier1 import (
    CTX_RUNLEN,
    CTX_UNIFORM,
    INITIAL_STATES,
    NUM_CONTEXTS,
    PASS_CLEAN,
    PASS_REF,
    PASS_SIG,
    CodeBlockResult,
)

#: Most magnitude bit planes the kernel codes.  62 keeps every shift and
#: reconstruction value of the distortion terms inside int64.
MAX_MSBS = 62

#: Output capacity per sample; a block that would code more bytes than
#: ``n * OUT_BYTES_PER_SAMPLE + OUT_SLACK`` is refused (NumPy fallback).
#: Real blocks code well under one byte per sample per bit plane.
OUT_BYTES_PER_SAMPLE = 16
OUT_SLACK = 256

_MAXN = 64 * 64
_MAX_PASSES = 3 * MAX_MSBS - 2

_C_TEMPLATE = r"""
#include <stdint.h>
#include <string.h>

static const uint16_t QE[{nstates}] = {{{qe}}};
static const uint8_t NMPS[{nstates}] = {{{nmps}}};
static const uint8_t NLPS[{nstates}] = {{{nlps}}};
static const uint8_t SWITCH_[{nstates}] = {{{switch}}};
static const uint8_t SIGN_CTX[9] = {{{sign_ctx}}};
static const uint8_t SIGN_XOR[9] = {{{sign_xor}}};

#define NCX {ncx}
#define CTX_RUNLEN {ctx_runlen}
#define CTX_UNIFORM {ctx_uniform}
#define MAXN {maxn}
#define MAX_MSBS {max_msbs}
#define MAX_PASSES {max_passes}
#define ERR_OVERFLOW (-1L)
#define ERR_LIMIT (-2L)

/* Append the byte under construction (if any) and start a new one. */
#define EMIT(byte) do {{ \
    if (b >= 0) {{ \
        if (olen >= cap) return ERR_OVERFLOW; \
        out[olen++] = (uint8_t)b; \
    }} \
    b = (int)(byte); \
}} while (0)

#define BYTEOUT do {{ \
    if (b == 0xFF) {{ \
        EMIT((c >> 20) & 0xFF); c &= 0xFFFFFu; ct = 7; \
    }} else if (c < 0x8000000u) {{ \
        EMIT((c >> 19) & 0xFF); c &= 0x7FFFFu; ct = 8; \
    }} else {{ \
        if (b >= 0) b += 1; \
        if (b == 0xFF) {{ \
            c &= 0x7FFFFFFu; \
            EMIT((c >> 20) & 0xFF); c &= 0xFFFFFu; ct = 7; \
        }} else {{ \
            EMIT((c >> 19) & 0xFF); c &= 0x7FFFFu; ct = 8; \
        }} \
    }} \
}} while (0)

#define MQ_ENCODE(bitexp, cxexp) do {{ \
    int _bit = (bitexp); \
    int _cx = (cxexp); \
    int _idx = index_[_cx]; \
    uint32_t _qe = QE[_idx]; \
    uint32_t _na = a - _qe; \
    sym += 1; \
    if (_bit == mps[_cx]) {{ \
        if (_na & 0x8000u) {{ a = _na; c += _qe; break; }} \
        if (_na < _qe) {{ a = _qe; }} else {{ a = _na; c += _qe; }} \
        index_[_cx] = NMPS[_idx]; \
    }} else {{ \
        if (_na < _qe) {{ c += _qe; a = _na; }} else {{ a = _qe; }} \
        if (SWITCH_[_idx]) mps[_cx] = 1 - mps[_cx]; \
        index_[_cx] = NLPS[_idx]; \
    }} \
    do {{ \
        a = (a << 1) & 0xFFFFu; \
        c = (c << 1) & 0xFFFFFFFu; \
        if (--ct == 0) BYTEOUT; \
    }} while (!(a & 0x8000u)); \
}} while (0)

/* Sample i becomes significant at plane p: code its sign, record it,
   add its distortion reduction, bump the neighbours' context keys. */
#define BECOME_SIG(iexp) do {{ \
    long _i = (iexp); \
    const int32_t *_nb = nbr + _i * 8; \
    int _hc = (sig[_nb[0]] ? (1 - 2 * sgn[_nb[0]]) : 0) \
            + (sig[_nb[1]] ? (1 - 2 * sgn[_nb[1]]) : 0); \
    int _vc = (sig[_nb[2]] ? (1 - 2 * sgn[_nb[2]]) : 0) \
            + (sig[_nb[3]] ? (1 - 2 * sgn[_nb[3]]) : 0); \
    if (_hc > 1) _hc = 1; else if (_hc < -1) _hc = -1; \
    if (_vc > 1) _vc = 1; else if (_vc < -1) _vc = -1; \
    int _k9 = (_hc + 1) * 3 + (_vc + 1); \
    MQ_ENCODE(sgn[_i] ^ SIGN_XOR[_k9], SIGN_CTX[_k9]); \
    sig[_i] = 1; \
    dist += dist_become(mag[_i], p); \
    key[_nb[0]] += 15; key[_nb[1]] += 15; \
    key[_nb[2]] += 5;  key[_nb[3]] += 5; \
    key[_nb[4]] += 1;  key[_nb[5]] += 1; \
    key[_nb[6]] += 1;  key[_nb[7]] += 1; \
}} while (0)

#define END_PASS do {{ \
    pass_len[npass] = olen + (b >= 0) + 4; \
    pass_sym[npass] = sym; \
    pass_dist[npass] = dist; \
    npass += 1; sym = 0; dist = 0.0; \
}} while (0)

static double dist_become(int64_t m, int p)
{{
    double v = (double)m;
    int64_t rec = ((m >> p) << p) + (((int64_t)1 << p) >> 1);
    double e1 = v - (double)rec;
    return v * v - e1 * e1;
}}

static double dist_refine(int64_t m, int p)
{{
    double v = (double)m;
    int64_t rec_prev = ((m >> (p + 1)) << (p + 1))
                       + (((int64_t)1 << (p + 1)) >> 1);
    int64_t rec = ((m >> p) << p) + (((int64_t)1 << p) >> 1);
    double e0 = v - (double)rec_prev;
    double e1 = v - (double)rec;
    return e0 * e0 - e1 * e1;
}}

/* Returns the coded length, ERR_OVERFLOW when the data would exceed cap,
   or ERR_LIMIT for a block outside the kernel's limits.  meta[0] gets
   msbs; meta[1..] the clipped pass lengths, meta[1+MAX_PASSES..] the
   per-pass symbol counts. */
long t1_encode_block(const int64_t *coeffs, int height, int width,
                     const uint8_t *lut, const int32_t *nbr,
                     uint8_t *out, int cap, int64_t *meta,
                     double *pass_dist)
{{
    long n = (long)height * width;
    if (n <= 0 || n > MAXN) return ERR_LIMIT;
    int64_t mag[MAXN];
    uint8_t sgn[MAXN + 1];
    uint8_t sig[MAXN + 1];
    uint8_t key[MAXN + 1];
    uint8_t visited[MAXN];
    uint8_t refined[MAXN];
    uint64_t bits = 0;
    for (long i = 0; i < n; i++) {{
        int64_t v = coeffs[i];
        if (v == INT64_MIN) return ERR_LIMIT;
        mag[i] = v < 0 ? -v : v;
        sgn[i] = v < 0;
        bits |= (uint64_t)mag[i];
    }}
    int msbs = 0;
    while (bits >> msbs) msbs++;
    meta[0] = msbs;
    if (msbs == 0) return 0;
    if (msbs > MAX_MSBS) return ERR_LIMIT;
    memset(sig, 0, n + 1);
    memset(key, 0, n + 1);
    memset(visited, 0, n);
    memset(refined, 0, n);

    int32_t index_[NCX];
    int32_t mps[NCX];
    memset(index_, 0, sizeof(index_));
    memset(mps, 0, sizeof(mps));
{init_states}

    uint32_t a = 0x8000;
    uint64_t c = 0;
    int ct = 12;
    int b = -1;               /* byte under construction; -1 = none yet */
    long olen = 0;
    int64_t *pass_len = meta + 1;
    int64_t *pass_sym = meta + 1 + MAX_PASSES;
    int npass = 0;
    int64_t sym = 0;
    double dist = 0.0;

    for (int p = msbs - 1; p >= 0; p--) {{
        if (p != msbs - 1) {{
            /* Significance propagation pass */
            for (int top = 0; top < height; top += 4) {{
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {{
                    for (int r = top; r < bot; r++) {{
                        long i = (long)r * width + col;
                        if (sig[i] || !key[i]) {{ visited[i] = 0; continue; }}
                        int bit = (int)((mag[i] >> p) & 1);
                        MQ_ENCODE(bit, lut[key[i]]);
                        if (bit) BECOME_SIG(i);
                        visited[i] = 1;
                    }}
                }}
            }}
            END_PASS;
            /* Magnitude refinement pass */
            for (int top = 0; top < height; top += 4) {{
                int bot = (top + 4 < height) ? top + 4 : height;
                for (int col = 0; col < width; col++) {{
                    for (int r = top; r < bot; r++) {{
                        long i = (long)r * width + col;
                        if (!sig[i] || visited[i]) continue;
                        int cx = refined[i] ? 16 : (key[i] ? 15 : 14);
                        MQ_ENCODE((int)((mag[i] >> p) & 1), cx);
                        refined[i] = 1;
                        dist += dist_refine(mag[i], p);
                    }}
                }}
            }}
            END_PASS;
        }}
        /* Cleanup pass */
        for (int top = 0; top < height; top += 4) {{
            int nrows = (height - top < 4) ? height - top : 4;
            for (int col = 0; col < width; col++) {{
                long i0 = (long)top * width + col;
                int start = 0;
                if (nrows == 4) {{
                    long ia = i0, ib = i0 + width;
                    long ic = ib + width, id_ = ic + width;
                    if (!(sig[ia] | visited[ia] | key[ia]
                          | sig[ib] | visited[ib] | key[ib]
                          | sig[ic] | visited[ic] | key[ic]
                          | sig[id_] | visited[id_] | key[id_])) {{
                        int first = 0;
                        while (first < 4
                               && !((mag[i0 + (long)first * width] >> p) & 1))
                            first++;
                        if (first == 4) {{
                            MQ_ENCODE(0, CTX_RUNLEN);
                            continue;
                        }}
                        MQ_ENCODE(1, CTX_RUNLEN);
                        MQ_ENCODE((first >> 1) & 1, CTX_UNIFORM);
                        MQ_ENCODE(first & 1, CTX_UNIFORM);
                        BECOME_SIG(i0 + (long)first * width);
                        start = first + 1;
                    }}
                }}
                for (int k = start; k < nrows; k++) {{
                    long i = i0 + (long)k * width;
                    if (sig[i] || visited[i]) continue;
                    int bit = (int)((mag[i] >> p) & 1);
                    MQ_ENCODE(bit, lut[key[i]]);
                    if (bit) BECOME_SIG(i);
                }}
            }}
        }}
        END_PASS;
    }}

    /* FLUSH: SETBITS, two byte-outs, final byte, trailing 0xFF trim. */
    uint64_t temp = c + a - 1;
    c |= 0xFFFFu;
    if (c > temp) c -= 0x8000u;
    c <<= ct;
    BYTEOUT;
    c <<= ct;
    BYTEOUT;
    if (b >= 0) {{
        if (olen >= cap) return ERR_OVERFLOW;
        out[olen++] = (uint8_t)b;
    }}
    while (olen > 0 && out[olen - 1] == 0xFF) olen--;
    for (int k = 0; k < npass; k++)
        if (pass_len[k] > olen) pass_len[k] = olen;
    pass_len[npass - 1] = olen;
    return olen;
}}
"""


def _c_source() -> str:
    init_states = "\n".join(
        f"    index_[{cx}] = {state};"
        for cx, state in sorted(INITIAL_STATES.items())
    )
    return _C_TEMPLATE.format(
        nstates=len(STATE_TABLE),
        qe=", ".join(f"0x{q:04X}" for q, _, _, _ in STATE_TABLE),
        nmps=", ".join(str(v) for _, v, _, _ in STATE_TABLE),
        nlps=", ".join(str(v) for _, _, v, _ in STATE_TABLE),
        switch=", ".join(str(v) for _, _, _, v in STATE_TABLE),
        sign_ctx=", ".join(str(cx) for cx, _ in tier1_geom.SIGN_LUT),
        sign_xor=", ".join(str(x) for _, x in tier1_geom.SIGN_LUT),
        ncx=NUM_CONTEXTS,
        ctx_runlen=CTX_RUNLEN,
        ctx_uniform=CTX_UNIFORM,
        maxn=_MAXN,
        max_msbs=MAX_MSBS,
        max_passes=_MAX_PASSES,
        init_states=init_states,
    )


def _bind(lib):
    """The entry point, called with ``c_void_p`` pointers and small ints.

    No ``argtypes``: per-call argument conversion would cost more than
    coding a small block.  Every pointer is passed as a prebuilt
    ``c_void_p`` and every integer argument is a C ``int``.
    """
    fn = lib.t1_encode_block
    fn.restype = ctypes.c_long
    return fn


#: Pass kinds in coding order for each msbs: one CUP, then SPP/MRP/CUP.
_PASS_KINDS = [()] + [
    (PASS_CLEAN,) + (PASS_SIG, PASS_REF, PASS_CLEAN) * (ms - 1)
    for ms in range(1, MAX_MSBS + 1)
]


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(arr.ctypes.data)


class _Scratch(threading.local):
    """Per-thread kernel buffers, their addresses, and 2-D input views."""

    def __init__(self) -> None:
        self.coeffs = np.empty(_MAXN, dtype=np.int64)
        self.out = np.empty(_MAXN * OUT_BYTES_PER_SAMPLE + OUT_SLACK,
                            dtype=np.uint8)
        self.meta = np.empty(1 + 2 * _MAX_PASSES, dtype=np.int64)
        self.dist = np.empty(_MAX_PASSES, dtype=np.float64)
        # .ctypes.data costs microseconds per access; read it once.
        self.coeffs_ptr = _ptr(self.coeffs)
        self.out_ptr = _ptr(self.out)
        self.meta_ptr = _ptr(self.meta)
        self.dist_ptr = _ptr(self.dist)
        self.views: dict[tuple[int, int], np.ndarray] = {}


def _make_wrapper(fn):
    scratch = _Scratch()
    pinned = []  # keeps every array whose raw address the kernel is given

    def pin(arr: np.ndarray) -> ctypes.c_void_p:
        pinned.append(arr)
        return _ptr(arr)

    luts = {band: pin(tier1_geom.sig_lut_array(band))
            for band in ("LL", "LH", "HL", "HH")}
    nbrs: dict[tuple[int, int], ctypes.c_void_p] = {}
    lengths = slice(1, 1 + _MAX_PASSES)
    symbols = slice(1 + _MAX_PASSES, 1 + 2 * _MAX_PASSES)

    def native_encode_block(arr: np.ndarray, band: str):
        """Encode one validated 2-D block; ``None`` if outside the limits."""
        lut = luts.get(band)
        if lut is None:
            tier1_geom.sig_lut_for_band(band)  # raises on unknown bands
        shape = arr.shape
        nbr = nbrs.get(shape)
        if nbr is None:
            nbr = nbrs[shape] = pin(tier1_geom.geometry(*shape).nbr)
        s = scratch
        view = s.views.get(shape)
        if view is None:
            view = s.views[shape] = s.coeffs[:arr.size].reshape(shape)
        np.copyto(view, arr, casting="unsafe")
        cap = min(arr.size * OUT_BYTES_PER_SAMPLE + OUT_SLACK, s.out.size)
        olen = fn(s.coeffs_ptr, shape[0], shape[1], lut, nbr, s.out_ptr,
                  cap, s.meta_ptr, s.dist_ptr)
        if olen < 0:
            return None
        msbs = int(s.meta[0])
        if msbs == 0:
            return CodeBlockResult(data=b"", num_passes=0, msbs=0)
        npass = 3 * msbs - 2
        return CodeBlockResult(
            data=ctypes.string_at(s.out_ptr, olen),
            num_passes=npass,
            msbs=msbs,
            pass_types=list(_PASS_KINDS[msbs]),
            pass_lengths=s.meta[lengths][:npass].tolist(),
            pass_dist=s.dist[:npass].tolist(),
            pass_symbols=s.meta[symbols][:npass].tolist(),
        )

    return native_encode_block


#: Callable ``(block, band) -> CodeBlockResult | None`` (``None`` for a
#: block outside the kernel's limits), or None when the kernel is
#: unavailable.  ``block`` must already be validated (2-D, at most 64x64).
native_encode_block = None

_lib = load_library("t1enc", _c_source())
if _lib is not None:
    native_encode_block = _make_wrapper(_bind(_lib))
