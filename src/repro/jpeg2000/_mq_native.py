"""Optional compiled kernel for the batched MQ encoder loop.

The MQ coder is the one part of Tier-1 that cannot be vectorized: every
decision updates the (A, C) interval registers that the next decision
reads.  :meth:`repro.jpeg2000.mq.MQEncoder.encode_run` therefore consumes
the whole per-pass decision stream in one loop — and this module, when a C
compiler is present, compiles that loop to native code at first use and
drives it through :mod:`ctypes`.  This is the Python-world analogue of the
paper running Tier-1 on the SPEs: the context modelling is batched (NumPy,
in :mod:`repro.jpeg2000.tier1_vec`) and the serial arithmetic coder runs
at machine speed.

Design constraints:

* **Bit-exact**: the C loop is a transliteration of ``MQEncoder.encode``
  /``_renorm``/``_byteout``; the state tables are generated from
  :data:`repro.jpeg2000.mq.STATE_TABLE` so there is one source of truth.
* **Optional**: if no compiler is available, compilation fails, or the
  environment sets ``REPRO_MQ_NATIVE=0``, :data:`native_encode_run` is
  ``None`` and callers fall back to the pure-Python tight loop.  No
  third-party packages are involved — only the system C compiler.
* **Cached**: the shared object is built once per source hash in a
  per-user cache directory, so repeated processes (and multiprocessing
  workers under ``spawn``) just ``dlopen`` it.
"""

from __future__ import annotations

import ctypes

from repro.jpeg2000._native_build import load_library
from repro.jpeg2000.mq import STATE_TABLE

_C_TEMPLATE = r"""
#include <stdint.h>

static const uint16_t QE[{n}] = {{{qe}}};
static const uint8_t NMPS[{n}] = {{{nmps}}};
static const uint8_t NLPS[{n}] = {{{nlps}}};
static const uint8_t SWITCH_[{n}] = {{{switch}}};

long mq_encode_run(int32_t *index, int32_t *mps,
                   uint32_t *areg, uint32_t *creg,
                   int32_t *ctreg, int32_t *breg,
                   const uint8_t *bits, const uint8_t *ctxs, long nsym,
                   uint8_t *out)
{{
    uint32_t a = *areg, c = *creg;
    int32_t ct = *ctreg;
    int32_t b = *breg;             /* -1 encodes Python None */
    long olen = 0;
    for (long k = 0; k < nsym; k++) {{
        int cx = ctxs[k];
        int idx = index[cx];
        uint32_t qe = QE[idx];
        if (bits[k] == mps[cx]) {{
            uint32_t na = a - qe;
            if (na & 0x8000u) {{ a = na; c += qe; continue; }}
            if (na < qe) {{ a = qe; }} else {{ a = na; c += qe; }}
            index[cx] = NMPS[idx];
        }} else {{
            uint32_t na = a - qe;
            if (na < qe) {{ c += qe; a = na; }} else {{ a = qe; }}
            if (SWITCH_[idx]) mps[cx] = 1 - mps[cx];
            index[cx] = NLPS[idx];
        }}
        do {{
            a = (a << 1) & 0xFFFFu;
            c = (c << 1) & 0xFFFFFFFu;
            if (--ct == 0) {{
                if (b == 0xFF) {{
                    out[olen++] = (uint8_t)b;
                    b = (c >> 20) & 0xFF; c &= 0xFFFFFu; ct = 7;
                }} else if (c < 0x8000000u) {{
                    if (b >= 0) out[olen++] = (uint8_t)b;
                    b = (c >> 19) & 0xFF; c &= 0x7FFFFu; ct = 8;
                }} else {{
                    if (b >= 0) b += 1;
                    if (b == 0xFF) {{
                        c &= 0x7FFFFFFu;
                        out[olen++] = (uint8_t)b;
                        b = (c >> 20) & 0xFF; c &= 0xFFFFFu; ct = 7;
                    }} else {{
                        if (b >= 0) out[olen++] = (uint8_t)b;
                        b = (c >> 19) & 0xFF; c &= 0x7FFFFu; ct = 8;
                    }}
                }}
            }}
        }} while (!(a & 0x8000u));
    }}
    *areg = a; *creg = c; *ctreg = ct; *breg = b;
    return olen;
}}

long mq_decode_run(int32_t *index, int32_t *mps,
                   uint32_t *areg, uint32_t *creg,
                   int32_t *ctreg, long *bpreg, int32_t *breg,
                   const uint8_t *data, long dlen,
                   const uint8_t *ctxs, long nsym,
                   uint8_t *out_bits)
{{
    uint32_t a = *areg, c = *creg;
    int32_t ct = *ctreg;
    long bp = *bpreg;
    int32_t b = *breg;
    for (long k = 0; k < nsym; k++) {{
        int cx = ctxs[k];
        int idx = index[cx];
        uint32_t qe = QE[idx];
        int d;
        a -= qe;
        if (((c >> 16) & 0xFFFFu) < qe) {{
            if (a < qe) {{
                d = mps[cx];
                index[cx] = NMPS[idx];
            }} else {{
                d = 1 - mps[cx];
                if (SWITCH_[idx]) mps[cx] = d;
                index[cx] = NLPS[idx];
            }}
            a = qe;
        }} else {{
            c -= qe << 16;
            if (a & 0x8000u) {{ out_bits[k] = (uint8_t)mps[cx]; continue; }}
            if (a < qe) {{
                d = 1 - mps[cx];
                if (SWITCH_[idx]) mps[cx] = d;
                index[cx] = NLPS[idx];
            }} else {{
                d = mps[cx];
                index[cx] = NMPS[idx];
            }}
        }}
        do {{
            if (ct == 0) {{
                if (b == 0xFF) {{
                    if (((bp + 1 < dlen) ? data[bp + 1] : 0xFFu) > 0x8Fu) {{
                        c += 0xFF00u; ct = 8;
                    }} else {{
                        bp += 1; b = data[bp];
                        c += ((uint32_t)b) << 9; ct = 7;
                    }}
                }} else {{
                    bp += 1;
                    b = (bp < dlen) ? data[bp] : 0xFF;
                    c += ((uint32_t)b) << 8; ct = 8;
                }}
            }}
            a = (a << 1) & 0xFFFFu;
            c = c << 1;
            ct -= 1;
        }} while (!(a & 0x8000u));
        out_bits[k] = (uint8_t)d;
    }}
    *areg = a; *creg = c; *ctreg = ct; *bpreg = bp; *breg = b;
    return nsym;
}}
"""


def _c_source() -> str:
    return _C_TEMPLATE.format(
        n=len(STATE_TABLE),
        qe=", ".join(f"0x{q:04X}" for q, _, _, _ in STATE_TABLE),
        nmps=", ".join(str(n) for _, n, _, _ in STATE_TABLE),
        nlps=", ".join(str(n) for _, _, n, _ in STATE_TABLE),
        switch=", ".join(str(s) for _, _, _, s in STATE_TABLE),
    )


def _bind(lib):
    """Declare the two entry points' signatures on the loaded library."""
    fn = lib.mq_encode_run
    fn.restype = ctypes.c_long
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_int32),  # index
        ctypes.POINTER(ctypes.c_int32),  # mps
        ctypes.POINTER(ctypes.c_uint32),  # a
        ctypes.POINTER(ctypes.c_uint32),  # c
        ctypes.POINTER(ctypes.c_int32),  # ct
        ctypes.POINTER(ctypes.c_int32),  # b
        ctypes.c_char_p,  # bits
        ctypes.c_char_p,  # ctxs
        ctypes.c_long,  # nsym
        ctypes.POINTER(ctypes.c_uint8),  # out
    ]
    dfn = lib.mq_decode_run
    dfn.restype = ctypes.c_long
    dfn.argtypes = [
        ctypes.POINTER(ctypes.c_int32),  # index
        ctypes.POINTER(ctypes.c_int32),  # mps
        ctypes.POINTER(ctypes.c_uint32),  # a
        ctypes.POINTER(ctypes.c_uint32),  # c
        ctypes.POINTER(ctypes.c_int32),  # ct
        ctypes.POINTER(ctypes.c_long),  # bp
        ctypes.POINTER(ctypes.c_int32),  # b
        ctypes.c_char_p,  # data
        ctypes.c_long,  # dlen
        ctypes.c_char_p,  # ctxs
        ctypes.c_long,  # nsym
        ctypes.POINTER(ctypes.c_uint8),  # out_bits
    ]
    return fn, dfn


def _make_wrapper(fn):
    def native_encode_run(enc, bseq: bytes, cseq: bytes) -> None:
        """Drive the compiled loop with ``enc``'s state, then sync back."""
        ncx = len(enc._index)
        index = (ctypes.c_int32 * ncx)(*enc._index)
        mps = (ctypes.c_int32 * ncx)(*enc._mps)
        a = ctypes.c_uint32(enc._a)
        c = ctypes.c_uint32(enc._c)
        ct = ctypes.c_int32(enc._ct)
        b = ctypes.c_int32(-1 if enc._b is None else enc._b)
        n = len(bseq)
        # Worst case: every symbol renormalizes by the full 15 positions and
        # every 7 shifted bits emit a byte — 3n + slack is comfortably above.
        out = (ctypes.c_uint8 * (3 * n + 16))()
        olen = fn(index, mps, ctypes.byref(a), ctypes.byref(c),
                  ctypes.byref(ct), ctypes.byref(b),
                  bytes(bseq), bytes(cseq), n, out)
        enc._index[:] = index
        enc._mps[:] = mps
        enc._a = a.value
        enc._c = c.value
        enc._ct = ct.value
        enc._b = None if b.value < 0 else b.value
        if olen:
            enc._out += ctypes.string_at(out, olen)

    return native_encode_run


def _make_decode_wrapper(fn):
    def native_decode_run(dec, cseq: bytes) -> bytes:
        """Drive the compiled decode loop with ``dec``'s state, sync back."""
        ncx = len(dec._index)
        index = (ctypes.c_int32 * ncx)(*dec._index)
        mps = (ctypes.c_int32 * ncx)(*dec._mps)
        a = ctypes.c_uint32(dec._a)
        c = ctypes.c_uint32(dec._c)
        ct = ctypes.c_int32(dec._ct)
        bp = ctypes.c_long(dec._bp)
        b = ctypes.c_int32(dec._b)
        n = len(cseq)
        out = (ctypes.c_uint8 * n)()
        fn(index, mps, ctypes.byref(a), ctypes.byref(c),
           ctypes.byref(ct), ctypes.byref(bp), ctypes.byref(b),
           bytes(dec._data), len(dec._data), bytes(cseq), n, out)
        dec._index[:] = index
        dec._mps[:] = mps
        dec._a = a.value
        dec._c = c.value
        dec._ct = ct.value
        dec._bp = bp.value
        dec._b = b.value
        return ctypes.string_at(out, n)

    return native_decode_run


#: Callable ``(MQEncoder, bytes, bytes) -> None`` or None when unavailable.
native_encode_run = None

#: Callable ``(MQDecoder, bytes) -> bytes`` or None when unavailable.
native_decode_run = None

_lib = load_library("mq", _c_source())
if _lib is not None:
    _fns = _bind(_lib)
    native_encode_run = _make_wrapper(_fns[0])
    native_decode_run = _make_decode_wrapper(_fns[1])
