"""Check every reply after the window closes.

* lossless encodes must decode bit-exact to the uploaded image;
* lossy encodes must reach the suite's PSNR floor for their rate (the
  floors are calibrated on this same synthetic watch-face content);
* a sample of encodes must be byte-identical to an in-process
  :func:`repro.jpeg2000.encoder.encode` with the same parameters;
* ``verify=1`` replies must say they were verified.

A non-2xx reply or a wrong body is a failure.  Identical bodies for the
same check are only decoded once.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.jpeg2000.decoder import decode
from repro.jpeg2000.encoder import encode
from repro.verify.roundtrip import psnr, psnr_floor
from workloads import EncodeCheck

#: Encodes per run re-done in-process and compared byte for byte.
IDENTITY_SAMPLE = 6


def _encode_ok(check: EncodeCheck, body: bytes) -> str | None:
    try:
        out = decode(body)
    except Exception as exc:  # any decode failure is a wrong output
        return f"reply does not decode: {exc!r}"
    ref = check.image
    if out.shape != ref.shape:
        return f"decoded shape {out.shape} != {ref.shape}"
    params = check.params()
    if params.lossless:
        if not np.array_equal(out, ref):
            return "lossless reply is not bit-exact"
        return None
    floor = psnr_floor(params.rate)
    value = psnr(ref, out)
    if value < floor:
        return f"lossy reply PSNR {value:.2f} dB under the {floor} dB floor"
    return None


def check_replies(replies, requests, checks: dict) -> tuple[list[bool], list[str]]:
    """Returns (ok flag per reply, failure messages)."""
    verdicts: dict[tuple[str, str], str | None] = {}
    identity_kinds: set[str] = set()
    oks, problems = [], []
    for rep in replies:
        req = requests[rep.index]
        check = checks[req.check]
        problem = None
        if not 200 <= rep.status < 300:
            problem = f"HTTP {rep.status}: {rep.body[:200]!r}"
        elif check.verify and rep.headers.get("x-verified") != "roundtrip":
            problem = "verify=1 reply lacks X-Verified"
        else:
            digest = hashlib.sha256(rep.body).hexdigest()
            key = (req.check, digest)
            if key not in verdicts:
                verdicts[key] = _encode_ok(check, rep.body)
            problem = verdicts[key]
            # Sample the first correct reply of each request class.
            if (problem is None and req.kind not in identity_kinds
                    and len(identity_kinds) < IDENTITY_SAMPLE):
                identity_kinds.add(req.kind)
                ref = encode(check.image, check.params()).codestream
                if ref != rep.body:
                    problem = "reply differs from in-process encode()"
        oks.append(problem is None)
        if problem is not None:
            problems.append(f"request {rep.index} ({req.kind}): {problem}")
    return oks, problems
