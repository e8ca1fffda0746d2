"""Compile-and-cache helper for the optional native kernels.

Shared by :mod:`~repro.jpeg2000._mq_native`,
:mod:`~repro.jpeg2000._t1_dec_native` and
:mod:`~repro.jpeg2000._t1_enc_native`.  ``REPRO_MQ_NATIVE=0`` disables
them all.  Each shared object is built once per hash of source and flags
in a per-user temp directory, published with an atomic ``os.replace``;
any failure (no compiler, compile error, failed ``dlopen``) gives ``None``.
``-ffp-contract=off`` stops GCC fusing ``a*b - c*d`` into one FMA on
targets that have it: that would move bits of the encoder's float64
distortion sums, which PCRD-opt turns into lossy bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile

CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def load_library(name: str, source: str) -> ctypes.CDLL | None:
    """Compile (or load the cached) ``source`` as ``<name>_<hash>.so``."""
    if os.environ.get("REPRO_MQ_NATIVE", "1") == "0":
        return None
    key = " ".join(CFLAGS) + "\n" + source
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"repro-mq-native-{os.getuid()}"
    )
    so_path = os.path.join(cache_dir, f"{name}_{tag}.so")
    if not os.path.exists(so_path):
        import subprocess  # only a cache miss compiles; keeps start-up lean

        os.makedirs(cache_dir, mode=0o700, exist_ok=True)
        c_path = os.path.join(cache_dir, f"{name}_{tag}_{os.getpid()}.c")
        tmp_so = so_path + f".{os.getpid()}.tmp"
        try:
            with open(c_path, "w") as fh:
                fh.write(source)
            subprocess.run(
                ["cc", *CFLAGS, "-o", tmp_so, c_path],
                check=True,
                capture_output=True,
                timeout=60,
            )
            os.replace(tmp_so, so_path)  # atomic vs. concurrent builders
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            for path in (c_path, tmp_so):
                try:
                    os.unlink(path)
                except OSError:
                    pass
    try:
        return ctypes.CDLL(so_path)
    except OSError:
        return None
