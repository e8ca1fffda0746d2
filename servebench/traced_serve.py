"""``repro`` command line with the span wrappers installed first.

Usage: ``python servebench/traced_serve.py serve [serve options]`` with
``SERVEBENCH_TRACE_DIR`` naming the directory that collects the spans.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

tracing.install(os.environ[tracing.TRACE_DIR_ENV])

from repro.cli import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
