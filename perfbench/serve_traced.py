"""Run ``repro serve`` with the layer tracer installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_OUT [repro serve args]``.
The server runs exactly as ``python -m repro serve`` does; when it stops
(SIGTERM), the tracer's marks and span records are written to TRACE_OUT.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_out, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
