"""The `walfcal` command with span tracing, for traced drive_large operations.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID [walfcal arguments ...]

Runs walfcal.cli.main on the arguments like the `walfcal` command does, then
writes the recorded spans to SPANS_JSON and exits with main's status.  The
import of walfcal.cli (numpy included) is recorded as the cli.import span.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import walfcal.cli  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, op, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    tracer.record("cli.import", _start, time.perf_counter())
    tracer.install()
    try:
        return walfcal.cli.main(argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main())
