"""Run the bunkbed command line under the benchmark's tracer.

    python3 bench/cli_shim.py TRACE.json ARGS...

behaves as `python -m bunkbed.cli ARGS...` and also writes the tracer's
snapshot to TRACE.json when the command returns.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer

import bunkbed.cli


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer().install()
    try:
        return bunkbed.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main())
