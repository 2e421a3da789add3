"""Run one cylfn CLI job in this fresh interpreter with the layer spans on.

    python3 perfbench/trace_cli.py SPANS_FILE ARGV...

Installs the wrappers from tracing.py, runs ARGV through cylfn.cli.main as
`python -m cylfn.cli ARGV...` would, writes the spans to SPANS_FILE as JSON
and exits with main's status.  The job's artifact still goes to stdout.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import cylfn.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = tracer.wrap("cli.main", cylfn.cli.main)(argv)
    sys.stdout.flush()
    with open(spans_file, "w") as fh:
        json.dump(tracer.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
