"""`python -m s3pinch.cli` with tracing: prints the same bytes to stdout and
writes the spans and counts it recorded to the JSON file named first.

Usage: python3 perfbench/tracecli.py SPANS_FILE CLI_ARG...
"""

import json
import sys

from s3pinch import cli
from tracing import Tracer

if __name__ == "__main__":
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed(), tracer.span("cli.main"):
        code = cli.main(argv)
    if code != 0:
        tracer.count("cli.errors", 1)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    sys.exit(code)
