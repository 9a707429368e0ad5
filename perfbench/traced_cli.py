"""One gibbskit CLI invocation with the tracer installed.

    python3 perfbench/traced_cli.py SPANS.json ARG...

Runs ``gibbskit.cli.main(ARG...)`` as ``python -m gibbskit ARG...`` would,
writes the tracer's summary and spans to SPANS.json, and exits with the
CLI's status.
"""

import json
import sys

from tracer import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    from gibbskit import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    doc = tracer.summary()
    doc["span_rows"] = tracer.spans
    doc["dropped"] = tracer.dropped
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
