"""Start the geolocation server with spans around its layers.

Usage: ``python perfbench/server.py SPANS_JSON serve --snapshots DIR ...``

Installs the span wrappers from :mod:`spans`, then hands the remaining
arguments to the program's own command line, so the traced server is
the same ``GeoServer`` the untraced runs start with ``python -m repro
serve``.  The spans are written to ``SPANS_JSON`` when the server exits
(SIGINT shuts it down cleanly).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder, install_http_spans  # noqa: E402


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    install_http_spans(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
