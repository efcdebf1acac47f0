"""The serve path imports no study code.

``repro serve --snapshots`` boots from compiled files alone; importing
the study (numpy, networkx, the topology builder, the pipeline) would
roughly double its start-up time for nothing.  The package ``__init__``
modules export lazily and the CLI imports study modules inside the
subcommands that use them; this test keeps it that way, in a fresh
interpreter so nothing imported by other tests leaks in.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

SERVE_MODULES = ("repro.cli", "repro.serve.http", "repro.serve.plane", "repro.serve.store")
STUDY_MODULES = ("numpy", "networkx", "repro.topology", "repro.core.pipeline")


def test_serve_modules_import_no_study_code():
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import json, sys\n"
        f"for name in {SERVE_MODULES!r}: __import__(name)\n"
        f"print(json.dumps([m for m in {STUDY_MODULES!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == []


def test_lazy_package_exports_still_resolve():
    from repro.core import evaluate_all
    from repro.geodb import GeoDatabase, SnapshotGenerator

    assert callable(evaluate_all) and GeoDatabase and SnapshotGenerator
