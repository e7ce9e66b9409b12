"""Record the reference answers the benchmark checks every request against.

Run from the root of a checkout, on the commit whose answers are the
reference::

    python3 perfbench/record.py

It runs every input of every workload once through ``repro.cli.main``
and rewrites ``perfbench/reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import workloads
from run import HERE, write_inputs


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro.cli import main as cli

    reference = {}
    work = tempfile.mkdtemp(dir=HERE, prefix="_record-")
    try:
        for workload in ("find", "density", "ensemble"):
            answers = {}
            for entry in write_inputs(workload, os.path.join(work, workload), 0):
                argv = workloads.command(workload, entry, workers=2, cache_dir="")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli(argv)
                if code != 0:
                    raise RuntimeError(f"{workload}/{entry['name']} exited {code}")
                answers[entry["name"]] = workloads.answer(
                    workload, entry, out.getvalue()
                )["key"]
            reference[workload] = answers
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
