"""Regenerate the frozen reference of every pool member.

    python3 perfbench/freeze.py

Runs each pool member once at its lowest benchmark order through the CLI's
per-job calls and stores the emitted coefficients (or the class of the
exception it raised) in ``reference.json.gz``.  The committed file was frozen
from the program as first benchmarked; regenerate it only on purpose, since
it is what every later output is checked against.
"""

from __future__ import annotations

import gzip
import json
import sys

import run
from check import REFERENCE_PATH, reference_entry
from inputs import BASE_ORDER, make_job, pool_payloads


def main() -> int:
    cli = run.import_program()
    reference = {}
    pools = pool_payloads()
    for route, members in pools.items():
        for index in range(len(members)):
            job = make_job(route, index, BASE_ORDER[route], pools)
            try:
                text = cli.emit(cli.run(cli.JobSpec.from_json(dict(job.payload))))
            except Exception as exc:  # frozen as the expected failure class
                reference[job.input_id] = {"raised": type(exc).__name__}
                continue
            reference[job.input_id] = reference_entry(json.loads(text))
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file a function of its content
    REFERENCE_PATH.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    print(f"wrote {len(reference)} entries to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
