"""Record the reference output digests in perfbench/reference.json.

    python3 perfbench/record_reference.py

Runs every workload once on each of the benchmark's input sets and
stores the sha256 of its output files. Re-record only when a workload's
definition changes; a library change that alters these bytes is a
correctness failure, not a reason to re-record.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    cli, _, _ = run.import_library()
    digests = {}
    for name, workload in run.WORKLOADS.items():
        digests[name] = []
        for s in range(run.N_INPUTS):
            workload.prepare(s)
            command = run.Command(cli, workload, s, expected=None)
            _, digest = command.run()
            if digest is None:
                print(f"{name} input {s}: no output", file=sys.stderr)
                return 1
            digests[name].append(digest)
            print(f"{name} input {s}: {digest}")
    run.REFERENCE.write_text(json.dumps(
        {"inputs": run.N_INPUTS, "digests": digests}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
