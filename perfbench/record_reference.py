"""Record the simulated-statistics digests ``run.py`` checks for the
default seed.  Rerun only when a change alters simulated results on
purpose, and say so in the change::

    python3 perfbench/record_reference.py
"""

import json
import sys

import run

if __name__ == "__main__":
    run.bootstrap()
    from perfbench.workloads import WORKLOADS
    digests = {}
    for name, workload in WORKLOADS.items():
        repeat = run.run_repeat(workload, run.DEFAULT_SEED)
        if repeat.errors:
            sys.exit(f"{name}: {repeat.errors}")
        digests[name] = repeat.digest
        print(f"{name}: {repeat.digest}")
    run.REFERENCE.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "digests": digests}, indent=2) + "\n")
