"""Check that the benchmark's correctness gate bites.

    python3 perfbench/selfcheck.py

For each workload, alter the recorded answer of one operation that seed 0
runs, in a copy of reference.json; run the benchmark against that copy and
require exactly that operation to fail in every child (error rate > 0) and
exit code 1.  Prints one line per workload and exits 1 if any corruption
went unnoticed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

from run import OUT, REFERENCE, ROOT, WORKLOADS

sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402


def main() -> int:
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        corrupted = json.loads(json.dumps(reference))
        ops = workloads.BUILDERS[workload](random.Random(0).choice)
        key = ops[0].key
        corrupted[workload][key] = "corrupted " + corrupted[workload][key]
        path = os.path.join(OUT, f"corrupted-{workload}.json")
        with open(path, "w") as fh:
            json.dump(corrupted, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
             "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
             "--reference", path],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines else {}
        children = result.get("attempted", 0) // len(ops)
        caught = (proc.returncode == 1 and result.get("correct") is False
                  and result.get("failed") == children > 0)
        ok &= caught
        print(f"{workload}: corrupted {key!r} -> exit {proc.returncode}, "
              f"failed {result.get('failed')}/{result.get('attempted')}: "
              f"{'caught' if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
