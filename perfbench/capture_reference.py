"""Write reference.json: the output digest of every operation a workload can draw.

The digests are taken once, at the commit whose outputs every later commit
must reproduce byte for byte.  Run from the repository root:

    python3 perfbench/capture_reference.py

It refuses to write when any output fails its cross-check.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main() -> int:
    ops = {op["key"]: op for op in workloads.all_ops("full") + workloads.all_ops("tiny")}
    worker = run.Worker(time.perf_counter() + 600)
    report = worker.run({"ops": list(ops.values()), "trace": False})
    reference = {}
    for result in report["results"]:
        if "error" in result or result["problems"]:
            print(f"{result['key']}: {result.get('error') or result['problems']}", file=sys.stderr)
            return 1
        reference[result["key"]] = {"sha256": result["sha256"], "exit": result["exit"]}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
