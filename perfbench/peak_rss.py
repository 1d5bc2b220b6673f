"""Run one workload chain in a fresh interpreter and print its peak RSS.

Usage: python3 perfbench/peak_rss.py <workload> <work dir> <shape JSON>
with the checkout's ``src`` and root on PYTHONPATH. The work directory
must already hold the workload's ``input.jsonl``.
"""

import json
import resource
import sys
from pathlib import Path

from perfbench import chain, workloads


def main() -> int:
    workload, work, shape_json = sys.argv[1:4]
    shape = workloads.Shape(**json.loads(shape_json))
    result = chain.run_chain(workload, Path(work), shape)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    doc = {
        "peak_rss_mb": peak_kib / 1024,
        "commands": result.commands,
        "failed_commands": result.failed_commands,
        "check_failures": result.check_failures,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
