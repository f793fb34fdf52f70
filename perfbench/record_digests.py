"""Record the report digest of every check the benchmark can run.

    python3 perfbench/record_digests.py

Runs each suite of each workload at every seed of the pool, through the
same fresh-interpreter path as the benchmark, and writes ``digests.json``
as ``{suite: {seed: {check name: digest}}}``.  Every check must pass.  Run
it only when the reports are meant to change; the benchmark compares each
later report with these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run as bench


def record_one(job):
    suite, options, seed = job
    out_dir = bench.OUT / "record"
    _, res, rep = bench.run_child(suite, options, [seed], out_dir, f"seed{seed}", "none",
                                  time.monotonic() + 600)
    if res is None or res["rc"] != 0 or rep is None:
        raise SystemExit(f"{suite} seed {seed} did not pass")
    return suite, seed, {c["name"]: bench.check_digest(c) for c in rep["checks"]}


def main() -> int:
    out_dir = bench.OUT / "record"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    jobs = [(suite, options, seed)
            for workload in bench.WORKLOADS.values()
            for suite, options in workload.suites
            for seed in range(1, bench.SEED_POOL + 1)]
    digests = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for suite, seed, checks in pool.map(record_one, jobs):
            digests.setdefault(suite, {})[str(seed)] = checks
    bench.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out_dir, ignore_errors=True)
    print(f"{sum(len(c) for s in digests.values() for c in s.values())} checks recorded"
          f" in {bench.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
