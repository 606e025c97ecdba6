"""Record the output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py 0 64 [workload ...]

runs one untraced pass per workload (all of them by default) and seed and stores, in
``digests.json``, the digest of the generated inputs and of each command's
outputs. ``run.py`` then fails any command whose outputs differ from the
recorded ones, so a change that alters a tree, a CSV byte or a paper counter
cannot pass the benchmark. A pass with a failed check is not recorded.
Re-record only when a change to the program is meant to change its output.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads as wl


def main() -> int:
    first, stop = (int(x) for x in sys.argv[1:3])
    names = sys.argv[3:] or list(wl.WORKLOADS)
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    for name in names:
        workload = wl.WORKLOADS[name]
        for seed in range(first, stop):
            bench = run.Bench(workload, seed, time.perf_counter() + run.HARD_LIMIT_S)
            bench.recorded = {}  # record afresh, do not compare with an old entry
            bench.run_pass(traced=False)
            run.shutil.rmtree(bench.directory, ignore_errors=True)
            if bench.failures:
                print("\n".join(bench.failures), file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = bench.digests()
            print(f"{name} seed {seed}: recorded", flush=True)
    ordered = {name: dict(sorted(table[name].items(), key=lambda kv: int(kv[0]))) for name in sorted(table)}
    run.DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
