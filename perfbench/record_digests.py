"""Record the SHA-256 of every workload output for a range of seeds.

    python3 perfbench/record_digests.py 0 31

Run it on the commit whose outputs are the contract; the benchmark then
counts any later output that differs, for a recorded seed, as a failure.
It refuses to record an output that fails the workload's other checks.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(run.SRC))
    with open(workloads.DIGESTS_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    workdir = run.WORK / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.NAMES:
            for seed in range(first, last + 1):
                workload = workloads.make(name)
                cli, _ = run.set_up(workload, seed, workdir, 1)
                outcomes = workload.iteration(cli.main)
                for outcome in outcomes:
                    if not outcome.ok:
                        raise SystemExit(f"{name} seed {seed} {outcome.name}: "
                                         f"{outcome.problems}")
                digests = {o.name: o.digest for o in outcomes}
                per_seed = stored["workloads"].setdefault(name, {})
                # single-command workloads store the digest itself
                per_seed[str(seed)] = (digests.popitem()[1] if len(digests) == 1
                                       else digests)
                print(name, seed, per_seed[str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
