"""Record the output digests the benchmark's byte gate checks against.

    python3 perfbench/record_digests.py --workload readme --seeds 0-31 7 1009

Runs gen-model, gen-calib and one stage pass per seed, from the root of a
source checkout, and stores the digests of every output in digests.json
under this numpy/BLAS build. A seed whose pass fails a check, or whose
digests differ from ones already recorded, is reported and not stored.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import import_program
from stages import DIGESTS_FILE, Ops, Pipeline, Workspace, build_key
from workloads import WORKLOADS


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return sorted(set(seeds))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 0-31")
    args = ap.parse_args(argv)

    root = Path.cwd()
    cli_main = import_program(root)
    wl = WORKLOADS[args.workload]
    table = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.is_file() else {}
    entries = table.setdefault(build_key(), {}).setdefault(wl.name, {})
    work = root / ".perfbench_work" / f"record-{wl.name}"
    status = 0
    for seed in parse_seeds(args.seeds):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = Ops()
        pipe = Pipeline(cli_main, wl, seed, Workspace(work), ops, None)
        pipe.setup()
        pipe.run_pass()
        old = entries.get(str(seed))
        if ops.failed:
            print(f"seed {seed}: not recorded, {ops.failures}")
            status = 1
        elif old is not None and old != pipe.expected:
            print(f"seed {seed}: not recorded, digests differ from the recorded ones")
            status = 1
        else:
            entries[str(seed)] = pipe.expected
            print(f"seed {seed}: {pipe.expected['result']}")
    shutil.rmtree(work, ignore_errors=True)
    DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
