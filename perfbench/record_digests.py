"""Record the sha256 of every `.set` file each workload emits, per seed.

Run on the commit whose outputs are the reference; run.py then fails any
operation whose set differs for a recorded seed:

    python3 perfbench/record_digests.py --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    import apfree.cli as cli

    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for name in args.workload or sorted(run.WORKLOADS):
        wl = run.WORKLOADS[name]
        for seed in range(lo, hi + 1):
            work = run.ROOT / ".perfbench_work" / "digests" / name
            shutil.rmtree(work, ignore_errors=True)
            prepared = wl.prepare(seed, work / "inputs")
            res = run.run_pass(cli, wl.ops(seed, work / "out", prepared), work / "out", None)
            if res.failed:
                sys.stderr.write(f"{name} seed {seed}: {res.errors}\n")
                return 1
            recorded.setdefault(name, {})[str(seed)] = res.digests
            print(f"{name} seed {seed}: {len(res.digests)} sets, {res.set_size} elements", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
