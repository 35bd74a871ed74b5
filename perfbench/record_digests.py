"""Record the reference output digests the benchmark checks against.

    python3 perfbench/record_digests.py [workload ...]

Runs every cell of the named workloads (default: all) at config seeds
0..REFERENCE_SEEDS-1 and stores the digest of each cell's rounds.csv and
summary.json in reference_digests.json. Run it only at the commit whose
outputs are the reference; a cell that fails there stops the recording.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(argv) -> int:
    cli = run.load_cli()
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.exists() else {}
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    try:
        for workload in argv or workloads.NAMES:
            entries = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                for name, cfg_seed, values in workloads.cells(workload, seed):
                    key = f"{name}@{cfg_seed}"
                    if key in entries:
                        continue
                    rc = run.run_cell(cli, values, work / "cell")
                    if rc != 0:
                        sys.exit(f"record_digests: {workload} {key} exited {rc}")
                    entries[key] = run.output_digest(work / "cell")
                    print(workload, key, entries[key][:16], flush=True)
            table[workload] = dict(sorted(entries.items()))
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
