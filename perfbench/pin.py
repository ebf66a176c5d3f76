"""Pin every job's exit code and report.

    python3 perfbench/pin.py

Run from the root of a checkout.  Writes perfbench/pinned.json, which the
correctness gate compares every later run against: the report at the
default seed, and for seeded jobs the simulated estimates pooled over
PIN_SEEDS seeds.  Re-pin only when a change alters reports on purpose, and
say so in the change log.
"""

import json
import sys
from pathlib import Path

import gate
from run import PINNED, SetupError, prepare, run_job
from workloads import DEFAULT_SEED, all_jobs

PIN_SEEDS = 8


def main() -> int:
    root = Path.cwd()
    try:
        work = prepare(root)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    pins = {}
    for job in all_jobs():
        seeds = range(DEFAULT_SEED, DEFAULT_SEED + (PIN_SEEDS if job.seeded else 1))
        fingerprints = []
        for seed in seeds:
            record, report = run_job(root, job, seed, False, work)
            fingerprints.append(gate.fingerprint(job.subcommand, record["exit"], report))
        pins[job.name] = gate.pool(fingerprints)
        print(f"{job.name}: exit {record['exit']}, seeds {len(seeds)}, "
              f"estimates {[e['mean'] for e in fingerprints[0]['estimates']]} -> "
              f"{[round(e['mean'], 6) for e in pins[job.name]['estimates']]}", file=sys.stderr)
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
