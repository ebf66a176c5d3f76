"""Run one guessbench CLI call in this fresh interpreter and record what it did.

    python3 perfbench/job.py SIDECAR TRACE -- SUBCOMMAND [ARGS...]

The report goes to stdout and the exit code is the CLI's.  SIDECAR receives
JSON with monotonic clock readings (comparable with the parent's, since
CLOCK_MONOTONIC is system-wide), the state of the process-global caches when
the job ends, its peak resident set and, with TRACE 1, the span summary; the
raw spans go next to it.
"""

import json
import sys
import time

import guessbench.cli as cli
from guessbench import combinatorics, strategies

IMPORTED = time.monotonic()


def peak_rss_mb() -> float:
    """Largest resident set of this process since it started the program.

    Not the parent's wait4 rusage: on Linux a child's ru_maxrss also counts
    the memory of the process it was spawned from.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    sidecar, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: job.py SIDECAR TRACE -- SUBCOMMAND [ARGS...]")
    count = combinatorics._count
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    start = time.monotonic()
    code = cli.main(sys.argv[4:])
    end = time.monotonic()
    sys.stdout.flush()
    info = count.cache_info()
    record = {
        "imported": IMPORTED,
        "main_start": start,
        "main_end": end,
        "peak_rss_mb": peak_rss_mb(),
        "count_hits": info.hits,
        "count_misses": info.misses,
        "count_size": info.currsize,
        "dist_cache_size": len(strategies._DIST_CACHE),
    }
    if tracer is not None:
        record["spans"] = tracer.summary()
        record["counters"] = dict(tracer.counters)
        tracer.write_spans(sidecar + ".spans.npz")
    with open(sidecar, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
