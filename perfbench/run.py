#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 15 --trace 0

Run from the repository root (it builds nothing: the package is imported
from ``src/``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones with a "where an op spends its time" table.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check and guard held.  NOTES.md describes
the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path

from host import ref_pass_ms

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space (cache directories, daemon sockets), removed on exit.
WORK = ROOT / ".perfbench_work"


def ref_loop_ms() -> float:
    """The host's speed before or after a run: median of 9 passes of the
    reference loop, which the timings of the run are scaled by."""
    return statistics.median(ref_pass_ms() for _ in range(9))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep-cold", "restart-disk", "serve-warm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCH_obs.json").is_file():
        print(f"perfbench: no repro package or BENCH_obs.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The daemon's relative socket path and the cold-process probe assume
    # the repository root as working directory.
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import workloads

    run = {
        "sweep-cold": workloads.sweep_cold,
        "restart-disk": workloads.restart_disk,
        "serve-warm": workloads.serve_warm,
    }[args.workload]
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    tally = workloads.Tally()
    try:
        ref_before = ref_loop_ms()
        outcome = run(args.seed, args.seconds, work, tally, bool(args.trace))
        ref_after = ref_loop_ms()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there

    metrics = outcome.metrics
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"host.ref_loop_ms before {ref_before:.3f}  after {ref_after:.3f}")
    if args.trace:
        metrics["host.ref_loop_ms"] = ((ref_before + ref_after) / 2.0, "ms")
        print_table(args.workload, outcome.table, metrics["trace.coverage"][0])
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.4f} {unit}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"ops attempted {tally.attempted}  failed {tally.failed}  error_rate {error_rate:.4f}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    for guard in tally.guards:
        print(f"  GUARD {guard}")
    correct = tally.attempted > 0 and tally.failed == 0 and not tally.guards
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def print_table(workload: str, rows: list[tuple], coverage: float) -> None:
    print(f"where a {workload} op spends its time")
    print(f"  {'layer':28s} {'calls':>7s} {'median ms':>11s} {'total ms':>11s} {'share':>7s}")
    for layer, calls, median, total, share in rows:
        print(f"  {layer:28s} {calls:7d} {median:11.4f} {total:11.1f} {share:7.1%}")
    print(f"  {'unattributed':28s} {'':7s} {'':11s} {'':11s} {1.0 - coverage:7.1%}")
    print(f"  trace.coverage {coverage:.4f}")


if __name__ == "__main__":
    sys.exit(main())
