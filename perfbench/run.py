"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` is the separate traced run that reports the
per-layer metrics (see ``perfbench/catalog.py`` and README.md).  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output matched its reference, 1 on any mismatch, and 2 when the
benchmark cannot run (for example without the ``src/`` tree).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalog

    args = _parse_args(argv, catalog.WORKLOADS)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "models").is_dir():
        print(
            f"perfbench: {ROOT} holds no src/repro package or models/ directory; "
            f"run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    from perfbench.learning import learn_random
    from perfbench.measure import Metrics, median, ms, quantile, result_line, rss_peak_mb
    from perfbench.serving import serve_mixed, stream_distinct

    trace = bool(args.trace)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=ROOT / "perfbench") as work:
        if args.workload == catalog.SERVE:
            outcome = serve_mixed(ROOT, Path(work), args.seed, args.seconds, trace)
        elif args.workload == catalog.STREAM:
            outcome = stream_distinct(ROOT, Path(work), args.seed, args.seconds, trace)
        else:
            outcome = learn_random(args.seed, args.seconds, trace)

    metrics = Metrics()
    if not trace:
        metrics.put("setup_s", median(outcome.setup), "s")
        metrics.put("ops_per_s", outcome.ops_per_s, "1/s")
        metrics.put("op_p50_ms", ms(quantile(outcome.latencies, 0.5)), "ms")
        metrics.put("op_tail_ms", ms(outcome.tail_s), "ms")
        metrics.put("rss_peak_mb", rss_peak_mb(), "MB")
    else:
        for name, (unit, _where) in catalog.PER_LAYER.items():
            value, _unit = outcome.layers.values.get(name, (0.0, unit))
            metrics.put(name, value, unit)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  inputs: {json.dumps(outcome.notes, sort_keys=True)}")
    print(
        f"  ops {outcome.ops} over {outcome.busy_s:.3f} s measured; "
        f"tail is the {outcome.tail_note}"
    )
    if trace:
        idle = [
            name
            for name, (_unit, where) in catalog.PER_LAYER.items()
            if args.workload not in where
        ]
        print(f"  not exercised by {args.workload} (reported as 0): {', '.join(idle)}")
    print("\n".join(metrics.lines()))
    correct = outcome.failed == 0
    print(result_line(correct, outcome.attempted, outcome.failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
