"""Compare two record files written by ``run.py --record``. Reports only.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For each workload, one row per end-to-end metric shows the median and
quartiles of the untraced runs on both sides and the change of the medians.
A second table shows the median self time of every layer over the traced
runs on both sides, and its change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import END_TO_END
from tracing import LAYERS


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(records: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace and metric in r["metrics"]]


def _change(base: float, new: float) -> str:
    return f"{(new - base) / base:+.1%}" if base else "n/a"


def report(base: list[dict], change: list[dict]) -> list[str]:
    workloads = sorted({r["workload"] for r in base + change})
    lines = [f"{'workload':12} {'metric':22} {'base median [q1, q3]':34} "
             f"{'change median [q1, q3]':34} {'change':>8}"]
    for workload in workloads:
        for metric, unit in END_TO_END:
            a = _values(base, workload, 0, metric)
            b = _values(change, workload, 0, metric)
            if not a or not b:
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            lines.append(f"{workload:12} {metric:22} "
                         f"{f'{a2:.4g} [{a1:.4g}, {a3:.4g}] {unit} n={len(a)}':34} "
                         f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}] {unit} n={len(b)}':34} "
                         f"{_change(a2, b2):>8}")
    lines.append("")
    lines.append(f"{'workload':12} {'layer self time':28} {'base s':>10} {'change s':>10} "
                 f"{'delta s':>10}")
    for workload in workloads:
        for layer in LAYERS:
            metric = f"{layer}.self_s"
            a = _values(base, workload, 1, metric)
            b = _values(change, workload, 1, metric)
            if not a or not b:
                continue
            a2, b2 = statistics.median(a), statistics.median(b)
            lines.append(f"{workload:12} {layer:28} {a2:10.4f} {b2:10.4f} {b2 - a2:+10.4f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(report(load(args.base), load(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
