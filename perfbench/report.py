"""Per-layer reports of traced runs: render one, or diff two.

Usage::

    python3 perfbench/report.py REPORT.json            # show one
    python3 perfbench/report.py OLD.json NEW.json      # where did time move?

A report is what ``run.py --trace 1`` writes under
``.perfbench_work/reports/``.  The diff lists every layer's self time in
both reports and the change, largest change first, so a performance
change can show which layer its saving landed in.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

from common import REPORT_DIR


def save(report: dict) -> Path:
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / f"{report['workload']}-seed{report['seed']}.json"
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render(report: dict) -> str:
    """The self-time table: the parts that add up to the whole process."""
    metrics = report["metrics"]
    lines = [
        f"per-layer self time, {report['workload']} "
        f"(whole {report['whole_s']:.3f} s, {report['traced_runs']} traced runs)",
        f"  {'layer':<28} {'self_s':>10} {'calls':>9} {'share':>7}",
    ]
    for layer, self_s, calls, share in report["table"]:
        lines.append(f"  {layer:<28} {self_s:>10.4f} {calls:>9d} {share:>7.1%}")
    lines.append(f"  unattributed_s {metrics['unattributed_s']:.4f}   "
                 f"obs.tracing_overhead_ratio {metrics['obs.tracing_overhead_ratio']:+.4f}")
    if report.get("serve_table"):
        lines.append("serve layer, per session (server busy time by layer):")
        for layer, busy_s, calls, share in report["serve_table"]:
            lines.append(f"  {layer:<28} {busy_s:>10.4f} {calls:>9d} {share:>7.1%}")
    if report.get("missing"):
        lines.append("  entry points not found (not timed): " + ", ".join(report["missing"]))
    return "\n".join(lines)


def diff(old: dict, new: dict) -> str:
    old_rows = {row[0]: row for row in old["table"]}
    new_rows = {row[0]: row for row in new["table"]}
    rows: List[tuple] = []
    for layer in sorted(set(old_rows) | set(new_rows)):
        before = old_rows.get(layer, [layer, 0.0, 0, 0.0])
        after = new_rows.get(layer, [layer, 0.0, 0, 0.0])
        rows.append((layer, before[1], after[1], after[1] - before[1], before[2], after[2]))
    rows.sort(key=lambda row: -abs(row[3]))
    lines = [
        f"self time by layer: {old['workload']} -> {new['workload']} "
        f"(whole {old['whole_s']:.3f} s -> {new['whole_s']:.3f} s, "
        f"{new['whole_s'] - old['whole_s']:+.3f} s)",
        f"  {'layer':<28} {'old_s':>10} {'new_s':>10} {'delta_s':>10} {'calls old->new':>16}",
    ]
    for layer, before, after, delta, calls_before, calls_after in rows:
        lines.append(f"  {layer:<28} {before:>10.4f} {after:>10.4f} {delta:>+10.4f} "
                     f"{calls_before:>7d}->{calls_after:<7d}")
    changed = [
        (name, old["metrics"].get(name, 0.0), value)
        for name, value in sorted(new["metrics"].items())
        if value != old["metrics"].get(name, 0.0)
    ]
    lines.append("per-layer metrics that changed:")
    for name, before, after in changed:
        lines.append(f"  {name:<40} {before:>14.6g} -> {after:<14.6g}")
    return "\n".join(lines)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in paths:
        with open(path) as handle:
            reports.append(json.load(handle))
    print(render(reports[0]) if len(reports) == 1 else diff(*reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
