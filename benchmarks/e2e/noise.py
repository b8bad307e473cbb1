"""Noise run: how far do runs of the *same* code disagree?

    python3 benchmarks/e2e/noise.py --sets 2 --runs 10 -o benchmarks/e2e/NOISE.json

Runs ``run.py`` in ``--sets`` sets of ``--runs`` untraced runs (and one
traced run) per workload, one set after the other as the driver takes
them, every run on its own seed, alternating workloads between runs so
that host drift lands on all of them.  For every (workload, end-to-end
metric) it prints each set's median and quartiles, each set's quartile
spread as a share of its median (what the driver computes), and how far
the sets' medians differ.

The bound it derives for a metric is ``max(floor, 3 × the largest
difference between set medians on any workload, 3 × the largest per-set
spread)``, held to the contract's cap of 0.25.  A metric whose *medians*
need more than the cap cannot be bounded and is to be demoted to
per-layer; one whose *spread* needs more is kept at the cap and listed
as missing the spread target, with the spread as a share of the bound.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import statistics
from pathlib import Path

from compare import ROOT, collect, quartile_spread

FLOOR = 0.10
FLOORS = {"peak_rss_mb": 0.05}
"""The issue's floors: a tenth, a twentieth for memory."""
BOUND_CAP = 0.25
"""The largest bound ``BENCHMARK.json`` may carry."""


def summarise(results: dict, benchmark: dict) -> dict:
    """Per-metric bounds plus the per-(workload, metric) detail."""
    detail: dict = {}
    bounds: dict = {}
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        worst_spread = worst_difference = 0.0
        for workload, sets in results.items():
            per_set = [[run[name] for run in runs] for runs in sets]
            medians = [statistics.median(values) for values in per_set]
            spreads = [quartile_spread(values) for values in per_set]
            difference = (max(medians) - min(medians)) / medians[0]
            detail[f"{workload}/{name}"] = {
                "sets": [
                    {
                        "median": median,
                        "quartiles": statistics.quantiles(values, n=4),
                        "spread": spread,
                        "values": values,
                    }
                    for values, median, spread in zip(per_set, medians, spreads)
                ],
                "set_medians_differ": difference,
                "spread_share_of_bound": max(spreads) / metric["bound"],
                "difference_share_of_bound": difference / metric["bound"],
            }
            worst_spread = max(worst_spread, *spreads)
            worst_difference = max(worst_difference, difference)
        for_medians = math.ceil(300 * worst_difference) / 100
        for_spread = math.ceil(300 * worst_spread) / 100
        bounds[name] = {
            "worst_set_difference": worst_difference,
            "worst_spread": worst_spread,
            "needed_for_medians": for_medians,
            "needed_for_spread": for_spread,
            "derived": min(BOUND_CAP, max(FLOORS.get(name, FLOOR), for_medians, for_spread)),
            "committed": metric["bound"],
            "boundable": for_medians <= BOUND_CAP,
            "meets_spread_target": for_spread <= BOUND_CAP,
        }
    return {"bounds": bounds, "detail": detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)
    if args.sets < 2 or args.runs < 2:
        parser.error("need at least two sets of at least two runs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {w["name"]: [[] for _ in range(args.sets)] for w in benchmark["workloads"]}
    failed = 0
    for s in range(args.sets):
        seeds = [args.seed_base + 100 * s + r for r in range(args.runs)]
        for run in collect([ROOT], seeds, progress=True)[0]:
            if not run["result"]["correct"]:
                failed += 1
            if not run["trace"]:
                results[run["workload"]][s].append(
                    {k: v["value"] for k, v in run["result"]["metrics"].items()}
                )
    summary = summarise(results, benchmark)
    for key, row in summary["detail"].items():
        sets = "  ".join(
            f"[{s['quartiles'][0]:.4g} {s['median']:.4g} {s['quartiles'][2]:.4g}] "
            f"{s['spread']:.1%}" for s in row["sets"]
        )
        print(f"{key:<40} {sets}  set medians differ {row['set_medians_differ']:.1%} "
              f"(spread {row['spread_share_of_bound']:.2f}, difference "
              f"{row['difference_share_of_bound']:.2f} of the committed bound)")
    for name, row in summary["bounds"].items():
        note = ""
        if not row["boundable"]:
            note = f" — medians need more than {BOUND_CAP}: demote to per-layer"
        elif not row["meets_spread_target"]:
            note = (f" — spread is {row['worst_spread'] / row['derived']:.2f} of the "
                    "bound, not under a third")
        print(f"{name}: set medians differ by up to {row['worst_set_difference']:.1%} "
              f"(needs {row['needed_for_medians']:.2f}), spread up to "
              f"{row['worst_spread']:.1%} (needs {row['needed_for_spread']:.2f}): "
              f"derived {row['derived']:.2f}, committed {row['committed']:.2f}{note}")
    document = {
        "host": platform.node(),
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "date": datetime.date.today().isoformat(),
        "run_seconds": benchmark["run_seconds"],
        "sets": args.sets,
        "runs_per_set": args.runs,
        "failed_runs": failed,
        **summary,
    }
    if args.output:
        Path(args.output).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
