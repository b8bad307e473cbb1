"""Run experiment modules from the command line.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments table3 fig4
    python -m repro.experiments --all-cheap

Each experiment prints the paper-style table.  ``--list`` marks each
``(fast)`` or ``(slow)``; ``--all-cheap`` runs the fast ones.  The slow
ones regenerate month-scale datasets (figs 5-8, 11-15) or every Table I
dataset at full size (table1) and take many minutes on first use; they
share cached artifacts within one process, so batching them in a single
invocation is much cheaper than separate runs.

``repro experiments --metrics-out PATH`` passes :func:`main` a
:class:`~repro.telemetry.MetricsRegistry`, scoped over every runner,
and writes it when they finish.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.telemetry import MetricsRegistry, use_registry

from repro.experiments import (
    case_studies,
    confusion,
    fig4_controlled,
    fig5_fig6_stability,
    fig7_strategies,
    fig8_consistency,
    fig9_footprints,
    fig10_topn,
    fig11_trends,
    fig12_footprint_boxes,
    fig13_example_scanners,
    fig14_teams,
    fig15_churn,
    fig16_diurnal,
    table1_datasets,
    table3_accuracy,
    table4_gini,
    table5_class_counts,
    table6_groundtruth,
    tables78_top_originators,
)

#: name -> (callable producing printable text, cheap?)
_RUNNERS = {
    # Generates every Table I dataset at full size: tens of minutes, ~2 GB.
    "table1": (lambda: table1_datasets.format_table(table1_datasets.run()), False),
    "fig3": (lambda: case_studies.format_static(case_studies.run()), True),
    "table2": (lambda: case_studies.format_dynamic(case_studies.run()), True),
    "table3": (
        lambda: table3_accuracy.format_table(
            table3_accuracy.run(datasets=("JP-ditl", "B-post-ditl", "M-ditl"), repeats=10)
        ),
        True,
    ),
    "table4": (lambda: table4_gini.format_table(table4_gini.run()), True),
    "fig4": (lambda: fig4_controlled.format_table(fig4_controlled.run()), True),
    "fig5-6": (lambda: fig5_fig6_stability.format_table(fig5_fig6_stability.run()), False),
    "fig7": (lambda: fig7_strategies.format_table(fig7_strategies.run()), False),
    "fig8": (lambda: fig8_consistency.format_table(fig8_consistency.run()), False),
    "fig9": (lambda: fig9_footprints.format_table(fig9_footprints.run(("JP-ditl", "B-post-ditl", "M-ditl"))), True),
    "fig10": (lambda: fig10_topn.format_table(fig10_topn.run()), True),
    "table5": (
        lambda: table5_class_counts.format_table(
            table5_class_counts.run(datasets=("JP-ditl", "B-post-ditl", "M-ditl"))
        ),
        True,
    ),
    "table6": (
        lambda: table6_groundtruth.format_table(
            table6_groundtruth.run(datasets=("JP-ditl", "B-post-ditl", "M-ditl"))
        ),
        True,
    ),
    "fig11": (lambda: fig11_trends.format_table(fig11_trends.run()), False),
    "fig12": (lambda: fig12_footprint_boxes.format_table(fig12_footprint_boxes.run()), False),
    "fig13": (lambda: fig13_example_scanners.format_table(fig13_example_scanners.run()), False),
    "fig14": (lambda: fig14_teams.format_table(fig14_teams.run()), False),
    "fig15": (lambda: fig15_churn.format_table(fig15_churn.run()), False),
    "confusion": (lambda: confusion.format_table(confusion.run(repeats=10)), True),
    "table7": (lambda: tables78_top_originators.format_table(tables78_top_originators.run("JP-ditl")), True),
    "table8": (lambda: tables78_top_originators.format_table(tables78_top_originators.run("M-ditl")), True),
    "fig16": (lambda: fig16_diurnal.format_table(fig16_diurnal.run()), True),
}


def main(
    argv: list[str] | None = None, registry: MetricsRegistry | None = None
) -> int:
    """Run the named experiments; *registry*, if given, is in scope for
    every runner (the caller writes it)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables/figures from the DNS-backscatter paper.",
    )
    parser.add_argument("names", nargs="*", help="experiment names (see --list)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--all-cheap",
        action="store_true",
        help="run every experiment --list marks (fast)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name, (_, cheap) in _RUNNERS.items():
            print(f"{name:<10} {'(fast)' if cheap else '(slow)'}")
        return 0
    names = list(args.names)
    if args.all_cheap:
        names.extend(n for n, (_, cheap) in _RUNNERS.items() if cheap and n not in names)
    if not names:
        parser.print_usage()
        return 2
    unknown = [n for n in names if n not in _RUNNERS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    with use_registry(registry):
        for name in names:
            runner, _ = _RUNNERS[name]
            started = time.time()
            print(f"=== {name} " + "=" * max(0, 60 - len(name)))
            print(runner())
            print(f"--- {name} done in {time.time() - started:.1f}s\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
