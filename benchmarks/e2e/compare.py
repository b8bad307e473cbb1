"""Compare paired bench-e2e runs of two checkouts against ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A.json B.json --collect PARENT_DIR CHANGE_DIR

Each file holds the runs of one checkout: a JSON list of ``{"workload",
"seed", "trace", "result": <run.py's last line>}``.  ``--collect`` makes
both files first: for every seed and workload it runs the two checkouts
back to back, alternating which goes first, so that a run of A and the
run of B with the same (workload, seed) saw the same host phase.  This
host drifts by 10-25 % over minutes (README, "Noise"), which lands whole
on a difference of medians taken at different times and cancels in the
ratio of a pair — so every verdict is taken on per-pair changes:

* ``regression`` — the median pair is worse by more than the bound;
* ``unresolved`` — the pairs' changes spread (Q3 − Q1) wider than the
  bound, so their median says little, unless every run of B beats every
  run of A;
* ``improved`` — of at least ten pairs B wins nine in ten and the
  medians differ by more than the quartile distance of A's own runs;
* ``unchanged`` otherwise.

Per-layer rows (from the traced runs) are printed and never judged.
Exit code 1 on any regression or when B failed a larger share of what it
attempted than A.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_TIMEOUT_S = 180.0

MIN_PAIRS_FOR_GAIN = 10
"""Fewer pairs can show a regression but not a gain (choosing-metrics § 8)."""

FAILED_RUN = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
"""Stands in for a run that crashed, hung or printed no result object."""


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of *checkout*'s benchmark; never raises on a bad run."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    argv = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark["run_seconds"]), "--trace", str(trace)]
    result = FAILED_RUN
    try:
        proc = subprocess.run(
            argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
        parsed = json.loads(proc.stdout.strip().splitlines()[-1])
        if isinstance(parsed, dict) and {"attempted", "failed", "metrics"} <= parsed.keys():
            result = parsed
    except (subprocess.TimeoutExpired, IndexError, ValueError):
        pass
    return {"workload": workload, "seed": seed, "trace": trace, "result": result}


def collect(checkouts: list[Path], seeds: list[int], progress: bool = False) -> list[list[dict]]:
    """Runs of every checkout, interleaved; one list per checkout.

    Per seed and workload each checkout runs once untraced, in an order
    that alternates from one (seed, workload) to the next; one traced
    run per checkout and workload follows on the first seed.
    """
    workloads = [
        w["name"] for w in json.loads((checkouts[0] / "BENCHMARK.json").read_text())["workloads"]
    ]
    runs: list[list[dict]] = [[] for _ in checkouts]
    plan = [(seed, name, 0) for seed in seeds for name in workloads]
    plan += [(seeds[0], name, 1) for name in workloads]
    for turn, (seed, name, trace) in enumerate(plan):
        order = list(range(len(checkouts)))
        order = order[turn % len(order):] + order[:turn % len(order)]
        for index in order:
            run = run_once(checkouts[index], name, seed, trace)
            runs[index].append(run)
            if progress:
                values = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()
                ) if not trace else "(traced)"
                print(f"[{index}] {name:<16} seed {seed} failed "
                      f"{run['result']['failed']}/{run['result']['attempted']} {values}",
                      flush=True)
    return runs


def quartile_spread(values: list[float]) -> float:
    """(Q3 − Q1) / median with ``statistics.quantiles(values, n=4)``, as
    the driver takes it; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs((q3 - q1) / median) if median else 0.0


def judge(pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """The verdict for one end-to-end (workload, metric) from its (A, B) pairs."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (b - a) / a for a, b in pairs]
    a_runs, b_runs = [a for a, _ in pairs], [b for _, b in pairs]
    clean_win = min(sign * b for b in b_runs) > max(sign * a for a in a_runs)
    if len(gains) >= 2:
        q1, _, q3 = statistics.quantiles(gains, n=4)
        if q3 - q1 > bound and not clean_win:
            return "unresolved"
    if statistics.median(gains) < -bound:
        return "regression"
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    apart = abs(statistics.median(b_runs) - statistics.median(a_runs))
    own = quartile_spread(a_runs) * statistics.median(a_runs)
    if len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * (wins + losses) and apart > own:
        return "improved"
    return "unchanged"


def compare(runs_a: list[dict], runs_b: list[dict], benchmark: dict) -> tuple[list[str], bool]:
    """(report lines, failed?)."""
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}

    def keyed(runs: list[dict]) -> dict[tuple, dict]:
        return {(r["workload"], r["seed"], r["trace"]): r["result"] for r in runs}

    def failed_share(runs: list[dict]) -> float:
        attempted = sum(run["result"]["attempted"] for run in runs)
        return sum(run["result"]["failed"] for run in runs) / attempted if attempted else 1.0

    a, b = keyed(runs_a), keyed(runs_b)
    pairs: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for key in a.keys() & b.keys():
        if not (a[key].get("correct") and b[key].get("correct")):
            continue  # counted in failed_share; its numbers mean nothing
        for name in a[key]["metrics"].keys() & b[key]["metrics"].keys():
            pairs.setdefault((key[0], name), []).append(
                (a[key]["metrics"][name]["value"], b[key]["metrics"][name]["value"])
            )
    lines = [f"{'workload':<16} {'metric':<44} {'A (base)':>13} {'B':>13} {'B/A':>7}  verdict"]
    unpaired = len(a.keys() ^ b.keys())
    if unpaired:
        lines.insert(0, f"{unpaired} run(s) without a partner of the same "
                        "(workload, seed, trace) are left out")
    bad = False
    for key in sorted(pairs, key=lambda k: (k[1] not in end_to_end, k)):
        workload, name = key
        base = statistics.median(x for x, _ in pairs[key])
        new = statistics.median(y for _, y in pairs[key])
        ratio = f"{new / base:7.3f}" if base else "    n/a"
        verdict = "per-layer"
        if name in end_to_end:
            metric = end_to_end[name]
            verdict = judge(pairs[key], metric["better"], metric["bound"])
            verdict += f" (bound {metric['bound']:.0%}, {len(pairs[key])} pairs)"
            bad |= verdict.startswith("regression")
        lines.append(f"{workload:<16} {name:<44} {base:>13.4f} {new:>13.4f} {ratio}  {verdict}")
    share_a, share_b = failed_share(runs_a), failed_share(runs_b)
    lines.append(f"failed_share: A {share_a:.4%}  B {share_b:.4%}")
    if share_b > share_a:
        bad = True
        lines.append("B fails a larger share of what it attempts than A")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="runs of the base checkout")
    parser.add_argument("b", help="runs of the change")
    parser.add_argument("--collect", nargs=2, metavar=("A_DIR", "B_DIR"),
                        help="first run both checkouts, interleaved, and write A and B")
    parser.add_argument("--seeds", type=int, default=10,
                        help="with --collect: pairs per workload (seeds 1..N)")
    args = parser.parse_args(argv)
    if args.collect:
        runs = collect([Path(d).resolve() for d in args.collect],
                       list(range(1, args.seeds + 1)), progress=True)
        for path, checkout_runs in zip((args.a, args.b), runs):
            Path(path).write_text(json.dumps(checkout_runs) + "\n")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(
        json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text()),
        benchmark,
    )
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
