"""Pin the paper's fast tables: sha256 of their printed text, timings masked.

Each key of ``paper_digests.json`` is the argument list of one
``repro`` run (``experiments table4 table7``); its value is the sha256
of that run's stdout with every ``--- <name> done in <N>s`` line masked,
since only the wall time on those lines varies between runs.  The run
uses this checkout's ``src``, whatever the caller's ``PYTHONPATH``::

    python benchmarks/paper_digests.py            # compare, exit 1 on a change
    python benchmarks/paper_digests.py --write    # regenerate the file

A deliberate change to a table regenerates the file and says why in
CHANGES.md; ``test_paper_digests.py`` runs the comparison.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().with_name("paper_digests.json")
RUNS = ("experiments table4 table7",)
_TIMING = re.compile(r"^(--- \S+ done in )\S+s$", re.MULTILINE)


def masked(stdout: str) -> str:
    """*stdout* with the seconds of every ``done in`` line replaced."""
    return _TIMING.sub(r"\1Ns", stdout)


def digest(run: str) -> str:
    """sha256 of one ``repro`` run's masked stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stdout = subprocess.run(
        [sys.executable, "-m", "repro.cli", *run.split()],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return hashlib.sha256(masked(stdout).encode()).hexdigest()


def changed() -> list[str]:
    """Runs whose digest differs from the committed one (or has none)."""
    pinned = json.loads(DIGESTS.read_text())
    return [run for run in RUNS if pinned.get(run) != digest(run)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the digest file")
    args = parser.parse_args(argv)
    if args.write:
        DIGESTS.write_text(json.dumps({run: digest(run) for run in RUNS}, indent=2) + "\n")
        print(f"wrote {DIGESTS}")
        return 0
    moved = changed()
    for run in moved:
        print(f"paper digest changed: repro {run}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
