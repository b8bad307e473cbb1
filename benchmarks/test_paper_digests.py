"""The fast tables' printed text matches the committed digests.

Runs ``repro experiments table4 table7`` (about 30 s) and compares the
sha256 of its stdout, timings masked, with ``paper_digests.json``.  A
deliberate change regenerates the file (``python
benchmarks/paper_digests.py --write``) and says why in CHANGES.md.
"""

from __future__ import annotations

import paper_digests


def test_masked_hides_only_the_seconds():
    text = "=== table4 ===\nrow 1.5s\n--- table4 done in 12.3s\n"
    assert paper_digests.masked(text) == "=== table4 ===\nrow 1.5s\n--- table4 done in Ns\n"


def test_fast_tables_match_the_committed_digests():
    assert paper_digests.changed() == []
