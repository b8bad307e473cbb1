"""What `benchmarks/e2e/` reaches into must still be there.

The frozen benchmark imports names from `repro`, wraps one module global
and calls a handful of functions by keyword.  A PR that renames any of
them fails the pipeline's benchmark run, which tier-1 could not see
coming; these checks read (never edit) the benchmark's sources.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.logstore import EntryBlock

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

pytestmark = pytest.mark.skipif(
    not BENCH.is_dir(), reason="benchmarks/e2e is not in this checkout"
)


def _repro_imports():
    """(file, module, name-or-None) for every import of `repro` in the benchmark."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if (node.module or "").split(".")[0] == "repro":
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "repro"
                ]
    return found


def test_every_name_the_benchmark_imports_exists():
    imports = _repro_imports()
    assert imports, "the benchmark imports nothing from repro?"
    for file, module, name in imports:
        loaded = importlib.import_module(module)
        if name is not None and not hasattr(loaded, name):
            # `from package import submodule`
            importlib.import_module(f"{module}.{name}")


def test_collector_calls_dedup_mask_through_its_module_global(monkeypatch):
    import repro.sensor.streaming as streaming

    calls = []
    original = streaming.dedup_mask

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(streaming, "dedup_mask", counting)
    collector = streaming.StreamingCollector(
        window_seconds=100.0, origin=0.0, dedup_window=30.0, reorder_slack=2.0
    )
    block = EntryBlock.from_arrays(
        np.arange(40, dtype=float), np.arange(40) % 4 + 1, np.full(40, 9)
    )
    collector.ingest_block(block[:20])
    collector.ingest_block(block[20:])
    assert calls, "ingest_block no longer goes through streaming.dedup_mask"
    collector.flush()
    assert sum(calls) == 40


def test_signatures_accept_the_calls_the_traced_pass_makes():
    from repro.ml.validation import majority_vote_predict
    from repro.sensor.dynamic import WindowContext
    from repro.sensor.features import features_from_selected
    from repro.service.feed import FeedReader
    from repro.service.manager import ModelManager

    o = object()
    inspect.signature(majority_vote_predict).bind(o, o, o, o, runs=3, seed=0)
    inspect.signature(ModelManager).bind(o, o, seed=0)
    inspect.signature(features_from_selected).bind(o, o, o, context=o)
    inspect.signature(WindowContext.from_window).bind(o, o)
    inspect.signature(FeedReader).bind("auto")
