"""Probabilistic summaries for line-rate sensing (`repro.sketch`).

Dependency-free (numpy-backed) sketch structures plus the window-scoped
pre-select stage that lets the sensing engine apply the paper's §III-B
analyzability gate in constant memory — exact per-originator querier
sets are materialized only for originators that can plausibly pass it.

Layout::

    repro.sketch
    ├── hashing    seeded splitmix64 (scalar + vectorized, bit-identical)
    ├── hll        HyperLogLog / HllBank — unique-querier cardinality
    ├── bloom      BloomFilter — 30 s (originator, querier, qtype) dedup
    └── prestage   SketchParams / SketchPreStage — the composed gate

Every structure hashes deterministically from a single seed, so equal
parameters give bit-identical state on any host.  A pre-stage is
window-scoped and never combined with another: sharded runs keep one
per shard and gate each shard's originators on its own.
"""

from repro.sketch.bloom import BloomFilter
from repro.sketch.hashing import mix64, mix64_array
from repro.sketch.hll import HllBank, HyperLogLog
from repro.sketch.prestage import SketchParams, SketchPreStage

__all__ = [
    "BloomFilter",
    "HllBank",
    "HyperLogLog",
    "SketchParams",
    "SketchPreStage",
    "mix64",
    "mix64_array",
]
