"""Sharded multi-vantage federation of the sensing pipeline.

The paper senses each authority separately; this package scales one
authority's pipeline across N originator-partitioned shards — each a
full window/dedup/sketch/featurize :class:`~repro.sensor.engine.SensorEngine`
on its own process — and fuses the partials back into output
bit-identical to a single engine (see :mod:`repro.federation.driver` for
the equivalence argument and its one documented exception).  On top of
that, :mod:`repro.federation.fusion` combines verdicts for the same
originator seen at *different* vantages (a ccTLD and a root, say) into
one judgement.

Entry points:

* :func:`sensor_for` — the engine for a shard count (``--shards N`` on
  the CLI): a plain ``SensorEngine`` for 1, a :class:`FederatedSensor`
  above.  Callers hold one type either way.
* :class:`FederatedSensor` — a ``SensorEngine`` subclass that swaps the
  two window-global stages: its collector is a :class:`ShardedCollector`
  (its windows are :class:`ShardedWindow` objects) and ``featurize``
  merges shard rows under the merged context.
* :func:`fuse_verdicts` / :class:`FusedOriginator` — cross-vantage
  verdict fusion.
* :func:`shard_of` / :func:`partition_arrays` — the deterministic
  originator → shard hash partition.
* :class:`ReorderFront` — the accept/release front that resolves stream
  disorder once, globally (owned by the sharded collector).
* :class:`ShardWorker` / :class:`ShardPool` — the per-shard pipeline and
  its process fan-out (building blocks; most callers want
  :func:`sensor_for`).
"""

from repro.federation.driver import (
    FederatedSensor,
    ShardedCollector,
    ShardedWindow,
    sensor_for,
)
from repro.federation.fusion import FusedOriginator, fuse_verdicts
from repro.federation.merge import merge_rows, merged_context
from repro.federation.partition import (
    ReorderFront,
    note_first_appearance,
    partition_arrays,
    shard_of,
)
from repro.federation.shard import ShardPool, ShardRows, ShardWorker, WindowSummary

__all__ = [
    "FederatedSensor",
    "ShardedCollector",
    "ShardedWindow",
    "sensor_for",
    "FusedOriginator",
    "fuse_verdicts",
    "merge_rows",
    "merged_context",
    "ReorderFront",
    "note_first_appearance",
    "partition_arrays",
    "shard_of",
    "ShardPool",
    "ShardRows",
    "ShardWorker",
    "WindowSummary",
]
