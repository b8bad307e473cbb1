"""Table I datasets: specs, generation, and serialization (`repro.datasets`).

Layout::

    repro.datasets
    ├── specs      DatasetSpec / VantageSpec / DATASET_SPECS / spec_for
    ├── generate   GeneratedDataset / generate_dataset / get_dataset
    │              + MultiVantageDataset / generate_multi_vantage
    ├── io         text logs + JSONL querier directories
    └── dnstap     framed binary logs (.rbsc)

Logs read back in columnar :class:`~repro.logstore.EntryBlock` form
(``read_log_block`` / ``read_frames_block``), the one ingest form;
``.to_entries()`` gives ``QueryLogEntry`` objects where a caller wants
them.  ``.npz`` / ``.npy`` block files are handled by
:mod:`repro.logstore` itself.

``get_dataset("JP-ditl", preset="tiny")`` is the entry point most code
wants: a memoized, fully simulated collection with its sensor log,
ground truth, and world attached.
"""

from repro.datasets.dnstap import read_frames_block
from repro.datasets.generate import (
    GeneratedDataset,
    MultiVantageDataset,
    generate_dataset,
    generate_multi_vantage,
    get_dataset,
)
from repro.datasets.io import (
    read_directory,
    read_log_block,
    write_directory,
    write_log,
)
from repro.datasets.specs import DATASET_SPECS, DatasetSpec, VantageSpec, spec_for

__all__ = [
    "DATASET_SPECS",
    "DatasetSpec",
    "GeneratedDataset",
    "MultiVantageDataset",
    "VantageSpec",
    "generate_dataset",
    "generate_multi_vantage",
    "get_dataset",
    "read_directory",
    "read_frames_block",
    "read_log_block",
    "spec_for",
    "write_directory",
    "write_log",
]
