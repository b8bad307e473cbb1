"""Writing metric snapshots to disk (Prometheus text or JSON lines).

One function, used by the CLI (``--metrics-out`` on ``classify``,
``serve``, ``figures`` and ``experiments``) and the benchmark: render
the registry in the requested format and write it.  Prometheus text is
a point-in-time exposition, so it always overwrites; JSON lines append
by default, so periodic streaming snapshots concatenate into one
replayable stream.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry

__all__ = ["METRICS_FORMATS", "format_for_path", "write_metrics"]

METRICS_FORMATS: tuple[str, ...] = ("prom", "jsonl")


def format_for_path(path: str | Path, explicit: str | None = None) -> str:
    """The export format: *explicit* if given, else inferred from suffix.

    ``.jsonl``/``.json``/``.ndjson`` infer JSON lines; anything else
    (including the conventional ``.prom``) infers Prometheus text.
    """
    if explicit is not None:
        if explicit not in METRICS_FORMATS:
            raise ValueError(f"unknown metrics format: {explicit!r}")
        return explicit
    suffix = Path(path).suffix.lower()
    return "jsonl" if suffix in (".jsonl", ".json", ".ndjson") else "prom"


def write_metrics(
    registry: MetricsRegistry,
    path: str | Path,
    fmt: str | None = None,
    append: bool | None = None,
) -> Path:
    """Write *registry* to *path*; returns the path written.

    *fmt* is ``"prom"`` or ``"jsonl"`` (default: inferred from the
    suffix).  *append* defaults to ``True`` for jsonl (periodic
    snapshots form a stream) and is forced ``False`` for prom (the
    exposition format describes one point in time).
    """
    path = Path(path)
    fmt = format_for_path(path, fmt)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "prom":
        path.write_text(registry.to_prometheus())
    else:
        text = registry.to_jsonl()
        if append is None or append:
            with path.open("a") as handle:
                handle.write(text)
        else:
            path.write_text(text)
    return path
