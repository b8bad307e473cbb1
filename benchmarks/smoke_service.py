"""Service smoke check: start `repro serve`, curl it, SIGTERM it.

Exercises the real process boundary the unit tests cannot: a
`python -m repro.cli serve` subprocess against a generated `.npz` log,
probed over HTTP while it serves, then shut down with SIGTERM.  Fails
(exit 1) unless

* the service reports nonzero closed windows on ``/healthz``,
* ``/metrics`` carries ``repro_stream_windows_total`` and
  ``/verdicts`` at least one window record,
* the process exits cleanly (rc 0) within the timeout after SIGTERM.

With ``--shards N`` (N > 1) the service runs sharded, ``/metrics`` must
also carry the engine's ``repro_ingest_blocks_total`` and the per-shard
``repro_federation_events_total``, and the clean exit covers the shard
processes too: they hold the service's stdout, so an unreaped one would
keep the final read from ever finishing.

With ``--kill`` (needs ``--shards`` 2 or more) the service is SIGKILLed
instead: every shard process it had (its children, read from ``/proc``
before the kill) must be gone within ``KILL_DEADLINE_S``, since
a shard's only way to learn of its parent's death is the EOF on its
pipe.

Usage::

    PYTHONPATH=src python benchmarks/smoke_service.py [--timeout 120] [--shards 2] [--kill]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: Seconds a SIGKILLed service's shards get to see their EOF and exit.
KILL_DEADLINE_S = 10.0


def generate_world(workdir: Path) -> tuple[Path, Path, Path]:
    """A tiny serialized world: .npz log, querier directory, labels."""
    sys.path.insert(0, str(REPO / "src"))
    import numpy as np

    from repro.datasets import write_directory
    from repro.logstore import EntryBlock, save_block
    from repro.netmodel.addressing import ip_to_str
    from repro.netmodel.world import NameStatus
    from repro.sensor.directory import QuerierInfo

    rng = np.random.default_rng(11)
    rows = []
    for w in range(3):
        for o in range(1, 9):
            for k in range(12):
                q = 100 + (o * 13 + k * 7) % 40
                t = w * 100.0 + float(rng.uniform(0.0, 99.0))
                rows.append((t, q, o))
    rows.sort()
    ts, qs, os_ = (np.array(c) for c in zip(*rows))
    log_path = workdir / "feed.npz"
    save_block(log_path, EntryBlock.from_arrays(
        ts.astype(np.float64), qs.astype(np.int64), os_.astype(np.int64)
    ))
    countries = ("jp", "us", "de")
    dir_path = workdir / "queriers.jsonl"
    write_directory(
        dir_path,
        (
            QuerierInfo(addr=q, name=f"host{q}.example.net",
                        status=NameStatus.OK, asn=q % 5 + 1,
                        country=countries[q % 3])
            for q in range(100, 140)
        ),
    )
    labels_path = workdir / "labels.json"
    labels_path.write_text(json.dumps(
        {ip_to_str(o): ("scan" if o % 2 else "dns") for o in range(1, 9)}
    ))
    return log_path, dir_path, labels_path


def _stat(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None


def running(pid: int) -> bool:
    """Whether *pid* is a live process (a zombie has exited)."""
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def children(pid: int) -> list[int]:
    """Live processes whose parent is *pid*."""
    out = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat(int(entry.name))
            if fields is not None and fields[0] != "Z" and int(fields[1]) == pid:
                out.append(int(entry.name))
    return sorted(out)


def kill_and_watch(proc: subprocess.Popen, shards: int) -> int:
    """SIGKILL the service; every shard it had must exit within the deadline."""
    pids = children(proc.pid)
    assert len(pids) == shards, f"expected {shards} shard processes, found {pids}"
    proc.kill()
    proc.wait()
    deadline = time.monotonic() + KILL_DEADLINE_S
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert not left, f"shard processes {left} outlived the SIGKILLed service"
    print(f"smoke_service: PASS (shards {pids} exited after SIGKILL)")
    return 0


def http_json(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=5) as resp:
        return resp.status, resp.read()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="overall deadline in seconds")
    parser.add_argument("--shards", type=int, default=1,
                        help="forwarded to `repro serve --shards`")
    parser.add_argument("--kill", action="store_true",
                        help="SIGKILL the service and require its shards to exit")
    args = parser.parse_args()
    if args.kill and args.shards < 2:
        parser.error("--kill needs --shards 2 or more")
    deadline = time.monotonic() + args.timeout

    with tempfile.TemporaryDirectory(prefix="smoke-service-") as tmp:
        workdir = Path(tmp)
        log_path, dir_path, labels_path = generate_world(workdir)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "-l", str(log_path), "-d", str(dir_path), "-t", str(labels_path),
                "--port", "0", "--window", "100", "--min-queriers", "3",
                "--retrain", "daily", "--shards", str(args.shards),
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        port = None
        try:
            # The service prints its bound address first thing.
            while port is None:
                if time.monotonic() > deadline:
                    raise TimeoutError("never printed the serving line")
                line = proc.stdout.readline()
                if not line and proc.poll() is not None:
                    raise RuntimeError(f"serve exited early (rc {proc.returncode})")
                print(f"  serve: {line.rstrip()}")
                if line.startswith("serving http on "):
                    port = int(line.rsplit(":", 1)[1])

            windows = 0
            while windows == 0:
                if time.monotonic() > deadline:
                    raise TimeoutError("no window ever closed")
                try:
                    status, body = http_json(port, "/healthz")
                except OSError:
                    time.sleep(0.2)
                    continue
                assert status == 200, f"/healthz -> {status}"
                windows = json.loads(body)["windows"]
                time.sleep(0.1)
            print(f"  healthz: {windows} windows closed")

            status, body = http_json(port, "/metrics")
            assert status == 200, f"/metrics -> {status}"
            required = [b"repro_stream_windows_total", b"repro_service_pump_steps_total"]
            if args.shards > 1:
                required += [b"repro_ingest_blocks_total", b"repro_federation_events_total"]
            for name in required:
                assert name in body, f"metrics missing {name.decode()}"
            # /healthz counts a window when the collector closes it; its
            # record reaches /verdicts once the same step has sensed it.
            records = []
            while not records:
                if time.monotonic() > deadline:
                    raise TimeoutError("no verdict records")
                status, body = http_json(port, "/verdicts")
                assert status == 200, f"/verdicts -> {status}"
                records = json.loads(body)["windows"]
                time.sleep(0.1)
            print("  metrics + verdicts OK")
            if args.kill:
                return kill_and_watch(proc, args.shards)

            proc.send_signal(signal.SIGTERM)
            remaining = max(1.0, deadline - time.monotonic())
            out, _ = proc.communicate(timeout=remaining)
            for line in out.splitlines():
                print(f"  serve: {line}")
            assert proc.returncode == 0, f"rc {proc.returncode} after SIGTERM"
            print("smoke_service: PASS (clean shutdown)")
            return 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


if __name__ == "__main__":
    raise SystemExit(main())
