"""Building a custom sensor from the substrate APIs.

Shows the lower-level building blocks directly, without the dataset
presets: construct a world, wire a DNS hierarchy with your own vantage
points, launch hand-built campaigns, run the § IV-D controlled caching
experiment, and serialize the log for offline analysis.

Run:  python examples/custom_sensor.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.activity import SimulationEngine, build_campaign
from repro.analysis.controlled import fit_power_law, run_experiment
from repro.datasets import read_log_block, write_log
from repro.dnssim import Authority, AuthorityLevel, DnsHierarchy, ResolverConfig
from repro.netmodel import World, WorldConfig, ip_to_str
from repro.sensor import SensorConfig, SensorEngine, world_directory


def main() -> None:
    rng = np.random.default_rng(7)
    world = World(WorldConfig(seed=7, scale=0.5))
    print(f"world: {world.summary()}")

    # --- wire a hierarchy with a German national sensor and both roots --
    hierarchy = DnsHierarchy(
        world,
        seed=8,
        resolver_config=ResolverConfig(
            national_warm_shared=0.8, national_warm_self=0.5
        ),
    )
    de_sensor = hierarchy.attach_national(
        Authority(
            name="de-dns",
            level=AuthorityLevel.NATIONAL,
            country="de",
            scope_slash8=frozenset(world.geo.blocks_of("de")),
        )
    )
    hierarchy.attach_root(
        Authority(name="b-root", level=AuthorityLevel.ROOT, root_letter="b")
    )

    # --- hand-build campaigns: a German spammer and a CDN node ----------
    engine = SimulationEngine(world, hierarchy)
    spam = build_campaign(
        world, "spam", rng, start=0.0, duration_days=2.0,
        home_country="de", audience_size=800,
    )
    cdn = build_campaign(
        world, "cdn", rng, start=0.0, duration_days=2.0,
        home_country="de", audience_size=600,
    )
    engine.extend([spam, cdn])
    engine.run(0.0, 2 * 86400.0)
    print(f"\nde-dns observed {len(de_sensor.log)} reverse queries")

    # --- extract features the way the sensor would -----------------------
    directory = world_directory(world)
    sensor = SensorEngine(directory, SensorConfig(min_queriers=10))
    window = sensor.collect(de_sensor.log, 0.0, 2 * 86400.0)
    features = sensor.featurize(window)
    for originator, row in zip(features.originators, features.matrix):
        mail_fraction = row[1]  # static_mail
        home_fraction = row[0]  # static_home
        kind = "spam-like" if mail_fraction > home_fraction else "cdn-like"
        print(
            f"  {ip_to_str(int(originator)):<16} mail={mail_fraction:.2f} "
            f"home={home_fraction:.2f} -> {kind}"
        )

    # --- the § IV-D controlled experiment -------------------------------
    trials = run_experiment(
        world, fractions=(1e-5, 1e-4, 1e-3), trials_per_fraction=2, seed=99
    )
    power, coefficient = fit_power_law(trials)
    print(f"\ncontrolled scans: queriers ~ {coefficient:.2g} * targets^{power:.2f}")

    # --- serialize and reload the sensor log -----------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "de-dns.log"
        count = write_log(path, de_sensor.log)
        reloaded = read_log_block(path)
        print(f"wrote and reloaded {count} == {len(reloaded)} log lines")


if __name__ == "__main__":
    main()
