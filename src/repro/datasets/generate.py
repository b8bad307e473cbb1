"""Dataset generation: run one Table I collection end to end.

``generate_dataset(spec)`` builds the world, materializes the scenario's
actors and campaigns, wires the spec's vantage point into a DNS
hierarchy, replays every campaign lookup chronologically through the
resolver caches, and finally lets the ground-truth apparatus (darknet +
blacklists) observe the same campaigns.  Everything is seeded from the
spec, so regeneration is bit-identical — the tests pin that.

``get_dataset(name, preset)`` memoizes by ``(name, preset)``: the
experiment harness calls it from every table/figure module, and a
270-day simulation must only ever run once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.activity.engine import SimulationEngine
from repro.activity.scenario import Scenario, build_scenario
from repro.datasets.specs import DatasetSpec, VantageSpec, spec_for
from repro.dnssim.authority import Authority, AuthorityLevel
from repro.dnssim.hierarchy import DnsHierarchy
from repro.groundtruth.blacklist import BlacklistRegistry
from repro.groundtruth.darknet import Darknet
from repro.groundtruth.labeling import GroundTruthSources
from repro.netmodel.world import World, WorldConfig
from repro.sensor.directory import FrozenDirectory, world_directory

__all__ = [
    "GeneratedDataset",
    "MultiVantageDataset",
    "generate_dataset",
    "generate_multi_vantage",
    "get_dataset",
]

SECONDS_PER_DAY = 86400.0


@dataclass(slots=True)
class GeneratedDataset:
    """One generated collection: the world it ran in and what the sensor saw."""

    spec: DatasetSpec
    world: World
    scenario: Scenario
    hierarchy: DnsHierarchy
    sensor: Authority
    darknet: Darknet
    blacklists: BlacklistRegistry
    _directory: FrozenDirectory | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def duration_seconds(self) -> float:
        return self.spec.duration_days * SECONDS_PER_DAY

    def directory(self) -> FrozenDirectory:
        """This dataset's world as a querier directory, built on first use."""
        if self._directory is None:
            self._directory = world_directory(self.world)
        return self._directory

    def true_classes(self) -> dict[int, str]:
        """Originator → application class, from the simulation's own record."""
        return {c.originator: c.app_class for c in self.scenario.campaigns}

    def sources(self) -> GroundTruthSources:
        """The external-evidence bundle § IV-B curation consults."""
        return GroundTruthSources(
            darknet=self.darknet,
            blacklists=self.blacklists,
            actors_by_ip={a.originator: a for a in self.scenario.actors},
            seed=self.spec.seed + 7,
        )


def _attach_sensor(hierarchy: DnsHierarchy, world: World, vantage: VantageSpec) -> Authority:
    if vantage.kind == "root":
        return hierarchy.attach_root(
            Authority(
                name=vantage.name,
                level=AuthorityLevel.ROOT,
                root_letter=vantage.root_letter,
                sampling=vantage.sampling,
                sites=vantage.sites,
            )
        )
    if vantage.kind == "national":
        return hierarchy.attach_national(
            Authority(
                name=vantage.name,
                level=AuthorityLevel.NATIONAL,
                country=vantage.country,
                scope_slash8=frozenset(world.geo.blocks_of(vantage.country)),
                sampling=vantage.sampling,
                sites=vantage.sites,
            )
        )
    raise ValueError(f"unknown vantage kind {vantage.kind!r}")


def generate_dataset(spec: DatasetSpec) -> GeneratedDataset:
    """Simulate one collection from scratch; deterministic in the spec."""
    world = World(WorldConfig(seed=spec.seed, scale=spec.world_scale))
    scenario = build_scenario(world, spec.scenario)
    hierarchy = DnsHierarchy(world, seed=spec.seed + 1)
    sensor = _attach_sensor(hierarchy, world, spec.vantage)
    engine = SimulationEngine(world, hierarchy)
    engine.extend(scenario.campaigns)
    engine.run(0.0, spec.duration_days * SECONDS_PER_DAY)
    darknet = Darknet(world, seed=spec.seed + 2)
    darknet.observe(scenario.campaigns)
    blacklists = BlacklistRegistry(seed=spec.seed + 3)
    blacklists.observe(scenario.campaigns)
    return GeneratedDataset(
        spec=spec,
        world=world,
        scenario=scenario,
        hierarchy=hierarchy,
        sensor=sensor,
        darknet=darknet,
        blacklists=blacklists,
    )


@dataclass(slots=True)
class MultiVantageDataset:
    """One simulation observed from several vantages at once.

    The paper measures each authority separately; cross-vantage fusion
    (:mod:`repro.federation.fusion`) instead needs the *same* originators
    seen through *different* attenuation — a national authority below
    most caching, a root behind nearly-complete caching.  This bundle
    runs one world/scenario once with every vantage attached, so each
    sensor's log is that vantage's genuinely attenuated view of the same
    ground-truth activity.
    """

    spec: DatasetSpec
    world: World
    scenario: Scenario
    hierarchy: DnsHierarchy
    sensors: dict[str, Authority]
    """Vantage name → its authority (and attenuated log)."""
    _directory: FrozenDirectory | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def duration_seconds(self) -> float:
        return self.spec.duration_days * SECONDS_PER_DAY

    def directory(self) -> FrozenDirectory:
        """This dataset's world as a querier directory, built on first use."""
        if self._directory is None:
            self._directory = world_directory(self.world)
        return self._directory

    def true_classes(self) -> dict[int, str]:
        """Originator → application class, from the simulation's own record."""
        return {c.originator: c.app_class for c in self.scenario.campaigns}


def generate_multi_vantage(
    spec: DatasetSpec, vantages: list[VantageSpec]
) -> MultiVantageDataset:
    """Simulate one collection with every vantage attached; deterministic.

    *spec* supplies the world/scenario/duration (its own ``vantage``
    field is ignored); *vantages* are attached together before the run,
    so a root and a ccTLD sensor log the same resolutions with their own
    cache attenuation.
    """
    if not vantages:
        raise ValueError("need at least one vantage")
    world = World(WorldConfig(seed=spec.seed, scale=spec.world_scale))
    scenario = build_scenario(world, spec.scenario)
    hierarchy = DnsHierarchy(world, seed=spec.seed + 1)
    for vantage in vantages:
        _attach_sensor(hierarchy, world, vantage)
    engine = SimulationEngine(world, hierarchy)
    engine.extend(scenario.campaigns)
    engine.run(0.0, spec.duration_days * SECONDS_PER_DAY)
    return MultiVantageDataset(
        spec=spec,
        world=world,
        scenario=scenario,
        hierarchy=hierarchy,
        sensors=hierarchy.sensors_by_name(),
    )


_CACHE: dict[tuple[str, str], GeneratedDataset] = {}


def get_dataset(name: str, preset: str = "default") -> GeneratedDataset:
    """Memoized :func:`generate_dataset` keyed by ``(name, preset)``.

    Callers share the returned dataset — treat it as read-only.
    """
    key = (name, preset)
    dataset = _CACHE.get(key)
    if dataset is None:
        dataset = generate_dataset(spec_for(name, preset))
        _CACHE[key] = dataset
    return dataset
