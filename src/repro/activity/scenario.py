"""Long-horizon activity scenarios: actors, churn, teams, world events.

§ V and § VI study how network-wide activity evolves over months: benign
originators persist (≈10% decay per month), malicious ones churn fast
(≈50% per month), a stable core of scanners probes continuously, /24
"team" blocks host many coordinated scanners, and security events like
the Heartbleed announcement (2014-04-07) trigger bursts of tcp443
scanning (Fig 11, Fig 13).

An :class:`Actor` is one originator IP with a birth time and a lifetime;
while alive it emits campaigns — one long campaign for continuous service
classes, a recurring series for episodic classes (mail sendouts, spam
runs, scan sweeps).  Scenario time is seconds from the observation start;
day 0 is the first observed day.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.activity.base import (
    Campaign,
    _sample_ptr_spec,
    allocate_routed_originator,
    build_campaign,
)
from repro.activity.classes import (
    APPLICATION_CLASSES,
    PROFILES,
    SCAN_VARIANTS,
    TemporalMode,
)
from repro.activity.diurnal import SECONDS_PER_DAY
from repro.dnssim.zone import PtrRecordSpec
from repro.netmodel.addressing import Prefix
from repro.netmodel.world import World

__all__ = [
    "LIFETIME_DAYS_MEAN",
    "Actor",
    "ScenarioConfig",
    "Scenario",
    "build_scenario",
]

#: Mean actor lifetime per class, in days.  Exponential lifetimes with
#: these means reproduce Fig 5/6: exp(-30/300) ≈ 10% monthly decay for
#: benign classes, exp(-30/43) ≈ 50% for malicious ones.
LIFETIME_DAYS_MEAN: dict[str, float] = {
    "ad-tracker": 400.0,
    "cdn": 200.0,
    "cloud": 500.0,
    "crawler": 300.0,
    "dns": 600.0,
    "mail": 270.0,
    "ntp": 600.0,
    "p2p": 90.0,
    "push": 500.0,
    "update": 600.0,
    "scan": 45.0,
    "spam": 38.0,
}

#: Mean gap between campaigns for episodic classes (days); continuous
#: classes run a single campaign for their whole lifetime.
_EPISODIC_GAP_DAYS: dict[str, float] = {
    "mail": 6.0,
    "spam": 2.0,
    "scan": 2.0,
    "p2p": 3.0,
}

#: Fraction of scan actors that are slow-and-steady core scanners — the
#: always-present background § VI-C identifies.
_PERSISTENT_SCANNER_FRACTION = 0.3
_PERSISTENT_SCAN_VARIANTS = ("tcp22", "multi")


@dataclass(slots=True)
class Actor:
    """One originator IP carrying out one class of activity over its life."""

    originator: int
    app_class: str
    born_day: float
    lifetime_days: float
    home_country: str | None
    ptr_spec: PtrRecordSpec
    audience_size: int
    variant: str | None = None
    team_block: Prefix | None = None
    persistent: bool = False

    @property
    def dies_day(self) -> float:
        return self.born_day + self.lifetime_days

    def alive_on(self, day: float) -> bool:
        return self.born_day <= day < self.dies_day


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Population sizes and events for one long observation."""

    seed: int = 2014
    duration_days: float = 63.0
    initial_actors: dict[str, int] = field(
        default_factory=lambda: {
            "ad-tracker": 6,
            "cdn": 14,
            "cloud": 8,
            "crawler": 8,
            "dns": 8,
            "mail": 16,
            "ntp": 4,
            "p2p": 8,
            "push": 6,
            "scan": 24,
            "spam": 30,
            "update": 3,
        }
    )
    weekly_arrivals: dict[str, float] = field(
        default_factory=lambda: {
            "ad-tracker": 0.3,
            "cdn": 1.5,
            "cloud": 0.3,
            "crawler": 0.5,
            "dns": 0.3,
            "mail": 2.0,
            "ntp": 0.1,
            "p2p": 1.5,
            "push": 0.3,
            "scan": 7.0,
            "spam": 10.0,
            "update": 0.05,
        }
    )
    audience_scale: float = 1.0
    """Multiplies every actor's audience size; the event-budget knob."""
    heartbleed_day: float | None = None
    heartbleed_extra_scanners: int = 12
    heartbleed_window_days: float = 14.0
    team_blocks: int = 3
    lifetimes: dict[str, float] = field(default_factory=lambda: dict(LIFETIME_DAYS_MEAN))
    force_home_country: str | None = None
    """Place every actor in one country — used for national vantage
    datasets, which only see originators in their own delegated space."""


@dataclass(slots=True)
class Scenario:
    """The materialized population: actors plus their campaigns."""

    config: ScenarioConfig
    actors: list[Actor]
    campaigns: list[Campaign]
    team_prefixes: list[Prefix]

    def alive_counts(self, day: float) -> dict[str, int]:
        counts = {name: 0 for name in APPLICATION_CLASSES}
        for actor in self.actors:
            if actor.alive_on(day):
                counts[actor.app_class] += 1
        return counts


def _draw_audience_size(
    world: World, app_class: str, scale: float, rng: np.random.Generator
) -> int:
    profile = PROFILES[app_class]
    drawn = rng.lognormal(profile.audience_logmu, profile.audience_logsigma) * scale
    cap = min(profile.audience_max * scale, 0.4 * len(world.queriers))
    return int(np.clip(drawn, 20, max(21.0, cap)))


def _make_actor(
    world: World,
    app_class: str,
    born_day: float,
    config: ScenarioConfig,
    rng: np.random.Generator,
    team_prefixes: list[Prefix],
    variant: str | None = None,
    lifetime_days: float | None = None,
) -> Actor:
    profile = PROFILES[app_class]
    persistent = False
    if app_class == "scan" and variant is None:
        if rng.random() < _PERSISTENT_SCANNER_FRACTION:
            persistent = True
            variant = _PERSISTENT_SCAN_VARIANTS[
                int(rng.integers(len(_PERSISTENT_SCAN_VARIANTS)))
            ]
        else:
            variant = SCAN_VARIANTS[int(rng.integers(len(SCAN_VARIANTS)))]
    if lifetime_days is None:
        mean = config.lifetimes[app_class]
        if persistent:
            mean *= 6.0
        lifetime_days = max(1.0, float(rng.exponential(mean)))
    if config.force_home_country is not None:
        home = config.force_home_country
    elif profile.originator_countries:
        home = profile.originator_countries[
            int(rng.integers(len(profile.originator_countries)))
        ]
    else:
        codes = sorted(world.geo.countries)
        weights = np.array([world.geo.countries[c].weight for c in codes])
        home = codes[int(rng.choice(len(codes), p=weights / weights.sum()))]
    team_block: Prefix | None = None
    # Persistent core scanners are usually team operations (the paper's
    # tcp22 example shares its /24 with 140 other scanning addresses).
    team_probability = 0.6 if persistent else profile.team_probability
    if (
        app_class == "scan"
        and team_prefixes
        and rng.random() < team_probability
    ):
        team_block = team_prefixes[int(rng.integers(len(team_prefixes)))]
        originator = world.allocate_in_block(rng, team_block)
    elif rng.random() < profile.originator_routed_probability:
        kind = profile.originator_kinds[int(rng.integers(len(profile.originator_kinds)))]
        originator = allocate_routed_originator(world, rng, home, kind)
    else:
        originator = world.allocate_originator(rng, country=home, routed=False)
    audience_size = _draw_audience_size(world, app_class, config.audience_scale, rng)
    if persistent:
        # The slow-and-steady core is what sensors see week after week;
        # give it the larger, reliably-analyzable footprints the paper's
        # tcp22/multi examples carry.
        audience_size = int(audience_size * 1.5)
    return Actor(
        originator=originator,
        app_class=app_class,
        born_day=born_day,
        lifetime_days=lifetime_days,
        home_country=home,
        ptr_spec=_sample_ptr_spec(profile, rng),
        audience_size=audience_size,
        variant=variant,
        team_block=team_block,
        persistent=persistent,
    )


def _campaigns_for_actor(
    world: World,
    actor: Actor,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> list[Campaign]:
    """Emit the actor's campaigns clipped to the observation window."""
    profile = PROFILES[actor.app_class]
    window_end_day = config.duration_days
    active_start = max(actor.born_day, 0.0)
    active_end = min(actor.dies_day, window_end_day)
    if active_end <= active_start:
        return []
    campaigns: list[Campaign] = []
    if profile.temporal_mode is TemporalMode.CONTINUOUS:
        campaigns.append(
            build_campaign(
                world,
                actor.app_class,
                rng,
                start=active_start * SECONDS_PER_DAY,
                duration_days=active_end - active_start,
                audience_size=actor.audience_size,
                variant=actor.variant,
                originator=actor.originator,
                home_country=actor.home_country,
                ptr_spec=actor.ptr_spec,
            )
        )
        return campaigns
    gap_mean = _EPISODIC_GAP_DAYS.get(actor.app_class, 3.0)
    cursor = active_start
    while cursor < active_end:
        duration = max(0.1, float(rng.exponential(profile.duration_days_mean)))
        if actor.persistent:
            duration = max(duration, 7.0)
        duration = min(duration, active_end - cursor)
        size = max(20, int(actor.audience_size * rng.uniform(0.8, 1.2)))
        campaigns.append(
            build_campaign(
                world,
                actor.app_class,
                rng,
                start=cursor * SECONDS_PER_DAY,
                duration_days=duration,
                audience_size=size,
                variant=actor.variant,
                originator=actor.originator,
                home_country=actor.home_country,
                ptr_spec=actor.ptr_spec,
            )
        )
        gap = 0.2 if actor.persistent else float(rng.exponential(gap_mean))
        cursor += duration + max(gap, 0.05)
    return campaigns


def build_scenario(world: World, config: ScenarioConfig | None = None) -> Scenario:
    """Create the full actor population and all campaigns for a window.

    Initial actors are aged uniformly into their lifetimes (a stationary
    population); arrivals follow per-class Poisson processes; the
    Heartbleed event injects short-lived tcp443 scanners in a burst.
    """
    config = config or ScenarioConfig()
    rng = np.random.default_rng(config.seed)
    team_prefixes = [
        world.allocate_team_block(rng, country=config.force_home_country)
        for _ in range(config.team_blocks)
    ]
    actors: list[Actor] = []
    for app_class in APPLICATION_CLASSES:
        for _ in range(config.initial_actors.get(app_class, 0)):
            mean = config.lifetimes[app_class]
            lifetime = max(1.0, float(rng.exponential(mean)))
            age = float(rng.uniform(0.0, lifetime))
            actor = _make_actor(
                world,
                app_class,
                born_day=-age,
                config=config,
                rng=rng,
                team_prefixes=team_prefixes,
                lifetime_days=lifetime,
            )
            actors.append(actor)
        rate_per_day = config.weekly_arrivals.get(app_class, 0.0) / 7.0
        if rate_per_day > 0:
            day = 0.0
            while True:
                day += float(rng.exponential(1.0 / rate_per_day))
                if day >= config.duration_days:
                    break
                actors.append(
                    _make_actor(
                        world, app_class, day, config, rng, team_prefixes
                    )
                )
    if config.heartbleed_day is not None:
        for _ in range(config.heartbleed_extra_scanners):
            born = config.heartbleed_day + float(
                rng.uniform(0.0, config.heartbleed_window_days * 0.5)
            )
            actors.append(
                _make_actor(
                    world,
                    "scan",
                    born,
                    config,
                    rng,
                    team_prefixes,
                    variant="tcp443",
                    lifetime_days=float(
                        rng.uniform(3.0, config.heartbleed_window_days)
                    ),
                )
            )
    campaigns: list[Campaign] = []
    for actor in actors:
        campaigns.extend(_campaigns_for_actor(world, actor, config, rng))
    campaigns.sort(key=lambda c: c.start)
    return Scenario(
        config=config, actors=actors, campaigns=campaigns, team_prefixes=team_prefixes
    )
