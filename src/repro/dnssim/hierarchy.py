"""Wiring of the reverse-DNS hierarchy: resolution paths and sensors.

:class:`DnsHierarchy` is the simulator's data plane.  Activity models hand
it *touch-induced lookups* — "querier q resolves the PTR of originator o at
time t" — and it walks the resolver's caches, decides which authorities see
a packet, appends log entries at attached sensors, and returns the answer.

Root anycast/selection: real resolvers favor nearby root instances ("\
visibility is affected by selection algorithms that favor nearby DNS
servers", § II).  Each resolver picks a sticky preferred root letter from a
per-region affinity table; B-Root (single US site in 2014) is most popular
in North America, M-Root (7 sites across Asia/NA/Europe, operated by WIDE)
in Asia.  Roots other than the sensed letters (b, m) absorb the remaining
probability and are not observed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dnssim.authority import Authority, AuthorityLevel
from repro.dnssim.message import PtrResponse
from repro.dnssim.resolver import RecursiveResolver, ResolverConfig
from repro.dnssim.zone import PtrRecordSpec, ReverseZoneDb
from repro.netmodel.world import Querier, World

__all__ = ["RootAffinity", "HierarchyStats", "DnsHierarchy", "DEFAULT_ROOT_AFFINITY"]


#: Per-region probability that a resolver's preferred root is b or m; the
#: remainder goes to the 11 unobserved letters.
DEFAULT_ROOT_AFFINITY: dict[str, dict[str, float]] = {
    "na": {"b": 0.22, "m": 0.06},
    "asia": {"b": 0.04, "m": 0.26},
    "eu": {"b": 0.05, "m": 0.12},
    "sa": {"b": 0.12, "m": 0.04},
    "oc": {"b": 0.05, "m": 0.16},
    "africa": {"b": 0.07, "m": 0.09},
}

_OTHER_ROOT = "_other"


@dataclass(slots=True)
class RootAffinity:
    """Sticky root-letter selection from regional preference weights."""

    table: dict[str, dict[str, float]] = field(
        default_factory=lambda: {k: dict(v) for k, v in DEFAULT_ROOT_AFFINITY.items()}
    )

    def pick(self, region: str, rng: np.random.Generator) -> str:
        weights = self.table.get(region) or {"b": 1 / 13, "m": 1 / 13}
        roll = rng.random()
        accumulated = 0.0
        for letter, probability in weights.items():
            accumulated += probability
            if roll < accumulated:
                return letter
        return _OTHER_ROOT


@dataclass(slots=True)
class HierarchyStats:
    """Aggregate counters across all resolutions."""

    lookups: int = 0
    ptr_cache_hits: int = 0
    root_queries: int = 0
    national_queries: int = 0
    final_queries: int = 0


class DnsHierarchy:
    """Routes PTR lookups through caches to authorities.

    Parameters
    ----------
    world:
        The querier population (supplies regions and shared resolvers).
    zonedb:
        PTR record specs for all originators.
    seed:
        Dedicated RNG stream for cache warm-seeding and root selection, so
        identical activity inputs yield identical logs.
    resolver_config:
        Cache behaviour; see :class:`~repro.dnssim.resolver.ResolverConfig`.
    """

    def __init__(
        self,
        world: World,
        zonedb: ReverseZoneDb | None = None,
        seed: int = 715,
        resolver_config: ResolverConfig | None = None,
        affinity: RootAffinity | None = None,
    ) -> None:
        self.world = world
        self.zonedb = zonedb or ReverseZoneDb()
        self.resolver_config = resolver_config or ResolverConfig()
        self.affinity = affinity or RootAffinity()
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._resolvers: dict[int, RecursiveResolver] = {}
        self._regions: dict[str, str] = {
            c.code: c.region for c in world.geo.countries.values()
        }
        self.roots: dict[str, Authority] = {}
        self.nationals: list[Authority] = []
        self.finals: list[tuple[frozenset[int], Authority]] = []
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    # sensor attachment
    # ------------------------------------------------------------------

    def attach_root(self, authority: Authority) -> Authority:
        if authority.level is not AuthorityLevel.ROOT or not authority.root_letter:
            raise ValueError("root sensor needs level=ROOT and a root_letter")
        self.roots[authority.root_letter] = authority
        return authority

    def attach_national(self, authority: Authority) -> Authority:
        if authority.level is not AuthorityLevel.NATIONAL:
            raise ValueError("national sensor needs level=NATIONAL")
        if not authority.scope_slash8:
            raise ValueError("national sensor needs a /8 scope")
        self.nationals.append(authority)
        return authority

    def attach_final(self, addresses: frozenset[int], authority: Authority) -> Authority:
        """Attach a final-authority sensor for specific originator addresses."""
        if authority.level is not AuthorityLevel.FINAL:
            raise ValueError("final sensor needs level=FINAL")
        self.finals.append((addresses, authority))
        return authority

    def all_sensors(self) -> list[Authority]:
        return list(self.roots.values()) + self.nationals + [a for _, a in self.finals]

    def sensors_by_name(self) -> dict[str, Authority]:
        """Attached sensors keyed by authority name (names must be unique)."""
        sensors: dict[str, Authority] = {}
        for sensor in self.all_sensors():
            if sensor.name in sensors:
                raise ValueError(f"duplicate sensor name {sensor.name!r}")
            sensors[sensor.name] = sensor
        return sensors

    # ------------------------------------------------------------------
    # registration helpers
    # ------------------------------------------------------------------

    def register_originator(self, addr: int, spec: PtrRecordSpec) -> None:
        self.zonedb.register(addr, spec)

    # ------------------------------------------------------------------
    # the data plane
    # ------------------------------------------------------------------

    def resolver_for(self, querier: Querier) -> RecursiveResolver:
        """The resolver a querier uses — itself; shared machines are shared.

        Each resolver gets a private RNG stream derived from (hierarchy
        seed, address), so root selection and cache warm-seeding do not
        depend on the order in which resolvers are first touched — logs
        are invariant to engine chunking and to unrelated traffic.
        """
        resolver = self._resolvers.get(querier.addr)
        if resolver is None:
            region = self._regions.get(querier.country, "na")
            child = np.random.default_rng(
                np.random.SeedSequence(entropy=(self._seed, querier.addr))
            )
            resolver = RecursiveResolver(
                addr=querier.addr,
                shared=querier.shared,
                region=region,
                preferred_root=self.affinity.pick(region, child),
                config=self.resolver_config,
                rng=child,
            )
            self._resolvers[querier.addr] = resolver
        return resolver

    def observable(self, querier: Querier) -> bool:
        """Whether a lookup by *querier* can ever reach an attached sensor.

        With only root sensors attached, a resolver whose sticky preferred
        root is an unsensed letter can never produce a log entry, and its
        private cache state influences nothing observable — so callers may
        skip its lookups entirely.  This is an exact optimization, not an
        approximation: caches are per-resolver and the PTR answer itself
        has no side effects.
        """
        if self.nationals or self.finals:
            return True
        if not self.roots:
            return False
        return self.resolver_for(querier).preferred_root in self.roots

    def resolve_ptr(self, querier: Querier, originator: int, now: float) -> PtrResponse:
        """Resolve the originator's PTR on behalf of *querier* at time *now*.

        Side effects: cache fills in the querier's resolver and log entries
        at every attached sensor whose level the lookup actually reached.
        """
        self.stats.lookups += 1
        resolver = self.resolver_for(querier)
        cached = resolver.cached_answer(originator, now)
        if cached is not None:
            self.stats.ptr_cache_hits += 1
            return cached
        rng = resolver.rng
        if not resolver.root_cut_cached(originator, now, rng):
            self.stats.root_queries += 1
            sensor = self.roots.get(resolver.preferred_root)
            if sensor is not None:
                if resolver.minimizes:
                    sensor.observe_minimized(now)
                else:
                    sensor.observe(now, resolver.addr, originator)
            resolver.note_root_fetched(originator, now)
        if not resolver.national_cut_cached(originator, now, rng):
            self.stats.national_queries += 1
            for sensor in self.nationals:
                if sensor.covers(originator):
                    if resolver.minimizes:
                        sensor.observe_minimized(now)
                    else:
                        sensor.observe(now, resolver.addr, originator)
            resolver.note_national_fetched(originator, now)
        self.stats.final_queries += 1
        for addresses, sensor in self.finals:
            if originator in addresses:
                sensor.observe(now, resolver.addr, originator)
        response = self.zonedb.resolve(originator)
        resolver.store_answer(originator, response, now)
        return response

    # ------------------------------------------------------------------
