"""The synthetic Internet: countries, ASes, and the querier population.

This is the substrate substituting for the real Internet behind the paper's
authoritative-DNS vantage points.  A :class:`World` owns:

* a :class:`~repro.netmodel.geography.GeoRegistry` (countries and /8s),
* an :class:`~repro.netmodel.asn.ASRegistry` (ASes owning /16s),
* a population of :class:`Querier` machines with reverse names following
  real naming conventions, each attached to an AS and country,
* address-allocation helpers for placing *originators* (the hosts whose
  network-wide activity the sensor classifies).

Queriers are the machines that perform reverse-DNS lookups when an
originator touches targets near them: firewalls, mail servers, shared
recursive resolvers, home CPE, and so on (§ II of the paper).  The paper
reports 14–19% of queriers have no reverse name; we model that with a
``name_status`` of ``NXDOMAIN`` (no PTR record) or ``UNREACH`` (the
querier's own reverse zone is unreachable / lame).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.netmodel.addressing import Prefix, slash24
from repro.netmodel.asn import ASKind, ASRegistry, AutonomousSystem, build_as_registry
from repro.netmodel.geography import (
    DEFAULT_COUNTRIES,
    Country,
    GeoRegistry,
    build_geo_registry,
)
from repro.netmodel.namespace import NameSynthesizer, QuerierRole

__all__ = ["NameStatus", "Querier", "WorldConfig", "World"]


class NameStatus(enum.Enum):
    """Whether a querier's reverse name resolves."""

    OK = "ok"
    NXDOMAIN = "nxdomain"
    UNREACH = "unreach"


@dataclass(frozen=True, slots=True)
class Querier:
    """One machine that issues PTR queries on behalf of targets."""

    addr: int
    role: QuerierRole
    asn: int
    country: str
    name: str | None
    name_status: NameStatus
    shared: bool
    """True for shared recursive resolvers serving many targets."""


# Querier population template per AS kind: role -> mean count.  Counts are
# scaled by WorldConfig.scale and drawn from a Poisson around the mean, with
# at least the floor for structural roles (every ISP has a resolver).
_POPULATION: dict[ASKind, dict[QuerierRole, float]] = {
    ASKind.ISP: {
        QuerierRole.NS: 2.0,
        QuerierRole.HOME: 24.0,
        QuerierRole.MAIL: 2.0,
        QuerierRole.FIREWALL: 1.5,
        QuerierRole.WWW: 1.0,
        QuerierRole.NTP: 0.3,
        QuerierRole.OTHER: 3.0,
    },
    ASKind.MOBILE: {
        QuerierRole.NS: 3.0,
        QuerierRole.HOME: 10.0,
        QuerierRole.OTHER: 2.0,
    },
    ASKind.HOSTING: {
        QuerierRole.NS: 1.0,
        QuerierRole.MAIL: 3.0,
        QuerierRole.FIREWALL: 2.0,
        QuerierRole.WWW: 3.0,
        QuerierRole.ANTISPAM: 0.5,
        QuerierRole.OTHER: 8.0,
    },
    ASKind.ENTERPRISE: {
        QuerierRole.NS: 1.0,
        QuerierRole.MAIL: 2.0,
        QuerierRole.FIREWALL: 2.5,
        QuerierRole.ANTISPAM: 1.0,
        QuerierRole.WWW: 1.0,
        QuerierRole.OTHER: 4.0,
    },
    ASKind.UNIVERSITY: {
        QuerierRole.NS: 2.0,
        QuerierRole.MAIL: 2.0,
        QuerierRole.FIREWALL: 1.5,
        QuerierRole.NTP: 1.0,
        QuerierRole.WWW: 2.0,
        QuerierRole.OTHER: 4.0,
    },
    ASKind.CLOUD: {
        QuerierRole.CDN: 4.0,
        QuerierRole.AWS: 3.0,
        QuerierRole.MS: 2.0,
        QuerierRole.GOOGLE: 2.0,
        QuerierRole.NS: 1.0,
        QuerierRole.MAIL: 1.0,
        QuerierRole.OTHER: 4.0,
    },
}

_SHARED_ROLES = frozenset({QuerierRole.NS})


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """Knobs for world construction; defaults give ~15k queriers."""

    seed: int = 20150415
    countries: tuple[Country, ...] = DEFAULT_COUNTRIES
    total_slash8: int = 180
    ases_per_block: float = 3.0
    scale: float = 1.0
    """Multiplies querier counts per AS; <1 for fast tests, >1 for big runs."""
    nxdomain_fraction: float = 0.12
    unreach_fraction: float = 0.05
    """Together ≈ the paper's 14–19% of queriers without usable reverse names."""


class World:
    """Builds and indexes the full synthetic population.

    Construction is deterministic in ``config.seed``.  All sampling helpers
    take an explicit ``rng`` so that activity generation composes its own
    reproducible stream without disturbing the world's.
    """

    def __init__(self, config: WorldConfig | None = None) -> None:
        self.config = config or WorldConfig()
        self._rng = np.random.default_rng(self.config.seed)
        self.geo: GeoRegistry = build_geo_registry(
            self.config.countries, self.config.total_slash8
        )
        self.asns: ASRegistry = build_as_registry(
            self.geo, self._rng, self.config.ases_per_block
        )
        self.namer = NameSynthesizer(self._rng)
        self.queriers: list[Querier] = []
        self._by_role: dict[QuerierRole, list[int]] = {r: [] for r in QuerierRole}
        self._by_country: dict[str, list[int]] = {}
        self._used_addrs: set[int] = set()
        self._originator_cursor: dict[int, int] = {}
        self._infra_blocks: dict[int, list[int]] = {}
        self._populate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _populate(self) -> None:
        rng = self._rng
        cfg = self.config
        for asystem in sorted(self.asns, key=lambda a: a.asn):
            template = _POPULATION[asystem.kind]
            for role, mean in template.items():
                count = int(rng.poisson(mean * cfg.scale))
                if role in _SHARED_ROLES and mean >= 1.0:
                    count = max(count, 1)
                for _ in range(count):
                    addr = self._fresh_addr(asystem, rng)
                    if addr is None:
                        break
                    self._add_querier(asystem, role, addr, rng)

    def _infrastructure_blocks(
        self, asystem: AutonomousSystem, rng: np.random.Generator
    ) -> list[int]:
        """The handful of /24s an AS concentrates its machines in.

        Real ASes put resolvers, mail relays, and CPE pools in a few
        subnets rather than scattering them across their space; this
        clustering is what keeps the sensor's /24 local entropy just
        below 1 (Table II's 0.92-0.97)."""
        blocks = self._infra_blocks.get(asystem.asn)
        if blocks is None:
            count = 3 + int(rng.integers(6))
            blocks = []
            for _ in range(count):
                prefix = asystem.prefixes[int(rng.integers(len(asystem.prefixes)))]
                blocks.append(prefix.network | (int(rng.integers(256)) << 8))
            self._infra_blocks[asystem.asn] = blocks
        return blocks

    def _fresh_addr(
        self, asystem: AutonomousSystem, rng: np.random.Generator
    ) -> int | None:
        """An unused address inside one of the AS's infrastructure /24s,
        spilling into the full prefixes when those fill up."""
        blocks = self._infrastructure_blocks(asystem, rng)
        for _ in range(32):
            base = blocks[int(rng.integers(len(blocks)))]
            addr = base | int(rng.integers(256))
            if addr not in self._used_addrs:
                self._used_addrs.add(addr)
                return addr
        for _ in range(64):
            prefix = asystem.prefixes[int(rng.integers(len(asystem.prefixes)))]
            addr = prefix.nth(int(rng.integers(prefix.size)))
            if addr not in self._used_addrs:
                self._used_addrs.add(addr)
                return addr
        return None

    def _add_querier(
        self,
        asystem: AutonomousSystem,
        role: QuerierRole,
        addr: int,
        rng: np.random.Generator,
    ) -> None:
        cfg = self.config
        roll = rng.random()
        if roll < cfg.nxdomain_fraction:
            status, name = NameStatus.NXDOMAIN, None
        elif roll < cfg.nxdomain_fraction + cfg.unreach_fraction:
            status, name = NameStatus.UNREACH, None
        else:
            status = NameStatus.OK
            name = self.namer.name_for(role, addr, asystem)
        querier = Querier(
            addr=addr,
            role=role,
            asn=asystem.asn,
            country=asystem.country,
            name=name,
            name_status=status,
            shared=role in _SHARED_ROLES,
        )
        index = len(self.queriers)
        self.queriers.append(querier)
        self._by_role[role].append(index)
        self._by_country.setdefault(asystem.country, []).append(index)

    # ------------------------------------------------------------------
    # lookups (the simulator's whois + GeoIP)
    # ------------------------------------------------------------------

    def country_of(self, addr: int) -> str | None:
        return self.geo.country_of(addr)

    def asn_of(self, addr: int) -> int | None:
        return self.asns.asn_of(addr)

    # ------------------------------------------------------------------
    # sampling helpers used by activity models
    # ------------------------------------------------------------------

    def indices_for_role(self, role: QuerierRole) -> list[int]:
        return self._by_role[role]

    def nameless_indices(self) -> list[int]:
        """Queriers without a usable reverse name (NXDOMAIN or UNREACH).

        Activities that touch unmanaged space (scanning, misbehaving p2p)
        draw extra queriers from this pool; computed lazily and cached.
        """
        cached = getattr(self, "_nameless_cache", None)
        if cached is None:
            cached = [
                i for i, q in enumerate(self.queriers) if q.name_status is not NameStatus.OK
            ]
            self._nameless_cache = cached
        return cached

    def sample_queriers(
        self,
        rng: np.random.Generator,
        count: int,
        role_weights: dict[QuerierRole, float],
        country_weights: dict[str, float] | None = None,
    ) -> list[Querier]:
        """Sample *count* distinct queriers with the given role mix.

        ``role_weights`` need not be normalized.  When ``country_weights``
        is given, candidates are first restricted per-country, giving
        geographically concentrated activities (a Japanese mailing list, a
        China-serving CDN) their low global entropy.  Sampling is without
        replacement; if a bucket is exhausted the remainder spills into the
        global pool for that role.
        """
        roles = [r for r, w in role_weights.items() if w > 0]
        weights = np.array([role_weights[r] for r in roles], dtype=float)
        weights = weights / weights.sum()
        chosen: list[Querier] = []
        seen: set[int] = set()
        role_draws = rng.choice(len(roles), size=count, p=weights)
        for role_idx in role_draws:
            role = roles[int(role_idx)]
            pool = self._role_pool(role, country_weights, rng)
            picked = self._pick_unseen(pool, seen, rng)
            if picked is None:
                picked = self._pick_unseen(self._by_role[role], seen, rng)
            if picked is None:
                continue
            seen.add(picked)
            chosen.append(self.queriers[picked])
        return chosen

    def _role_pool(
        self,
        role: QuerierRole,
        country_weights: dict[str, float] | None,
        rng: np.random.Generator,
    ) -> list[int]:
        if not country_weights:
            return self._by_role[role]
        codes = list(country_weights)
        probs = np.array([country_weights[c] for c in codes], dtype=float)
        probs = probs / probs.sum()
        code = codes[int(rng.choice(len(codes), p=probs))]
        pool = [
            i for i in self._by_country.get(code, []) if self.queriers[i].role is role
        ]
        return pool or self._by_role[role]

    @staticmethod
    def _pick_unseen(
        pool: list[int], seen: set[int], rng: np.random.Generator
    ) -> int | None:
        if not pool:
            return None
        for _ in range(8):
            candidate = pool[int(rng.integers(len(pool)))]
            if candidate not in seen:
                return candidate
        remaining = [i for i in pool if i not in seen]
        if not remaining:
            return None
        return remaining[int(rng.integers(len(remaining)))]

    # ------------------------------------------------------------------
    # originator address allocation
    # ------------------------------------------------------------------

    def allocate_originator(
        self,
        rng: np.random.Generator,
        country: str | None = None,
        kind: ASKind | None = None,
        routed: bool = True,
    ) -> int:
        """A fresh address for an originator.

        ``routed=False`` allocates from space outside any AS (the paper's
        "unreach" top originators whose reverse zones do not exist).
        """
        if not routed:
            return self._allocate_unrouted(rng, country)
        candidates = list(self.asns)
        if country is not None:
            candidates = [a for a in candidates if a.country == country]
        if kind is not None:
            candidates = [a for a in candidates if a.kind is kind]
        if not candidates:
            raise ValueError(f"no AS matches country={country!r} kind={kind!r}")
        asystem = candidates[int(rng.integers(len(candidates)))]
        addr = self._fresh_addr(asystem, rng)
        if addr is None:
            raise RuntimeError(f"AS {asystem.asn} address space exhausted")
        return addr

    def allocate_team_block(
        self,
        rng: np.random.Generator,
        country: str | None = None,
    ) -> Prefix:
        """A /24 for a coordinated team of originators (§ VI-B, Fig 14)."""
        addr = self.allocate_originator(rng, country=country)
        return Prefix(slash24(addr) << 8, 24)

    def allocate_in_block(self, rng: np.random.Generator, block: Prefix) -> int:
        """A fresh address inside a previously allocated team /24."""
        cursor = self._originator_cursor.get(block.network, 0)
        while cursor < block.size:
            addr = block.nth(cursor)
            cursor += 1
            if addr not in self._used_addrs:
                self._used_addrs.add(addr)
                self._originator_cursor[block.network] = cursor
                return addr
        raise RuntimeError(f"team block {block} exhausted")

    def _allocate_unrouted(self, rng: np.random.Generator, country: str | None) -> int:
        blocks = (
            self.geo.blocks_of(country)
            if country is not None
            else sorted(self.geo.blocks)
        )
        for _ in range(256):
            octet = blocks[int(rng.integers(len(blocks)))]
            addr = (octet << 24) | int(rng.integers(1 << 24))
            if addr not in self._used_addrs and self.asns.asn_of(addr) is None:
                self._used_addrs.add(addr)
                return addr
        raise RuntimeError("could not find unrouted space")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.queriers)

    def summary(self) -> dict[str, int]:
        """Population counts, for documentation and sanity checks."""
        return {
            "countries": len(self.geo.countries),
            "slash8_blocks": self.geo.allocated,
            "ases": len(self.asns),
            "queriers": len(self.queriers),
        }
