"""Autonomous-system registry.

The sensor's dynamic features include *unique ASes* and *queriers per AS*
(§ III-C), resolved in the paper via whois.  Our substitute: each synthetic
AS owns a set of /16 prefixes carved out of its country's /8 blocks, and
``ASRegistry.asn_of`` is the whois lookup.  AS kinds drive which querier
roles live inside them (an ISP has home users and shared resolvers; a
hosting AS has servers and firewalls; a cloud AS hosts CDN/cloud nodes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.netmodel.addressing import Prefix, slash16
from repro.netmodel.geography import GeoRegistry

__all__ = ["ASKind", "AutonomousSystem", "ASRegistry", "build_as_registry"]


class ASKind(enum.Enum):
    """Coarse business type of an AS; controls its querier population."""

    ISP = "isp"
    HOSTING = "hosting"
    ENTERPRISE = "enterprise"
    UNIVERSITY = "university"
    CLOUD = "cloud"
    MOBILE = "mobile"


# Relative frequency of each kind among a country's ASes.
_KIND_WEIGHTS: dict[ASKind, float] = {
    ASKind.ISP: 0.40,
    ASKind.HOSTING: 0.18,
    ASKind.ENTERPRISE: 0.18,
    ASKind.UNIVERSITY: 0.08,
    ASKind.CLOUD: 0.06,
    ASKind.MOBILE: 0.10,
}

# How many /16s an AS of each kind typically owns (mean of a geometric).
_KIND_PREFIX_MEAN: dict[ASKind, float] = {
    ASKind.ISP: 4.0,
    ASKind.HOSTING: 2.0,
    ASKind.ENTERPRISE: 1.2,
    ASKind.UNIVERSITY: 1.5,
    ASKind.CLOUD: 3.0,
    ASKind.MOBILE: 3.0,
}


@dataclass(slots=True)
class AutonomousSystem:
    """One AS: a number, a home country, a kind, and its /16 prefixes."""

    asn: int
    country: str
    kind: ASKind
    name: str
    prefixes: list[Prefix] = field(default_factory=list)

    def contains(self, addr: int) -> bool:
        return any(addr in p for p in self.prefixes)


@dataclass(slots=True)
class ASRegistry:
    """All ASes plus a /16 -> ASN routing table (the whois substitute)."""

    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    _by_slash16: dict[int, int] = field(default_factory=dict)

    def add(self, asystem: AutonomousSystem) -> None:
        if asystem.asn in self.ases:
            raise ValueError(f"duplicate ASN {asystem.asn}")
        self.ases[asystem.asn] = asystem
        for prefix in asystem.prefixes:
            if prefix.length != 16:
                raise ValueError("AS prefixes must be /16s")
            key = slash16(prefix.network)
            if key in self._by_slash16:
                raise ValueError(f"prefix {prefix} already assigned")
            self._by_slash16[key] = asystem.asn

    def asn_of(self, addr: int) -> int | None:
        """Whois lookup: ASN owning *addr*, or ``None`` for unrouted space."""
        return self._by_slash16.get(slash16(addr))

    def as_of(self, addr: int) -> AutonomousSystem | None:
        asn = self.asn_of(addr)
        return self.ases.get(asn) if asn is not None else None

    def in_country(self, code: str) -> list[AutonomousSystem]:
        return [a for a in self.ases.values() if a.country == code]

    def __len__(self) -> int:
        return len(self.ases)

    def __iter__(self):
        return iter(self.ases.values())


# Deliberately avoids the sensor's home/mail keyword stems ("net",
# "fiber", "hosting", …) so a querier's *category* comes from its host
# component, not its ISP's brand name; one overlapping stem ("telecom"
# contains no keyword but "connect" and "link" are clean too) would
# otherwise swamp the `other` category.
_AS_NAME_STEMS = (
    "telecom", "online", "linx", "connect", "wave", "digital", "datarium",
    "quantum", "bluesky", "clearpath", "systems", "globalix", "metro", "zenith",
)


def build_as_registry(
    geo: GeoRegistry,
    rng: np.random.Generator,
    ases_per_block: float = 3.0,
) -> ASRegistry:
    """Carve each country's /8 space into ASes owning /16 prefixes.

    Within a country we allocate ASes kind-by-kind with geometric prefix
    counts until roughly ``ases_per_block`` ASes exist per /8 the country
    owns.  /16s are assigned sequentially inside the country's blocks, so
    an AS is geographically contiguous (as real allocations broadly are).
    """
    registry = ASRegistry()
    kinds = list(_KIND_WEIGHTS)
    kind_probs = np.array([_KIND_WEIGHTS[k] for k in kinds])
    kind_probs = kind_probs / kind_probs.sum()
    next_asn = 100
    for code in sorted(geo.countries):
        blocks = geo.blocks_of(code)
        if not blocks:
            continue
        # Pool of /16 network keys available inside this country.
        pool = [(octet << 8) | mid for octet in blocks for mid in range(256)]
        target_ases = max(2, int(round(ases_per_block * len(blocks))))
        cursor = 0
        for _ in range(target_ases):
            if cursor >= len(pool):
                break
            kind = kinds[int(rng.choice(len(kinds), p=kind_probs))]
            want = 1 + int(rng.geometric(1.0 / _KIND_PREFIX_MEAN[kind]))
            take = min(want, len(pool) - cursor)
            prefixes = [Prefix(pool[cursor + i] << 16, 16) for i in range(take)]
            cursor += take
            stem = _AS_NAME_STEMS[int(rng.integers(len(_AS_NAME_STEMS)))]
            asystem = AutonomousSystem(
                asn=next_asn,
                country=code,
                kind=kind,
                name=f"{stem}-{code}-{next_asn}",
                prefixes=prefixes,
            )
            registry.add(asystem)
            next_asn += 1
    return registry
