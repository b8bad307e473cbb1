"""TTL caches as used by recursive resolvers.

Caching is the central obstacle the paper works around: it attenuates the
backscatter signal at every level of the hierarchy (§ II, § IV-D), and it
is why querier counts only *approximate* activity size.  We model it
faithfully: per-entry expiry, optional minimum-TTL clamping ("some
resolvers force a short minimum caching period", § IV-D), zero-TTL entries
never cached, and hit/miss accounting for the validation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

__all__ = ["CacheStats", "TtlCache"]


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/insert counters; ``hits + misses == lookups`` always."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


@dataclass(slots=True)
class TtlCache(Generic[K, V]):
    """A simulation-clock TTL cache.

    Time is an explicit float argument (simulation seconds), never wall
    clock.  Entries expire strictly: an entry stored at t with TTL T is
    served for lookups at times < t + T and is a miss at t + T exactly.

    ``min_ttl`` models resolvers that refuse to honor very small TTLs;
    a genuine TTL of 0 is still never cached (the controlled experiment in
    § IV-D relies on TTL=0 defeating caching at the final authority), but
    TTLs in (0, min_ttl) are raised to ``min_ttl``.
    """

    min_ttl: float = 0.0
    max_entries: int | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[K, tuple[V, float]] = field(default_factory=dict)

    def get(self, key: K, now: float) -> V | None:
        """The cached value, or ``None`` on miss/expiry (expired entries evicted)."""
        entry = self._entries.get(key)
        if entry is not None:
            value, expiry = entry
            if now < expiry:
                self.stats.hits += 1
                return value
            del self._entries[key]
        self.stats.misses += 1
        return None

    def peek(self, key: K, now: float) -> V | None:
        """Like :meth:`get` but without touching statistics or evicting."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, expiry = entry
        return value if now < expiry else None

    def put(self, key: K, value: V, ttl: float, now: float) -> bool:
        """Store *value* for *ttl* seconds; returns False when not cacheable."""
        if ttl <= 0:
            return False
        ttl = max(ttl, self.min_ttl)
        if self.max_entries is not None and len(self._entries) >= self.max_entries:
            if key not in self._entries:
                self._evict_one(now)
        self._entries[key] = (value, now + ttl)
        self.stats.inserts += 1
        return True

    def _evict_one(self, now: float) -> None:
        """Drop an expired entry if any, else the earliest-expiring one."""
        victim: K | None = None
        soonest = float("inf")
        for key, (_, expiry) in self._entries.items():
            if expiry <= now:
                victim = key
                break
            if expiry < soonest:
                soonest = expiry
                victim = key
        if victim is not None:
            del self._entries[victim]

    def flush(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    def purge_expired(self, now: float) -> int:
        """Remove expired entries; returns how many were dropped."""
        dead = [k for k, (_, expiry) in self._entries.items() if expiry <= now]
        for key in dead:
            del self._entries[key]
        return len(dead)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries
