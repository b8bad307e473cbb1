"""Querier metadata directory: reverse name, ASN, and country lookups.

The sensor classifies originators from *querier* metadata (§ III-C): the
querier's reverse domain name (static features), its AS (via whois in the
paper), and its country (via MaxMind GeoLiteCity).  This module isolates
those lookups behind a small protocol so the pipeline is independent of
where the metadata comes from — in this reproduction a
:class:`WorldDirectory` answers from the synthetic world; in a deployment
it would be a resolver plus whois/GeoIP clients.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.netmodel.world import NameStatus, World
from repro.sensor.keywords import STATIC_CATEGORIES, classify_name, classify_querier
from repro.telemetry import count as _tcount

__all__ = [
    "QuerierInfo",
    "QuerierDirectory",
    "WorldDirectory",
    "StaticDirectory",
    "FrozenDirectory",
    "ResolvedQuerier",
    "EnrichmentCache",
]


@dataclass(frozen=True, slots=True)
class QuerierInfo:
    """Everything the feature extractor needs to know about one querier."""

    addr: int
    name: str | None
    status: NameStatus
    asn: int | None
    country: str | None


class QuerierDirectory(Protocol):
    """Metadata provider; must be cheap to call per unique querier."""

    def lookup(self, addr: int) -> QuerierInfo: ...


class WorldDirectory:
    """Directory backed by the synthetic world (exact whois + GeoIP)."""

    def __init__(self, world: World) -> None:
        self._world = world
        self._by_addr = {q.addr: q for q in world.queriers}

    def lookup(self, addr: int) -> QuerierInfo:
        querier = self._by_addr.get(addr)
        if querier is not None:
            return QuerierInfo(
                addr=addr,
                name=querier.name,
                status=querier.name_status,
                asn=querier.asn,
                country=querier.country,
            )
        # An address we never populated: treat like unassigned space.
        return QuerierInfo(
            addr=addr,
            name=None,
            status=NameStatus.NXDOMAIN,
            asn=self._world.asn_of(addr),
            country=self._world.country_of(addr),
        )


_CATEGORY_INDEX = {category: i for i, category in enumerate(STATIC_CATEGORIES)}


@dataclass(frozen=True, slots=True)
class ResolvedQuerier:
    """One querier fully enriched for featurization.

    The static keyword category (precomputed once, with its feature-vector
    index) plus the AS and country.  This is the scalar view used by the
    per-observation reference paths; batch featurization reads the same
    data as arrays via :meth:`EnrichmentCache.codes`.
    """

    addr: int
    category: str
    category_index: int
    asn: int | None
    country: str | None


class EnrichmentCache:
    """Window-scoped querier → (category, ASN, country) cache.

    Featurization needs every querier resolved — name classified into a
    static category, AS and country read — and the same querier typically
    appears under many originators of one observation window.  The cache
    wraps any :class:`QuerierDirectory` and looks each address up exactly
    once, so the window context, the static features, and the dynamic
    features share one round of directory lookups.  The keyword category
    depends on the reverse name alone, so its match is memoized further
    out, per name for the life of the process
    (:func:`~repro.sensor.keywords.classify_name`).

    Internally the cache is a column store: a sorted address array with
    aligned category/ASN/country-code columns, so the batch paths read
    enrichment data with one :func:`np.searchsorted` (:meth:`codes`)
    instead of a Python dict get per querier.  The scalar
    :meth:`resolve` view sits on top and is memoized separately.

    Scope one instance to one observation window: the cache never
    invalidates, so mutations of the underlying directory (a querier's
    name, AS or country) are only picked up by the *next* window's
    cache, matching the paper's snapshot-per-interval semantics.  A
    :class:`FrozenDirectory` cannot change, so a cache over one starts
    from the columns it was enriched into when built and goes to the
    directory only for addresses it does not list.  The cache
    implements the :class:`QuerierDirectory` protocol, so it can be
    passed anywhere a directory is expected.
    """

    #: Telemetry counter names (emitted when a registry is in scope).
    _HITS = "repro_enrichment_cache_hits_total"
    _MISSES = "repro_enrichment_cache_misses_total"
    _BUILT = "repro_enrichment_cache_built_total"

    def __init__(self, directory: QuerierDirectory) -> None:
        self._directory = directory
        # Lookup accounting (always-on plain ints; mirrored to the
        # ambient metrics registry when one is in scope).
        self.hits = 0
        self.misses = 0
        self.built = 0
        # Consolidated column store, sorted by address, and country-code
        # interning (code → name is ``_countries[code]``).  Merges replace
        # the arrays, never write them, so a frozen directory's are shared.
        if isinstance(directory, FrozenDirectory):
            self._addrs, self._categories, self._asns, self._ccs = directory.columns
            self._countries = list(directory.countries)
        else:
            empty = np.empty(0, dtype=np.int64)
            self._addrs, self._categories, self._asns, self._ccs = (empty,) * 4
            self._countries = []
        self._country_codes = {c: code for code, c in enumerate(self._countries)}
        # Scalar-resolved entries awaiting consolidation, and the memo of
        # constructed ResolvedQuerier objects (batch enrichment skips both).
        self._pending: dict[int, tuple[int, int, int]] = {}
        self._memo: dict[int, ResolvedQuerier] = {}

    @classmethod
    def ensure(cls, directory: QuerierDirectory) -> "EnrichmentCache":
        """*directory* itself if it is already a cache, else a fresh wrap."""
        return directory if isinstance(directory, cls) else cls(directory)

    @property
    def directory(self) -> QuerierDirectory:
        """The wrapped (uncached) directory."""
        return self._directory

    def __len__(self) -> int:
        return len(self._addrs) + len(self._pending)

    def __contains__(self, addr: int) -> bool:
        return addr in self._pending or self._find(addr) >= 0

    def lookup(self, addr: int) -> QuerierInfo:
        return self._directory.lookup(addr)

    def _find(self, addr: int) -> int:
        """Position of *addr* in the consolidated columns, or -1."""
        pos = int(np.searchsorted(self._addrs, addr))
        if pos < len(self._addrs) and int(self._addrs[pos]) == addr:
            return pos
        return -1

    def _row(
        self, category: str, asn: int | None, country: str | None
    ) -> tuple[int, int, int]:
        """One querier as column values: category index, ASN, country code.

        ``-1`` encodes an unknown ASN or country; countries are interned.
        """
        if country is None:
            code = -1
        else:
            code = self._country_codes.get(country)
            if code is None:
                code = len(self._countries)
                self._country_codes[country] = code
                self._countries.append(country)
        return _CATEGORY_INDEX[category], -1 if asn is None else asn, code

    def _consolidate(self) -> None:
        """Merge scalar-resolved pending entries into the column store."""
        if not self._pending:
            return
        new_addrs = np.fromiter(self._pending.keys(), np.int64, len(self._pending))
        self._merge(new_addrs, list(self._pending.values()))
        self._pending.clear()

    def _enrich(self, addrs: np.ndarray) -> None:
        """Look up *addrs* (distinct, none cached) and merge them in."""
        self.built += len(addrs)
        _tcount(self._BUILT, len(addrs), help="Enrichment cache entries built.")
        infos = [self._directory.lookup(addr) for addr in addrs.tolist()]
        self._merge(
            addrs,
            [
                self._row(classify_querier(i.name, i.status), i.asn, i.country)
                for i in infos
            ],
        )

    def _merge(self, addrs: np.ndarray, rows: list[tuple[int, int, int]]) -> None:
        """Merge new (disjoint) addresses and their rows into the column store."""
        table = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        merged = np.concatenate([self._addrs, addrs])
        order = np.argsort(merged, kind="stable")
        self._addrs = merged[order]
        self._categories = np.concatenate([self._categories, table[:, 0]])[order]
        self._asns = np.concatenate([self._asns, table[:, 1]])[order]
        self._ccs = np.concatenate([self._ccs, table[:, 2]])[order]

    def resolve(self, addr: int) -> ResolvedQuerier:
        """The enriched view of one querier (memoized)."""
        hit = self._memo.get(addr)
        if hit is not None:
            self.hits += 1
            _tcount(self._HITS, 1, help="Enrichment cache lookups served warm.")
            return hit
        row = self._pending.get(addr)
        if row is None:
            pos = self._find(addr)
            if pos >= 0:
                row = (
                    int(self._categories[pos]),
                    int(self._asns[pos]),
                    int(self._ccs[pos]),
                )
        if row is None:
            self.misses += 1
            _tcount(self._MISSES, 1,
                    help="Enrichment cache lookups that went to the directory.")
            info = self._directory.lookup(addr)
            return self.prime(
                addr, classify_querier(info.name, info.status), info.asn, info.country
            )
        self.hits += 1
        _tcount(self._HITS, 1, help="Enrichment cache lookups served warm.")
        category_index, asn, cc = row
        hit = ResolvedQuerier(
            addr=addr,
            category=STATIC_CATEGORIES[category_index],
            category_index=category_index,
            asn=None if asn < 0 else asn,
            country=None if cc < 0 else self._countries[cc],
        )
        self._memo[addr] = hit
        return hit

    def prime(
        self, addr: int, category: str, asn: int | None, country: str | None
    ) -> ResolvedQuerier:
        """Install one externally resolved querier.

        An already-cached address is left untouched (the cached values
        win — the cache is a per-window snapshot).
        """
        if addr in self:
            return self.resolve(addr)
        self.built += 1
        _tcount(self._BUILT, 1, help="Enrichment cache entries built.")
        row = self._row(category, asn, country)
        self._pending[addr] = row
        hit = ResolvedQuerier(
            addr=addr,
            category=category,
            category_index=row[0],
            asn=asn,
            country=country,
        )
        self._memo[addr] = hit
        return hit

    def country_names(self, codes: np.ndarray | Sequence[int]) -> list[str]:
        """Country names for interned codes (callers filter ``>= 0``).

        Codes are cache-internal (each cache interns independently), so
        cross-cache aggregation — e.g. the federation driver unioning
        per-shard distinct-country sets — must go through the names.
        """
        return [self._countries[int(code)] for code in codes]

    def missing(self, addrs: np.ndarray) -> np.ndarray:
        """Sorted distinct addresses from *addrs* not yet cached."""
        self._consolidate()
        distinct = np.unique(addrs.astype(np.int64))
        if len(self._addrs) == 0:
            return distinct
        pos = np.searchsorted(self._addrs, distinct)
        found = (pos < len(self._addrs)) & (
            self._addrs[np.minimum(pos, len(self._addrs) - 1)] == distinct
        )
        return distinct[~found]

    def codes(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized enrichment for an address array.

        Returns ``(category indices, ASNs, country codes)`` aligned with
        *addrs* (``-1`` encodes unknown; country codes are interned per
        cache).  Unresolved addresses are resolved through the directory
        first; on a warm cache this is pure array math — one
        searchsorted plus three gathers.
        """
        addrs = addrs.astype(np.int64, copy=False)
        unresolved = self.missing(addrs)
        self.misses += len(unresolved)
        self.hits += len(addrs) - len(unresolved)
        _tcount(self._MISSES, len(unresolved),
                help="Enrichment cache lookups that went to the directory.")
        _tcount(self._HITS, len(addrs) - len(unresolved),
                help="Enrichment cache lookups served warm.")
        if len(unresolved):
            self._enrich(unresolved)
        if len(addrs) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        pos = np.searchsorted(self._addrs, addrs)
        return self._categories[pos], self._asns[pos], self._ccs[pos]


def _unlisted(addr: int) -> QuerierInfo:
    """What an in-memory directory answers for an address it does not list."""
    return QuerierInfo(
        addr=addr, name=None, status=NameStatus.NXDOMAIN, asn=None, country=None
    )


class StaticDirectory:
    """In-memory directory for tests and datasets built in code."""

    def __init__(self, infos: dict[int, QuerierInfo] | None = None) -> None:
        self._infos = dict(infos or {})

    def add(self, info: QuerierInfo) -> None:
        self._infos[info.addr] = info

    def lookup(self, addr: int) -> QuerierInfo:
        info = self._infos.get(addr)
        return _unlisted(addr) if info is None else info


_STATUSES = tuple(NameStatus)
_STATUS_CODE = {status: code for code, status in enumerate(_STATUSES)}


class FrozenDirectory:
    """A directory that never changes, enriched once when it is built.

    What :func:`repro.datasets.read_directory` returns.  The rows are
    held as columns sorted by address — name, status, ASN, country — and
    each querier's static category is classified once, here.  Because
    nothing can change the rows, this snapshot serves every window: an
    :class:`EnrichmentCache` over it starts from :attr:`columns`, so a
    window close reads any listed querier with one searchsorted and
    three gathers.  An unlisted address answers NXDOMAIN, as in
    :class:`StaticDirectory`.

    The arguments are aligned columns, one entry per row; when an
    address repeats, its last row wins.  Callers validate the values.
    """

    def __init__(
        self,
        addrs: Sequence[int],
        names: Sequence[str | None],
        statuses: Sequence[NameStatus],
        asns: Sequence[int | None],
        countries: Sequence[str | None],
    ) -> None:
        every = np.asarray(addrs, dtype=np.int64)
        # np.unique keeps the first of equal addresses, so run it over the
        # rows reversed: the survivor is each address's last row.
        addr_column, last = np.unique(every[::-1], return_index=True)
        keep = (len(every) - 1 - last).tolist()
        self._names = [names[i] for i in keep]
        statuses = [statuses[i] for i in keep]
        country_codes: dict[str, int] = {}
        ccs = [
            -1 if countries[i] is None
            else country_codes.setdefault(countries[i], len(country_codes))
            for i in keep
        ]
        self._countries = tuple(country_codes)
        self._statuses = np.array([_STATUS_CODE[s] for s in statuses], dtype=np.int8)
        rule = classify_name.__wrapped__  # each name once: no memo needed
        categories = [
            _CATEGORY_INDEX[classify_querier(name, status, rule)]
            for name, status in zip(self._names, statuses)
        ]
        asns = [-1 if asns[i] is None else asns[i] for i in keep]
        self._columns = (addr_column,) + tuple(
            np.array(column, dtype=np.int64) for column in (categories, asns, ccs)
        )
        for column in self._columns:
            column.flags.writeable = False

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(addresses, category indices, ASNs, country codes)``.

        Sorted by address; ``-1`` encodes an unknown ASN or country, and
        country code ``c`` names ``countries[c]``.
        """
        return self._columns

    @property
    def countries(self) -> tuple[str, ...]:
        """Country names in code order."""
        return self._countries

    def __len__(self) -> int:
        return len(self._names)

    def lookup(self, addr: int) -> QuerierInfo:
        addrs, _, asns, ccs = self._columns
        pos = int(np.searchsorted(addrs, addr))
        if pos == len(addrs) or int(addrs[pos]) != addr:
            return _unlisted(addr)
        asn, cc = int(asns[pos]), int(ccs[pos])
        return QuerierInfo(
            addr=int(addrs[pos]),
            name=self._names[pos],
            status=_STATUSES[self._statuses[pos]],
            asn=None if asn < 0 else asn,
            country=None if cc < 0 else self._countries[cc],
        )
