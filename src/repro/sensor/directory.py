"""Querier metadata directory: reverse name, ASN, and country lookups.

The sensor classifies originators from *querier* metadata (§ III-C): the
querier's reverse domain name (static features), its AS (via whois in the
paper), and its country (via MaxMind GeoLiteCity).  One snapshot of that
metadata is a :class:`FrozenDirectory`, built once from
:class:`QuerierInfo` rows wherever they come from — a directory file
(:func:`repro.datasets.read_directory`), a synthetic world
(:func:`world_directory`), or rows written in code — and every
querier's name is classified when it is built.  A window reads it through
an :class:`EnrichmentCache`, one searchsorted per address array.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.netmodel.world import NameStatus, World
from repro.sensor.keywords import STATIC_CATEGORIES, classify_querier

__all__ = [
    "QuerierInfo",
    "QuerierDirectory",
    "FrozenDirectory",
    "EnrichmentCache",
    "world_directory",
]


@dataclass(frozen=True, slots=True)
class QuerierInfo:
    """Everything the feature extractor needs to know about one querier."""

    addr: int
    name: str | None
    status: NameStatus
    asn: int | None
    country: str | None


_CATEGORY_INDEX = {category: i for i, category in enumerate(STATIC_CATEGORIES)}

#: Address of the row past the last: sorts after every IPv4 address.
_PAST_LAST = np.iinfo(np.int64).max


class FrozenDirectory:
    """A directory that never changes, enriched once when it is built.

    The rows are held as columns sorted by address — static category,
    ASN, country code — and each querier's category is classified once,
    here, so a window close reads any querier with one searchsorted and
    three gathers (:meth:`codes`).  An unlisted address
    answers NXDOMAIN with no AS or country: the right default for
    addresses the collection never enriched.

    When an address repeats in *infos*, its last row wins.  Callers
    validate the values.
    """

    def __init__(self, infos: Iterable[QuerierInfo]) -> None:
        by_addr = {info.addr: info for info in infos}
        self._rows = [by_addr[addr] for addr in sorted(by_addr)]
        country_codes: dict[str, int] = {}
        columns = (
            [info.addr for info in self._rows] + [_PAST_LAST],
            [_CATEGORY_INDEX[classify_querier(info.name, info.status)] for info in self._rows]
            + [_CATEGORY_INDEX["nxdomain"]],
            [-1 if info.asn is None else info.asn for info in self._rows] + [-1],
            [
                -1 if info.country is None
                else country_codes.setdefault(info.country, len(country_codes))
                for info in self._rows
            ] + [-1],
        )
        self._countries = tuple(country_codes)
        self._columns = tuple(np.array(column, dtype=np.int64) for column in columns)
        for column in self._columns:
            column.flags.writeable = False

    @property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(addresses, category indices, ASNs, country codes)``.

        Sorted by address, with one more row past the last: the NXDOMAIN
        row an unlisted address reads, at an address above any IPv4 one.
        ``-1`` encodes an unknown ASN or country, and country code ``c``
        names ``countries[c]``.
        """
        return self._columns

    @property
    def countries(self) -> tuple[str, ...]:
        """Country names in code order."""
        return self._countries

    def __len__(self) -> int:
        return len(self._rows)

    def lookup(self, addr: int) -> QuerierInfo:
        """The row for *addr*; an unlisted address answers NXDOMAIN."""
        pos = int(np.searchsorted(self._columns[0], addr))
        if pos < len(self._rows) and self._rows[pos].addr == addr:
            return self._rows[pos]
        return QuerierInfo(addr, None, NameStatus.NXDOMAIN, None, None)

    def codes(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(category indices, ASNs, country codes)`` aligned with *addrs*.

        ``-1`` encodes an unknown ASN or country.  Nothing is counted: a
        window's featurize reads through an :class:`EnrichmentCache`.
        """
        _, categories, asns, ccs = self._columns
        rows = self.rows(addrs)
        return categories[rows], asns[rows], ccs[rows]

    def rows(self, addrs: np.ndarray) -> np.ndarray:
        """Each address's row in :attr:`columns`: one searchsorted, and an
        unlisted address reads the NXDOMAIN row past the last, ``len(self)``."""
        listed = self._columns[0]
        rows = np.searchsorted(listed, addrs)
        rows[listed[rows] != addrs] = len(self._rows)
        return rows


def world_directory(world: World) -> FrozenDirectory:
    """Every querier of a synthetic *world* (exact whois + GeoIP)."""
    return FrozenDirectory(
        QuerierInfo(q.addr, q.name, q.name_status, q.asn, q.country)
        for q in world.queriers
    )


class EnrichmentCache:
    """A window's counting view over a :class:`FrozenDirectory`.

    :meth:`codes` is the directory's, counting the addresses it listed
    (``hits``) and those that read the NXDOMAIN row (``misses``).  The
    engine's featurize stage reads its analyzable (row, querier) pairs
    through one view per window and publishes the counts.  The cache has
    the directory's :meth:`lookup`, so it can be passed anywhere a
    directory is expected.
    """

    def __init__(self, directory: QuerierDirectory) -> None:
        #: The frozen directory read (a cache's own, when given a cache).
        self.directory = directory.directory if isinstance(directory, EnrichmentCache) else directory
        self.hits = 0
        self.misses = 0

    @classmethod
    def ensure(cls, directory: QuerierDirectory) -> "EnrichmentCache":
        """*directory* itself if it is already a cache, else a fresh wrap."""
        return directory if isinstance(directory, cls) else cls(directory)

    def lookup(self, addr: int) -> QuerierInfo:
        return self.directory.lookup(addr)

    def codes(self, addrs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The directory's :meth:`~FrozenDirectory.codes`, counted."""
        rows = self.directory.rows(addrs)
        misses = int(np.count_nonzero(rows == len(self.directory)))
        self.hits += len(rows) - misses
        self.misses += misses
        _, categories, asns, ccs = self.directory.columns
        return categories[rows], asns[rows], ccs[rows]


#: What the featurize paths accept: a directory, or a window's cache over one.
QuerierDirectory = FrozenDirectory | EnrichmentCache
