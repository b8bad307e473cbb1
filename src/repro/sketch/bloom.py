"""Window-scoped Bloom filter for constant-memory event dedup.

The exact sensing path dedups repeated ``(originator, querier)`` pairs
inside the 30 s resolver-cache horizon with a dict of last-kept
timestamps — O(active pairs) memory.  The sketch pre-stage replaces
that dict with this filter keyed on ``(originator, querier, qtype,
30 s bucket)``: membership says "already counted in this bucket", so a
hit suppresses the duplicate and a false positive drops one genuinely
new pair with probability ``fp_rate`` (sized for ``capacity``
insertions).  That error is one-sided in the safe direction for the
analyzability gate — it can only *under*-count a querier, and the
gate's margin absorbs it.

Probes use Kirsch–Mitzenstein double hashing (``h1 + i·h2``), bits
packed in a uint64 word array.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sketch.hashing import MASK64, derive_seed, mix64, mix64_array

__all__ = ["BloomFilter"]


def _optimal_bits(capacity: int, fp_rate: float) -> int:
    bits = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
    return max(64, bits)


def _optimal_hashes(bits: int, capacity: int) -> int:
    return max(1, round(bits / capacity * math.log(2)))


class BloomFilter:
    """Approximate membership over 64-bit keys; no false negatives."""

    __slots__ = ("capacity", "fp_rate", "seed", "bits", "hashes", "_seed1", "_seed2", "_words")

    #: Keys per vectorized sub-chunk: each batch step holds a handful of
    #: ``hashes x chunk`` uint64/intp temporaries (probe positions, word
    #: indexes, masks, gathered words), so this bounds batch peak memory
    #: to ~1-2 MiB regardless of batch size.
    _BATCH_KEYS = 4_096

    def __init__(self, capacity: int = 1 << 20, fp_rate: float = 0.01, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < fp_rate < 1.0:
            raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
        self.capacity = int(capacity)
        self.fp_rate = float(fp_rate)
        self.seed = int(seed)
        self.bits = _optimal_bits(self.capacity, self.fp_rate)
        self.hashes = _optimal_hashes(self.bits, self.capacity)
        self._seed1 = derive_seed(seed, 0x626C6D_01)
        self._seed2 = derive_seed(seed, 0x626C6D_02)
        self._words = np.zeros((self.bits + 63) // 64, dtype=np.uint64)

    def _probes(self, key: int):
        h1 = mix64(key, self._seed1)
        h2 = mix64(key, self._seed2) | 1  # odd → full-period stride
        bits = self.bits
        for i in range(self.hashes):
            # Mask to 64 bits so the stride wraps exactly like the
            # vectorized uint64 path.
            yield ((h1 + i * h2) & MASK64) % bits

    def add(self, key: int) -> bool:
        """Insert *key*; True when it was (probably) not present before."""
        words = self._words
        novel = False
        for pos in self._probes(key):
            word, bit = pos >> 6, np.uint64(1 << (pos & 63))
            if not words[word] & bit:
                words[word] |= bit
                novel = True
        return novel

    def __contains__(self, key: int) -> bool:
        words = self._words
        for pos in self._probes(key):
            if not words[pos >> 6] & np.uint64(1 << (pos & 63)):
                return False
        return True

    def _probe_matrix(self, keys: np.ndarray) -> np.ndarray:
        """(hashes, n) bit positions; dtype uint64."""
        h1 = mix64_array(keys, self._seed1)
        h2 = mix64_array(keys, self._seed2) | np.uint64(1)
        bits = np.uint64(self.bits)
        strides = np.arange(self.hashes, dtype=np.uint64)[:, np.newaxis]
        return (h1[np.newaxis, :] + strides * h2[np.newaxis, :]) % bits

    def add_batch(self, keys: np.ndarray) -> np.ndarray:
        """Insert an array of keys; boolean novel-mask aligned with *keys*.

        Processed in sub-chunks of :attr:`_BATCH_KEYS` to bound the
        probe-matrix temporaries.  Within a sub-chunk membership is read
        before any bits are set, so **distinct** keys always get a
        correct verdict; duplicate keys within one batch may report
        either occurrence's verdict depending on the chunk boundary —
        callers that need per-occurrence dedup (the pre-stage does) must
        unique the batch first.
        """
        keys = np.asarray(keys)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        novel = np.zeros(keys.shape[0], dtype=bool)
        for start in range(0, keys.shape[0], self._BATCH_KEYS):
            stop = min(start + self._BATCH_KEYS, keys.shape[0])
            positions = self._probe_matrix(keys[start:stop])
            words = (positions >> np.uint64(6)).astype(np.intp)
            masks = np.uint64(1) << (positions & np.uint64(63))
            present = (self._words[words] & masks) != 0
            novel[start:stop] = ~present.all(axis=0)
            np.bitwise_or.at(self._words, words.reshape(-1), masks.reshape(-1))
        return novel

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask aligned with *keys* (no insertion)."""
        keys = np.asarray(keys)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        contained = np.zeros(keys.shape[0], dtype=bool)
        for start in range(0, keys.shape[0], self._BATCH_KEYS):
            stop = min(start + self._BATCH_KEYS, keys.shape[0])
            positions = self._probe_matrix(keys[start:stop])
            words = (positions >> np.uint64(6)).astype(np.intp)
            masks = np.uint64(1) << (positions & np.uint64(63))
            contained[start:stop] = ((self._words[words] & masks) != 0).all(axis=0)
        return contained

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set — sanity signal for capacity sizing."""
        set_bits = int(np.bitwise_count(self._words).sum())
        return set_bits / self.bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            (self.capacity, self.fp_rate, self.seed)
            == (other.capacity, other.fp_rate, other.seed)
            and bool(np.array_equal(self._words, other._words))
        )

    __hash__ = None  # mutable

    @property
    def memory_bytes(self) -> int:
        return int(self._words.nbytes)

    def __repr__(self) -> str:
        return (
            f"BloomFilter(capacity={self.capacity}, fp_rate={self.fp_rate}, "
            f"seed={self.seed}, fill={self.fill_ratio:.3f})"
        )
