"""HyperLogLog cardinality estimation, single and pooled.

Two shapes share one register layout and one estimator:

* :class:`HyperLogLog` — a standalone counter (one set, ``m = 2^p``
  uint8 registers), what :meth:`HllBank.extract` returns and the
  tests' reference for a bank row;
* :class:`HllBank` — many counters packed in one 2-D register matrix
  keyed by an integer (the pre-stage keys it by originator).  Growing a
  bank doubles one array instead of allocating 100k tiny objects, and
  estimating all rows is a single vectorized sweep.

Both hash items through the same seeded :func:`~repro.sketch.hashing`
finalizer, so a bank row is register-identical to a standalone HLL fed
the same items — the property tests pin that equivalence.

Estimator: Flajolet et al. 2007 raw estimate with the standard
small-range linear-counting correction (switched below ``5/2·m`` when
empty registers remain).  Relative standard error is ``~1.04/sqrt(m)``;
at the pre-stage's default ``p=6`` (64 registers, 64 bytes/originator)
that is ~13%, plenty for a threshold gate at 10–20 uniques where the
estimator is in its near-exact linear-counting regime anyway.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.hashing import derive_seed, mix64, mix64_array

__all__ = ["HyperLogLog", "HllBank"]

_ITEM_SALT = 0x686C6C_00

#: Bias-correction constants for small register counts (Flajolet et al.).
_ALPHA_SMALL = {16: 0.673, 32: 0.697, 64: 0.709}


def _alpha(m: int) -> float:
    return _ALPHA_SMALL.get(m, 0.7213 / (1.0 + 1.079 / m))


def _check_precision(precision: int) -> int:
    if not 4 <= precision <= 16:
        raise ValueError(f"precision must be in [4, 16], got {precision}")
    return int(precision)


def _bit_length_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for uint64 (exact — no float log)."""
    length = np.zeros(values.shape, dtype=np.uint8)
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(shift))
        length[big] += np.uint8(shift)
        v[big] >>= np.uint64(shift)
    length[v > 0] += np.uint8(1)
    return length


def _point(item: int, seed: int, precision: int) -> tuple[int, int]:
    """(register index, rank) of one item — scalar twin of :func:`_points`."""
    h = mix64(item, seed)
    index = h >> (64 - precision)
    rest = h & ((1 << (64 - precision)) - 1)
    rank = (64 - precision) + 1 - rest.bit_length()
    return index, rank


def _points(items: np.ndarray, seed: int, precision: int) -> tuple[np.ndarray, np.ndarray]:
    """(register indexes, ranks) for an item array; bit-identical to :func:`_point`."""
    h = mix64_array(items, seed)
    index = (h >> np.uint64(64 - precision)).astype(np.intp)
    rest = h & np.uint64((1 << (64 - precision)) - 1)
    rank = (np.uint8(64 - precision + 1) - _bit_length_u64(rest)).astype(np.uint8)
    return index, rank


def _estimate_rows(registers: np.ndarray) -> np.ndarray:
    """Cardinality estimate per row of an ``(n, m)`` uint8 register matrix.

    Raw harmonic-mean estimate with linear counting below ``5/2·m`` when
    zero registers remain.  Vectorized over rows; callers chunk the rows
    to bound the float64 temporary (``m`` doubles per row).
    """
    registers = np.atleast_2d(registers)
    m = registers.shape[1]
    power = np.ldexp(1.0, -registers.astype(np.int64))  # 2^-reg, exact
    raw = _alpha(m) * m * m / power.sum(axis=1)
    zeros = (registers == 0).sum(axis=1)
    small = (raw <= 2.5 * m) & (zeros > 0)
    if np.any(small):
        with np.errstate(divide="ignore"):
            linear = m * np.log(m / zeros.astype(np.float64))
        raw = np.where(small, linear, raw)
    return raw


class HyperLogLog:
    """Approximate distinct-count of an integer stream in ``2^p`` bytes."""

    __slots__ = ("precision", "seed", "_registers")

    def __init__(self, precision: int = 6, seed: int = 0) -> None:
        self.precision = _check_precision(precision)
        self.seed = int(seed)
        self._registers = np.zeros(1 << self.precision, dtype=np.uint8)

    @property
    def m(self) -> int:
        """Number of registers (``2^precision``)."""
        return 1 << self.precision

    @property
    def registers(self) -> np.ndarray:
        """Read-only view of the register array."""
        view = self._registers.view()
        view.flags.writeable = False
        return view

    def _item_seed(self) -> int:
        return derive_seed(self.seed, _ITEM_SALT)

    def add(self, item: int) -> bool:
        """Observe *item*; True when a register changed (a 'new-ish' item)."""
        index, rank = _point(item, self._item_seed(), self.precision)
        if self._registers[index] < rank:
            self._registers[index] = rank
            return True
        return False

    def add_batch(self, items: np.ndarray) -> None:
        """Vectorized :meth:`add` (no change reporting)."""
        items = np.asarray(items)
        if items.size == 0:
            return
        index, rank = _points(items, self._item_seed(), self.precision)
        np.maximum.at(self._registers, index, rank)

    def cardinality(self) -> float:
        """Estimated number of distinct items observed."""
        return float(_estimate_rows(self._registers[np.newaxis, :])[0])

    def __len__(self) -> int:
        return int(round(self.cardinality()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperLogLog):
            return NotImplemented
        return (self.precision, self.seed) == (other.precision, other.seed) and bool(
            np.array_equal(self._registers, other._registers)
        )

    __hash__ = None  # mutable

    @property
    def memory_bytes(self) -> int:
        return int(self._registers.nbytes)

    def __repr__(self) -> str:
        return (
            f"HyperLogLog(precision={self.precision}, seed={self.seed}, "
            f"cardinality~{self.cardinality():.1f})"
        )


class HllBank:
    """Many keyed HLLs packed into one growable register matrix.

    ``bank.add(key, item)`` is semantically ``per_key_hll[key].add(item)``
    but the registers live in one ``(capacity, m)`` uint8 array (doubled
    on overflow) with a dict mapping key → row, so a 100k-originator
    window costs one allocation and ``m`` bytes per key.  Rows use the
    same item seed as :class:`HyperLogLog`, so :meth:`extract` returns a
    standalone HLL with identical registers.
    """

    __slots__ = ("precision", "seed", "_registers", "_slots")

    #: Rows per vectorized estimation chunk — bounds each temporary in
    #: :meth:`estimate_all` (one int64 cast + one float64 power array)
    #: to ~1 MiB at p=6.
    _CHUNK_ROWS = 2048

    def __init__(self, precision: int = 6, seed: int = 0) -> None:
        self.precision = _check_precision(precision)
        self.seed = int(seed)
        self._registers = np.zeros((64, 1 << self.precision), dtype=np.uint8)
        self._slots: dict[int, int] = {}

    def _slot(self, key: int) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = len(self._slots)
            if slot == self._registers.shape[0]:
                grown = np.zeros((slot * 2, self._registers.shape[1]), dtype=np.uint8)
                grown[:slot] = self._registers
                self._registers = grown
            self._slots[key] = slot
        return slot

    def _item_seed(self) -> int:
        return derive_seed(self.seed, _ITEM_SALT)

    def add(self, key: int, item: int) -> bool:
        """Observe *item* under *key*; True when a register changed."""
        slot = self._slot(key)
        index, rank = _point(item, self._item_seed(), self.precision)
        row = self._registers[slot]
        if row[index] < rank:
            row[index] = rank
            return True
        return False

    def add_batch(self, keys: np.ndarray, items: np.ndarray) -> None:
        """Vectorized :meth:`add` over aligned key/item arrays."""
        keys = np.asarray(keys)
        items = np.asarray(items)
        if keys.size == 0:
            return
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # Resolve each distinct key once (not once per event); new keys
        # get slots in first-occurrence order so bank order — and thus
        # survivor order — matches the scalar path.
        for key in uniq[np.argsort(first)]:
            self._slot(int(key))
        slot_of = self._slots
        slots = np.fromiter(
            (slot_of[int(key)] for key in uniq), dtype=np.intp, count=uniq.size
        )[inverse]
        index, rank = _points(items, self._item_seed(), self.precision)
        flat = slots * np.intp(self._registers.shape[1]) + index
        np.maximum.at(self._registers.reshape(-1), flat, rank)

    def resolve_slots(
        self, keys: np.ndarray, create_order: np.ndarray | None = None
    ) -> np.ndarray:
        """Slot per (unique) key, ``-1`` for unseen — one dict sweep.

        With *create_order* (index positions into *keys*), missing keys
        are created in exactly that order, pinning bank insertion order.
        The returned slots let hot paths address registers directly
        (:meth:`add_at_slots`, :meth:`estimate_slots`, :meth:`rows_at`)
        instead of paying a key lookup per call.
        """
        keys = np.asarray(keys, dtype=np.int64)
        get = self._slots.get
        slots = np.fromiter(
            (get(int(key), -1) for key in keys), dtype=np.intp, count=keys.size
        )
        if create_order is not None:
            missing = create_order[slots[create_order] < 0]
            for i in missing.tolist():
                slots[i] = self._slot(int(keys[i]))
        return slots

    def add_at_slots(self, slots: np.ndarray, items: np.ndarray) -> None:
        """Vectorized :meth:`add` for events with pre-resolved bank rows."""
        items = np.asarray(items)
        if items.size == 0:
            return
        index, rank = _points(items, self._item_seed(), self.precision)
        flat = (
            np.asarray(slots, dtype=np.intp) * np.intp(self._registers.shape[1])
            + index
        )
        np.maximum.at(self._registers.reshape(-1), flat, rank)

    def estimate_slots(
        self, slots: np.ndarray, with_zeros: bool = False
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Estimates aligned with pre-resolved (valid) *slots*.

        Chunked like :meth:`estimate_all` so the float64 temporaries
        stay bounded.  With ``with_zeros`` the per-slot zero-register
        counts come back too — the streaming promotion resolver needs
        them to bound the linear-counting branch over a whole chunk.
        """
        slots = np.asarray(slots, dtype=np.intp)
        n = int(slots.size)
        estimates = np.zeros(n, dtype=np.float64)
        zeros = np.full(n, 1 << self.precision, dtype=np.int64)
        for start in range(0, n, self._CHUNK_ROWS):
            sel = slice(start, min(start + self._CHUNK_ROWS, n))
            rows = self._registers[slots[sel]]
            estimates[sel] = _estimate_rows(rows)
            if with_zeros:
                zeros[sel] = (rows == 0).sum(axis=1)
        if with_zeros:
            return estimates, zeros
        return estimates

    def rows_at(self, slots: np.ndarray) -> np.ndarray:
        """Copy of the register rows at *slots* (pair with :meth:`write_rows_at`)."""
        return self._registers[np.asarray(slots, dtype=np.intp)]

    def write_rows_at(self, slots: np.ndarray, rows: np.ndarray) -> None:
        """Write *rows* (from :meth:`rows_at`) back over *slots*."""
        self._registers[np.asarray(slots, dtype=np.intp)] = rows

    def estimate(self, key: int) -> float:
        """Estimated distinct items under *key* (0.0 for unseen keys)."""
        slot = self._slots.get(key)
        if slot is None:
            return 0.0
        return float(_estimate_rows(self._registers[slot][np.newaxis, :])[0])

    def estimate_all(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, estimates)`` for every key, in insertion order.

        Vectorized in chunks of :attr:`_CHUNK_ROWS` rows so the float64
        temporaries stay bounded regardless of bank size.
        """
        n = len(self._slots)
        keys = np.fromiter(self._slots.keys(), dtype=np.int64, count=n)
        estimates = np.zeros(n, dtype=np.float64)
        for start in range(0, n, self._CHUNK_ROWS):
            stop = min(start + self._CHUNK_ROWS, n)
            estimates[start:stop] = _estimate_rows(self._registers[start:stop])
        return keys, estimates

    def extract(self, key: int) -> HyperLogLog:
        """A standalone :class:`HyperLogLog` copy of one key's registers."""
        single = HyperLogLog(self.precision, self.seed)
        slot = self._slots.get(key)
        if slot is not None:
            single._registers[:] = self._registers[slot]
        return single

    def __contains__(self, key: int) -> bool:
        return key in self._slots

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def memory_bytes(self) -> int:
        """Register memory including growth headroom (the slot dict excluded)."""
        return int(self._registers.nbytes)

    def __repr__(self) -> str:
        return (
            f"HllBank(precision={self.precision}, seed={self.seed}, "
            f"keys={len(self._slots)})"
        )
