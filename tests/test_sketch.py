"""Property-based tests (hypothesis) of the repro.sketch structures.

The structures' contracts are probabilistic but one-sided, so every
test pins a *hard* invariant — never a distributional hope:

* Bloom filters have no false negatives, and their false-positive rate
  stays within a slack factor of the configured budget;
* HLL estimates stay within the theoretical relative error
  (``1.04/sqrt(m)``, generously slackened for small cardinalities);
* batch ingest is bit-identical to the scalar path.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import (
    BloomFilter,
    HllBank,
    HyperLogLog,
    mix64,
    mix64_array,
)

keys = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=0, max_size=300
)
seeds = st.integers(min_value=0, max_value=2**32)


def key_array(values: list[int]) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class TestHashing:
    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1), seeds)
    def test_scalar_matches_vector(self, value, seed):
        scalar = mix64(value, seed)
        vector = mix64_array(np.array([value], dtype=np.int64), seed)
        assert int(vector[0]) == scalar

    @given(seeds)
    def test_distinct_inputs_rarely_collide(self, seed):
        values = np.arange(512, dtype=np.int64)
        hashed = mix64_array(values, seed)
        assert len(np.unique(hashed)) == values.size


class TestBloomProperties:
    @given(keys, seeds)
    def test_no_false_negatives(self, values, seed):
        bloom = BloomFilter(capacity=4096, fp_rate=0.01, seed=seed)
        for value in values:
            bloom.add(value)
        assert all(value in bloom for value in values)
        if values:
            assert bool(bloom.contains_batch(key_array(values)).all())

    @given(keys, seeds)
    def test_batch_matches_scalar(self, values, seed):
        scalar = BloomFilter(capacity=4096, fp_rate=0.01, seed=seed)
        batch = BloomFilter(capacity=4096, fp_rate=0.01, seed=seed)
        novel_scalar: dict[int, bool] = {}
        for value in values:
            novel = scalar.add(value)
            novel_scalar.setdefault(value, novel)
        # The batch novel-mask contract covers distinct keys; feed first
        # occurrences (the documented caller obligation).
        firsts = list(dict.fromkeys(values))
        novel_batch = batch.add_batch(key_array(firsts))
        assert scalar == batch
        assert list(novel_batch) == [novel_scalar[value] for value in firsts]

    @given(seeds)
    @settings(max_examples=20)
    def test_false_positive_rate_within_budget(self, seed):
        fp_rate = 0.02
        bloom = BloomFilter(capacity=2048, fp_rate=fp_rate, seed=seed)
        inserted = np.arange(2048, dtype=np.int64)
        bloom.add_batch(inserted)
        probes = np.arange(1_000_000, 1_050_000, dtype=np.int64)
        hits = int(bloom.contains_batch(probes).sum())
        # 3x slack over the design budget on 50k disjoint probes.
        assert hits / probes.size <= 3.0 * fp_rate


class TestHyperLogLogProperties:
    @given(st.integers(min_value=0, max_value=5000), seeds)
    @settings(max_examples=30)
    def test_estimate_within_theoretical_bound(self, cardinality, seed):
        precision = 10  # m=1024 → RSE ~3.25%
        hll = HyperLogLog(precision=precision, seed=seed)
        hll.add_batch(np.arange(cardinality, dtype=np.int64))
        error = abs(hll.cardinality() - cardinality)
        # 5 standard errors of slack, plus an absolute floor for the
        # tiny-cardinality regime where relative error is meaningless.
        rse = 1.04 / math.sqrt(1 << precision)
        assert error <= max(5.0, 5.0 * rse * cardinality)

    @given(keys, seeds)
    def test_batch_matches_scalar(self, values, seed):
        scalar = HyperLogLog(precision=8, seed=seed)
        batch = HyperLogLog(precision=8, seed=seed)
        for value in values:
            scalar.add(value)
        batch.add_batch(key_array(values))
        assert scalar == batch

    @given(keys, seeds)
    def test_duplicates_never_change_estimate(self, values, seed):
        hll = HyperLogLog(precision=6, seed=seed)
        hll.add_batch(key_array(values))
        once = hll.cardinality()
        hll.add_batch(key_array(values))
        assert hll.cardinality() == once


class TestHllBankProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=2**32),
            ),
            max_size=300,
        ),
        seeds,
    )
    def test_bank_row_equals_standalone_hll(self, pairs, seed):
        bank = HllBank(precision=6, seed=seed)
        singles: dict[int, HyperLogLog] = {}
        for key, item in pairs:
            bank.add(key, item)
            singles.setdefault(key, HyperLogLog(precision=6, seed=seed)).add(item)
        for key, single in singles.items():
            assert bank.extract(key) == single
            assert bank.estimate(key) == single.cardinality()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=2**32),
            ),
            max_size=300,
        ),
        seeds,
    )
    def test_batch_matches_scalar_including_key_order(self, pairs, seed):
        scalar = HllBank(precision=6, seed=seed)
        batch = HllBank(precision=6, seed=seed)
        for key, item in pairs:
            scalar.add(key, item)
        if pairs:
            batch.add_batch(
                np.array([k for k, _ in pairs], dtype=np.int64),
                np.array([i for _, i in pairs], dtype=np.int64),
            )
        scalar_keys, scalar_estimates = scalar.estimate_all()
        batch_keys, batch_estimates = batch.estimate_all()
        # Insertion (first-occurrence) order must match too — survivor
        # order in the pre-stage depends on it.
        assert np.array_equal(scalar_keys, batch_keys)
        assert np.array_equal(scalar_estimates, batch_estimates)

    def test_bank_grows_past_initial_capacity(self):
        bank = HllBank(precision=4, seed=0)
        for key in range(1000):
            bank.add(key, key * 17)
        assert len(bank) == 1000
        keys_out, estimates = bank.estimate_all()
        assert keys_out.size == 1000
        assert bool((estimates > 0).all())
