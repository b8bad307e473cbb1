"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dnssim.hierarchy import RootAffinity
from repro.ml import LabelEncoder
from repro.netmodel.addressing import MAX_IPV4, Prefix
from repro.sensor.keywords import STATIC_CATEGORIES, classify_name

# Realistic-ish hostnames: labels of letters/digits/hyphens joined by dots.
label = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,10}[a-z0-9])?", fullmatch=True)
hostname = st.lists(label, min_size=1, max_size=5).map(".".join)


class TestKeywordMatcherProperties:
    @given(hostname)
    def test_always_returns_known_category(self, name):
        assert classify_name(name) in STATIC_CATEGORIES

    @given(hostname)
    def test_case_insensitive(self, name):
        assert classify_name(name) == classify_name(name.upper())

    @given(hostname)
    def test_trailing_dot_irrelevant(self, name):
        assert classify_name(name) == classify_name(name + ".")

    @given(hostname)
    def test_prefixing_mail_wins(self, name):
        # Left-most component rule: prepending a mail host label decides.
        assert classify_name("mail." + name) == "mail"

    @given(st.text(max_size=40))
    def test_never_crashes_on_arbitrary_text(self, text):
        assert classify_name(text) in STATIC_CATEGORIES


class TestRootAffinityProperties:
    @given(
        st.sampled_from(["na", "asia", "eu", "sa", "oc", "africa", "unknown"]),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_pick_returns_letter_or_other(self, region, seed):
        affinity = RootAffinity()
        rng = np.random.default_rng(seed)
        picked = affinity.pick(region, rng)
        assert picked in ("b", "m", "_other")

    def test_regional_skew(self):
        affinity = RootAffinity()
        rng = np.random.default_rng(0)
        asia = sum(affinity.pick("asia", rng) == "m" for _ in range(2000)) / 2000
        na = sum(affinity.pick("na", rng) == "m" for _ in range(2000)) / 2000
        assert asia > na  # M-Root is Asia-heavy, as deployed


class TestPrefixProperties:
    @given(
        st.integers(min_value=0, max_value=MAX_IPV4),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=MAX_IPV4),
    )
    def test_membership_matches_bounds(self, network, length, probe):
        prefix = Prefix(network, length)
        inside = prefix.first <= probe <= prefix.last
        assert (probe in prefix) == inside

    @given(st.integers(min_value=0, max_value=MAX_IPV4), st.integers(8, 32))
    def test_parse_str_roundtrip(self, network, length):
        prefix = Prefix(network, length)
        assert Prefix.parse(str(prefix)) == prefix

    @given(st.integers(min_value=0, max_value=MAX_IPV4), st.integers(0, 24))
    def test_subprefix_union_covers(self, network, length):
        prefix = Prefix(network, min(length, 20))
        subs = list(prefix.subprefixes(prefix.length + 4))
        assert len(subs) == 16
        assert subs[0].first == prefix.first
        assert subs[-1].last == prefix.last


class TestLabelEncoderProperties:
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=30))
    def test_encode_decode_roundtrip(self, names):
        encoder = LabelEncoder(sorted(set(names)))
        assert encoder.decode(encoder.encode(names)) == names

    @given(st.lists(st.text(min_size=1, max_size=5), min_size=1, max_size=20, unique=True))
    def test_labels_are_dense_range(self, names):
        encoder = LabelEncoder(names)
        codes = encoder.encode(names)
        assert sorted(codes.tolist()) == list(range(len(names)))
