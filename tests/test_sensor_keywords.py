"""Tests for the static keyword matcher against the paper's rules."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netmodel.world import NameStatus
from repro.sensor.keywords import (
    CATEGORY_KEYWORDS,
    STATIC_CATEGORIES,
    SUFFIX_CATEGORIES,
    classify_name,
    classify_querier,
)

_TOKEN_SPLIT = re.compile(r"[^a-z]+")


def paper_component_category(component: str) -> str | None:
    """The paper's rule, literally: split into letter tokens, then the
    first category in rule order whose keyword starts any token."""
    tokens = [t for t in _TOKEN_SPLIT.split(component.lower()) if t]
    for category, keywords in CATEGORY_KEYWORDS:
        for token in tokens:
            for keyword in keywords:
                if token.startswith(keyword):
                    return category
    return None


def paper_classify_name(name: str) -> str:
    """Oracle for :func:`classify_name`: the token loop per component."""
    lowered = name.lower().rstrip(".")
    components = lowered.split(".")
    for component in components[:-1] if len(components) > 1 else components:
        category = paper_component_category(component)
        if category is not None:
            return category
    for category, suffixes in SUFFIX_CATEGORIES:
        for suffix in suffixes:
            if lowered == suffix or lowered.endswith("." + suffix):
                return category
    return "other"


_KEYWORDS = [keyword for _, keywords in CATEGORY_KEYWORDS for keyword in keywords]
_SUFFIXES = [suffix for _, suffixes in SUFFIX_CATEGORIES for suffix in suffixes]
# Upper case, digits, hyphens, and non-ASCII letters — two of which
# (U+0130, the Kelvin sign) lower-case to ASCII letters.
_PIECES = st.one_of(
    st.sampled_from(_KEYWORDS),
    st.sampled_from(_KEYWORDS).map(str.upper),
    st.text(alphabet="abcxyzMNQ0123456789-_éßüİ\u212a", min_size=1, max_size=4),
)
_COMPONENTS = st.lists(_PIECES, max_size=4).map("".join)
_NAMES = st.builds(
    lambda parts, tld, dot: ".".join(parts + tld) + dot,
    st.lists(_COMPONENTS, min_size=1, max_size=4),
    st.one_of(st.just([]), _COMPONENTS.map(lambda c: [c]),
              st.sampled_from(_SUFFIXES + ["net", "com", "NET"]).map(lambda t: [t])),
    st.sampled_from(["", ".", ".."]),
)


class TestPaperExamples:
    def test_paper_worked_examples(self):
        # § III-C: "both mail.ns.example.com and mail-ns.example.com are mail"
        assert classify_name("mail.ns.example.com") == "mail"
        assert classify_name("mail-ns.example.com") == "mail"

    def test_left_most_component_wins(self):
        assert classify_name("ns.mail.example.com") == "ns"

    def test_component_beats_suffix(self):
        # mail.google.com is both google and mail; component matching wins.
        assert classify_name("mail.google.com") == "mail"

    def test_home_with_address_digits(self):
        assert classify_name("home1-2-3-4.example.com") == "home"
        assert classify_name("dsl-10-0-0-1.provider.net") == "home"

    def test_dynamic_keyword(self):
        assert classify_name("dynamic19.isp.example") == "home"


class TestCategories:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("smtp3.corp.example", "mail"),
            ("mx1.example.org", "mail"),
            ("sendmail.example.org", "mail"),  # send* wildcard
            ("newsletter.example.org", "mail"),
            ("cache2.isp.example", "ns"),
            ("resolver1.isp.example", "ns"),
            ("cns.isp.example", "ns"),
            ("firewall2.company.example", "fw"),
            ("fw1.company.example", "fw"),
            ("wall3.company.example", "fw"),
            ("ironport.company.example", "antispam"),
            ("spamfilter.company.example", "antispam"),
            ("www.example.com", "www"),
            ("ntp1.university.example", "ntp"),
            ("srv42.opaque.example", "other"),
            ("gateway9.opaque.example", "other"),
        ],
    )
    def test_component_keywords(self, name, expected):
        assert classify_name(name) == expected

    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("a23-1.deploy.akamaitechnologies.com", "cdn"),
            ("node.edgecastcdn.net", "cdn"),
            ("node.cdngc.net", "cdn"),
            ("x.llnw.net", "cdn"),
            ("ec2-1-2-3-4.compute-1.amazonaws.com", "aws"),
            ("vm3.cloudapp.azure.com", "ms"),
            ("crawl-66-249-66-1.googlebot.com", "google"),
            ("rate-limited-proxy.1e100.net", "google"),
        ],
    )
    def test_suffix_categories(self, name, expected):
        assert classify_name(name) == expected

    def test_suffix_requires_label_boundary(self):
        # notamazonaws.com must not match the amazonaws.com suffix.
        assert classify_name("x.notamazonaws.com") == "other"

    def test_case_and_trailing_dot_insensitive(self):
        assert classify_name("MAIL.Example.COM.") == "mail"

    def test_token_prefix_matching(self):
        # "mailer5" starts with "mail"; "imap-2" with "imap".
        assert classify_name("mailer5.example.com") == "mail"
        assert classify_name("imap-2.example.com") == "mail"

    def test_no_substring_matching_inside_tokens(self):
        # "hairpin" contains "ip" but does not start with it.
        assert classify_name("hairpin.example.com") == "other"


class TestCompiledRules:
    """One compiled pattern per category is the paper's token × keyword rule."""

    @settings(max_examples=600, deadline=None)
    @given(_NAMES)
    @example("mail")  # one component: it is matched, not skipped as a TLD
    @example("x.net")  # a keyword only in the TLD
    @example("hairpin-ip.x.com")  # a keyword inside a token, then at a start
    @example("xmail9mx.a.com")  # digits end a token: mx starts one
    @example("\u212aable.x.com")  # Kelvin sign lower-cases to "k"
    @example("éhost.x.com")
    @example("AKAMAI.NET.")  # a name that is a suffix, whole
    @example("x.notamazonaws.com")  # a suffix that is not at a label boundary
    def test_compiled_rules_equal_the_token_loop(self, name):
        assert classify_name(name) == paper_classify_name(name)

    @given(_COMPONENTS)
    def test_component_category_equals_the_token_loop(self, component):
        from repro.sensor.keywords import _component_category

        assert _component_category(component) == paper_component_category(component)


class TestQuerierClassification:
    def test_nxdomain(self):
        assert classify_querier(None, NameStatus.NXDOMAIN) == "nxdomain"

    def test_unreach(self):
        assert classify_querier(None, NameStatus.UNREACH) == "unreach"

    def test_ok_with_name(self):
        assert classify_querier("mail.example.com", NameStatus.OK) == "mail"

    def test_ok_without_name_is_nxdomain(self):
        # Defensive: status says OK but no name materialized.
        assert classify_querier(None, NameStatus.OK) == "nxdomain"

    def test_all_outputs_are_known_categories(self):
        samples = [
            "mail.x.com", "home1.x.com", "ns.x.com", "weird.x.com",
            "a.akamai.net", "www.x.com", "ntp.x.com",
        ]
        for name in samples:
            assert classify_name(name) in STATIC_CATEGORIES


class TestGeneratorParserAgreement:
    """The world's synthesized names must be recognized as their role."""

    def test_role_names_mostly_classified_correctly(self, small_world):
        from repro.netmodel.namespace import QuerierRole

        expected = {
            QuerierRole.HOME: "home",
            QuerierRole.MAIL: "mail",
            QuerierRole.NS: "ns",
            QuerierRole.FIREWALL: "fw",
            QuerierRole.ANTISPAM: "antispam",
            QuerierRole.WWW: "www",
            QuerierRole.NTP: "ntp",
            QuerierRole.CDN: "cdn",
            QuerierRole.AWS: "aws",
            QuerierRole.MS: "ms",
            QuerierRole.GOOGLE: "google",
        }
        for role, category in expected.items():
            named = [
                q for q in small_world.queriers if q.role is role and q.name
            ]
            if not named:
                continue
            hits = sum(1 for q in named if classify_name(q.name) == category)
            assert hits / len(named) > 0.9, (role, category)
