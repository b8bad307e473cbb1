"""DNS blacklists (DNSBL): the paper's spam-confirmation source.

Appendix A lists nine DNSBL operators (badips, barracuda, dnsbl.sorbs,
inps.de, junkemail, openbl, spamhaus, spamrats, spam.dnsbl.sorbs) and
Tables VII/VIII report per-originator listing counts split into BLS
("blacklist spam") and BLO ("blacklist other": scanning, ssh attacks,
phishing…).  We model each provider as an imperfect detector: a spam
campaign gets listed by a spam-focused provider with that provider's
detection probability; scanners and brute-forcers show up on the
"other" portions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.activity.base import Campaign

__all__ = ["BlacklistProvider", "DEFAULT_PROVIDERS", "BlacklistRegistry"]


@dataclass(frozen=True, slots=True)
class BlacklistProvider:
    """One DNSBL operator and its per-campaign detection probability."""

    name: str
    spam_detection: float
    other_detection: float


#: Nine providers mirroring Appendix A's list; spam-focused lists detect
#: spam well, the mixed lists also flag scanners/brute-forcers.
DEFAULT_PROVIDERS: tuple[BlacklistProvider, ...] = (
    BlacklistProvider("badips", 0.25, 0.30),
    BlacklistProvider("barracuda", 0.55, 0.05),
    BlacklistProvider("dnsbl.sorbs", 0.45, 0.10),
    BlacklistProvider("inps.de", 0.20, 0.10),
    BlacklistProvider("junkemail", 0.35, 0.02),
    BlacklistProvider("openbl", 0.15, 0.35),
    BlacklistProvider("spamhaus", 0.70, 0.05),
    BlacklistProvider("spamrats", 0.40, 0.02),
    BlacklistProvider("spam.dnsbl.sorbs", 0.40, 0.02),
)

#: Which classes each list portion can catch.
_SPAM_LISTABLE = frozenset({"spam"})
_OTHER_LISTABLE = frozenset({"scan", "p2p"})


@dataclass(slots=True)
class BlacklistRegistry:
    """Accumulated listings across all providers."""

    providers: tuple[BlacklistProvider, ...] = DEFAULT_PROVIDERS
    seed: int = 909
    _spam: dict[int, set[str]] = field(default_factory=dict)
    _other: dict[int, set[str]] = field(default_factory=dict)

    def observe(self, campaigns: list[Campaign]) -> None:
        """Run every provider's detector over the campaigns."""
        rng = np.random.default_rng(self.seed)
        for campaign in campaigns:
            # Bigger activities are likelier to trip a detector; saturate
            # around a few hundred queriers.
            visibility = min(1.0, campaign.footprint / 300.0)
            for provider in self.providers:
                if campaign.app_class in _SPAM_LISTABLE:
                    if rng.random() < provider.spam_detection * visibility:
                        self._spam.setdefault(campaign.originator, set()).add(provider.name)
                if campaign.app_class in _OTHER_LISTABLE:
                    if rng.random() < provider.other_detection * visibility:
                        self._other.setdefault(campaign.originator, set()).add(provider.name)

    def spam_listings(self, originator: int) -> int:
        """BLS: how many providers list this originator as a spammer."""
        return len(self._spam.get(originator, ()))

    def other_listings(self, originator: int) -> int:
        """BLO: how many providers list it for other malicious activity."""
        return len(self._other.get(originator, ()))

    def listed_spammers(self, min_listings: int = 1) -> set[int]:
        return {o for o, names in self._spam.items() if len(names) >= min_listings}

    def is_clean(self, originator: int) -> bool:
        """No provider lists this originator at all (Table VII's "clean")."""
        return self.spam_listings(originator) == 0 and self.other_listings(originator) == 0
