"""Parameter profiles.

`tiny` is the only profile whose preimage domain is exhaustively enumerable
(W = 13 bits), so it is the only one supporting the full-quantum Bob backend
and exact-enumeration experiments.  Note the error radii: sigma0 = 0 keeps
the second preimage branch inside the error box always, and sigma = 1 keeps
the domain small enough that the function stays (almost always) 2-to-1 --
larger radii make f many-to-one at q = 8 and the construction collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import LatticeParams


@dataclass(frozen=True)
class Profile:
    name: str
    params: LatticeParams
    enumeration_allowed: bool

    def __post_init__(self):
        if self.enumeration_allowed and self.params.domain_size > 1 << 20:
            raise ValueError("enumeration-allowed profile must have a small domain")


PROFILES = {
    "tiny": Profile("tiny", LatticeParams(n=1, m=4, q=8, sigma0=0, sigma=1),
                    enumeration_allowed=True),
    "small": Profile("small", LatticeParams(n=2, m=16, q=256, sigma0=1, sigma=4),
                     enumeration_allowed=False),
    "demo": Profile("demo", LatticeParams(n=4, m=64, q=4096, sigma0=2, sigma=32),
                    enumeration_allowed=False),
}


def get_profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}") from None
