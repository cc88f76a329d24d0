"""Parameter profiles.

`tiny` is the one profile: its preimage domain (W = 13 bits, 2592 points)
is small enough for the exact image table, so the simulated quantum Bob,
the public 2-regularity check and every exact-enumeration experiment run
there.  Note the error radii: sigma0 = 0 keeps the second preimage branch
inside the error box always, and sigma = 1 keeps the domain small enough
that the function stays (almost always) 2-to-1 -- larger radii make f
many-to-one at q = 8 and the construction collapses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import LatticeParams


@dataclass(frozen=True)
class Profile:
    name: str
    params: LatticeParams


PROFILES = {
    "tiny": Profile("tiny", LatticeParams(n=1, m=4, q=8, sigma0=0, sigma=1)),
}


def get_profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}") from None
