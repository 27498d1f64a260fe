"""Scheme taxonomy, chain topology, and the scenario bundle.

A scheme couples a device-pairing rule with a powering mode:

* ``com`` pairing schedules one device per annulus subarea (connectivity
  oriented), ``qom`` pairing serves only the nearest active device
  (quality oriented);
* the ``t`` prefix powers relays by time-switching harvesting (BTEH), the
  ``p`` prefix by power-splitting (BPEH); the ``*-noeh`` variants disable
  harvesting entirely;
* ``cnrr`` is the conventional relaying baseline: no device traffic, no
  harvesting, the full power budget on the relayed message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from .channel import LinkBudget
from .geometry import CoverageDisk
from .power import EhPolicy, uniform_policy


class Scheme(enum.Enum):
    TCOM = "tcom"
    TQOM = "tqom"
    PCOM = "pcom"
    PQOM = "pqom"
    COM_NOEH = "com-noeh"
    QOM_NOEH = "qom-noeh"
    CNRR = "cnrr"

    @property
    def pairing(self) -> Optional[str]:
        """Device-pairing rule: "com", "qom", or None for the baseline."""
        if self in (Scheme.TCOM, Scheme.PCOM, Scheme.COM_NOEH):
            return "com"
        if self in (Scheme.TQOM, Scheme.PQOM, Scheme.QOM_NOEH):
            return "qom"
        return None

    @property
    def harvesting(self) -> Optional[str]:
        """Powering architecture, or None when harvesting is disabled."""
        if self in (Scheme.TCOM, Scheme.TQOM):
            return "BTEH"
        if self in (Scheme.PCOM, Scheme.PQOM):
            return "BPEH"
        return None

    @classmethod
    def parse(cls, label: str) -> "Scheme":
        try:
            return cls(label.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in cls)
            raise ValueError(f"unknown scheme {label!r}; expected one of {valid}")


@dataclass(frozen=True)
class NetworkTopology:
    """Relay chain layout: per-slot hop distances and device-disk shapes.

    Index convention: slot ``t`` (1-based) carries the link transmitted by
    node ``t`` and received by node ``t+1``; ``hop_distances[t-1]`` is that
    link's length.  Each transmitter ``t`` also owns a device disk of
    radius ``disk_radii[t-1]`` split into ``subarea_counts[t-1]`` annuli.
    """

    hop_distances: tuple
    disk_radii: tuple
    subarea_counts: tuple
    density_active: float

    def __post_init__(self):
        hops = tuple(float(d) for d in self.hop_distances)
        radii = tuple(float(r) for r in self.disk_radii)
        counts = tuple(int(k) for k in self.subarea_counts)
        if not hops:
            raise ValueError("topology needs at least one hop")
        if len(radii) != len(hops) or len(counts) != len(hops):
            raise ValueError("hop_distances, disk_radii, subarea_counts must align")
        if any(d <= 0 for d in hops) or any(r <= 0 for r in radii):
            raise ValueError("distances and radii must be positive")
        if any(k < 1 for k in counts):
            raise ValueError("subarea counts must be >= 1")
        if self.density_active < 0:
            raise ValueError("densities must be non-negative")
        object.__setattr__(self, "hop_distances", hops)
        object.__setattr__(self, "disk_radii", radii)
        object.__setattr__(self, "subarea_counts", counts)

    @property
    def hop_count(self) -> int:
        return len(self.hop_distances)

    @property
    def node_count(self) -> int:
        return len(self.hop_distances) + 1

    def disk(self, t: int) -> CoverageDisk:
        """Device disk of transmitter t (1-based slot index)."""
        if not 1 <= t <= self.hop_count:
            raise ValueError(f"slot {t} outside 1..{self.hop_count}")
        return CoverageDisk(radius=self.disk_radii[t - 1],
                            density_active=self.density_active,
                            subarea_count=self.subarea_counts[t - 1])

    def without_devices(self) -> "NetworkTopology":
        return replace(self, density_active=0.0)


def build_policy(scheme: Scheme, node_count: int, rho: float,
                 alpha: float = 0.2, beta: float = 0.8,
                 eta: float = 1.0) -> EhPolicy:
    """Policy matching a scheme's powering mode.

    Non-harvesting schemes force rho to zero; the architecture label is
    then irrelevant (no indicator ever fires) and defaults to BTEH.
    """
    architecture = scheme.harvesting or "BTEH"
    if scheme.harvesting is None:
        rho = 0.0
    return uniform_policy(architecture, node_count, rho,
                          alpha=alpha, beta=beta, eta=eta)


@dataclass(frozen=True)
class Scenario:
    """Everything one evaluation needs: scheme, layout, powering, budget, plan."""

    scheme: Scheme
    topology: NetworkTopology
    policy: EhPolicy
    budget: LinkBudget
    plan: "AllocationPlan"  # noqa: F821 - defined in analytics

    def __post_init__(self):
        if self.policy.node_count != self.topology.node_count:
            raise ValueError(
                f"policy covers {self.policy.node_count} nodes but the topology "
                f"has {self.topology.node_count}")
        want = self.scheme.harvesting
        if want is not None and self.policy.architecture != want:
            raise ValueError(
                f"{self.scheme.value} requires {want}, policy says "
                f"{self.policy.architecture}")
        if want is None and self.policy.is_harvesting:
            raise ValueError(
                f"{self.scheme.value} disallows harvesting but rho is nonzero")
