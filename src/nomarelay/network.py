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
    """A scheme, valued by its label.

    ``pairing`` is the device-pairing rule: "com", "qom", or None for the
    baseline.  ``harvesting`` is the powering architecture, "BTEH" or
    "BPEH", or None when harvesting is disabled.  Both are plain member
    attributes, set once when the class is created.
    """

    TCOM = ("tcom", "com", "BTEH")
    TQOM = ("tqom", "qom", "BTEH")
    PCOM = ("pcom", "com", "BPEH")
    PQOM = ("pqom", "qom", "BPEH")
    COM_NOEH = ("com-noeh", "com", None)
    QOM_NOEH = ("qom-noeh", "qom", None)
    CNRR = ("cnrr", None, None)

    def __new__(cls, label: str, pairing: Optional[str],
                harvesting: Optional[str]):
        member = object.__new__(cls)
        member._value_ = label
        member.pairing = pairing
        member.harvesting = harvesting
        return member

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


# arguments of each outage selector kind: slot t, then subarea k
_SELECTOR_ARITY = {"hop": 1, "device": 2, "e2e_destination": 0,
                   "e2e_device": 2}


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
        lists = tuple(len(shares) for shares in self.plan.device_shares)
        serves = tuple(len(self.served(t))
                       for t in range(1, self.topology.hop_count + 1))
        if lists != serves:
            raise ValueError(f"plan lists {lists} devices per slot but "
                             f"{self.scheme.value} serves {serves}")

    def served(self, t: int) -> tuple:
        """Subarea of every device slot t serves, one per device message the
        plan lists there: ``1..K_t`` under com, None (the nearest device)
        under qom, none under cnrr."""
        if self.scheme.pairing == "com":
            return tuple(range(1, self.topology.subarea_counts[t - 1] + 1))
        return (None,) if self.scheme.pairing == "qom" else ()

    def check_selector(self, selector) -> tuple:
        """``(kind, args)`` of an outage selector, for both evaluation routes:
        ``("hop", t)``, ``("device", t, k)``, ``("e2e_destination",)`` or
        ``("e2e_device", t, k)`` with an integer slot ``t`` in
        ``1..hop_count`` and ``k`` in ``served(t)``; else ``ValueError``."""
        kind, args = selector[0], tuple(selector[1:])
        if _SELECTOR_ARITY.get(kind) != len(args):
            raise ValueError(f"unknown selector {selector!r}")
        # an integer is whatever has __index__ (int, numpy integers), never
        # a float, which would compare equal to the slot it rounds to
        hops = self.topology.hop_count
        if args and not (hasattr(args[0], "__index__")
                         and 1 <= args[0] <= hops):
            raise ValueError(f"slot {args[0]!r} outside 1..{hops}")
        if len(args) == 2 and not (
                (args[1] is None or hasattr(args[1], "__index__"))
                and args[1] in self.served(args[0])):
            raise ValueError(f"no served device matches selector {selector!r}")
        return kind, args


def family_key(scenario: Scenario) -> tuple:
    """What both routes read of ``scenario`` besides ``budget.P0`` and
    ``policy.rho``: the scenarios of one key form a family, which the
    closed form walks at once and the simulator, per P0, resolves at once.
    The pairing stands for the scheme, whose label neither route reads, so
    a scheme without harvesting joins the time-switching family whose plan
    it shares (com-noeh that of tcom, qom-noeh that of tqom).  The policy's
    other fields come last; the topology fixes its node count."""
    return (scenario.scheme.pairing, scenario.topology, scenario.plan,
            _fields_but(scenario.budget, "P0"),
            _fields_but(scenario.policy, "rho"))


def _fields_but(obj, name: str) -> tuple:
    """The field values of the dataclass ``obj`` but ``name``'s."""
    # the class's field table, read directly: dataclasses.fields() would
    # rebuild it for every scenario of a sweep
    return tuple([getattr(obj, f) for f in obj.__dataclass_fields__
                  if f != name])
